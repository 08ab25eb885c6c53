"""``tests/concurrency/test_single_flight.py`` over ``[memory, disk]``."""

from tests.concurrency.test_single_flight import *  # noqa: F401,F403
