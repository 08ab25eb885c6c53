"""``tests/resilience/test_stale_cache.py`` over ``[memory, disk]``."""

from tests.resilience.test_stale_cache import *  # noqa: F401,F403
