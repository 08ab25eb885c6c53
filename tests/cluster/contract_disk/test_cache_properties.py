"""``tests/properties/test_cache_properties.py`` over ``[memory, disk]``."""

from tests.properties.test_cache_properties import *  # noqa: F401,F403
