"""``tests/core/test_cache.py`` over ``[memory, disk]``."""

from tests.core.test_cache import *  # noqa: F401,F403

# The byte budget is the memory tier's alone (a disk tier still answers
# an evicted key); these two build ``[memory]`` directly and pin it
# where they live.
del test_eviction_oldest_first, test_eviction_counted_in_stats  # noqa: F821
