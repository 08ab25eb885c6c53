"""``tests/cluster/test_sharedcache.py`` over ``[memory, disk]``."""

from tests.cluster.test_sharedcache import *  # noqa: F401,F403

# The bus has no tiers; its unit test stays where it lives.
del test_subscriber_errors_are_counted_not_propagated  # noqa: F821
