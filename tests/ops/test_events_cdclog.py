"""``tests/ops/test_events.py`` over the log's other role.

This module defines no tests of its own: it re-collects the contract
suite (the same function objects, not copies) with ``log_name`` =
``"cdclog"``, the invalidation stream a :class:`RegionalDeployment
<repro.regions.deployment.RegionalDeployment>` replays.
"""

import pytest

from tests.ops.test_events import *  # noqa: F401,F403


@pytest.fixture(scope="module")
def log_name():
    return "cdclog"


# Neither takes a role; they stay where they live.
del test_taxonomy_is_closed_over_what_the_fleet_emits  # noqa: F821
del test_both_roles_share_one_registry_without_colliding  # noqa: F821
