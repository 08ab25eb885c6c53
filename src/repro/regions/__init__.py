"""Multi-region deployment: replicated snapshot fleets with CDC
invalidation replay and warm failover.

See :mod:`repro.regions.deployment` for :class:`RegionalDeployment` and
its event-sourced invalidation log (a :class:`SequencedLog
<repro.ops.events.SequencedLog>` named ``"cdclog"``), and
:mod:`repro.regions.chaos` for the ``msite chaos --region-faults``
harness.  docs/REGIONS.md walks the whole design.
"""

from repro.regions.chaos import (
    RegionChaosReport,
    format_region_report,
    run_region_chaos,
)
from repro.regions.deployment import Region, RegionalDeployment

__all__ = [
    "Region",
    "RegionalDeployment",
    "RegionChaosReport",
    "format_region_report",
    "run_region_chaos",
]
