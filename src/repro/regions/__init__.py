"""Multi-region deployment: replicated snapshot fleets with CDC
invalidation replay and warm failover.

See :mod:`repro.regions.deployment` for :class:`RegionalDeployment` and
its event-sourced invalidation log (a :class:`SequencedLog
<repro.ops.events.SequencedLog>` named ``"cdclog"``).  The
``msite chaos --region-faults`` run is the ``regions`` script of the one
chaos harness, :mod:`repro.resilience.chaos`.  docs/REGIONS.md walks the
whole design.
"""

from repro.regions.deployment import Region, RegionalDeployment

__all__ = [
    "Region",
    "RegionalDeployment",
]
