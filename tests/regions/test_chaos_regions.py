"""The ``regions`` chaos script: a kill absorbed, a heal replayed.

The script-independent checks (same seed, same report; the empty
report; the formatter) are parametrized over both scripts in
``tests/resilience/test_chaos.py``.  Like that suite, the coverage gate
replays this file under the stdlib line tracer (~10x slower), so the
run is small and shared via a module-scoped fixture.
"""

import pytest

from repro.resilience.chaos import run_chaos

REQUESTS = 24


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_chaos(
        "regions",
        seed=7,
        requests=REQUESTS,
        workers_per_region=1,
        snapshot_root=str(tmp_path_factory.mktemp("region-chaos")),
    )


def test_kill_is_absorbed_without_non_degraded_5xx(report):
    assert report.total == REQUESTS
    assert report.non_degraded_5xx == 0
    assert report.non_5xx_fraction == 1.0
    assert report.killed_region in report.acked
    assert report.fired == [(8, "kill"), (16, "revive")]
    # The kill actually rerouted traffic to the survivor.
    assert report.failovers > 0
    assert report.reroutes > 0
    assert report.degraded_responses.get("remote_region", 0) > 0


def test_healed_region_replays_to_live_offset(report):
    assert report.log_head > 0  # ?refresh=1 kept the log busy
    assert report.replay_caught_up
    assert not report.failed
    assert report.events_applied > 0
    # The heal event itself recorded replay-to-live: the acked offset
    # in its payload equals the CDC log head *at heal time*, so the
    # replay finished inside the heal, not in some later catch-up.
    assert report.heal_caught_up
    assert report.heal["acked_seq"] == report.heal["log_head"]
    # Both regions hold replicated snapshots on disk.
    assert all(count > 0 for count in report.store_entries.values())
    assert report.metrics_exposition_lines > 0


def test_event_log_tells_the_kill_failover_heal_story(report):
    """The ops event log carries the whole lifecycle, in order:
    the victim is killed, failovers route around it, then it is
    revived and healed — with gap-free sequence numbers."""
    from repro.ops import (
        REGION_FAILOVER,
        REGION_HEALED,
        REGION_KILLED,
        REGION_REVIVED,
    )

    victim = report.killed_region
    by_type = {}
    for event in report.ops_events:
        if event.payload.get("region") == victim:
            by_type.setdefault(event.type, []).append(event)

    assert len(by_type.get(REGION_KILLED, [])) == 1
    assert len(by_type.get(REGION_REVIVED, [])) == 1
    assert len(by_type.get(REGION_HEALED, [])) == 1
    killed = by_type[REGION_KILLED][0]
    revived = by_type[REGION_REVIVED][0]
    healed = by_type[REGION_HEALED][0]
    assert killed.sequence < revived.sequence < healed.sequence
    # Failovers only happen while the victim is down.  A failover
    # event names the *serving* region; the victim is its ``owner``.
    failovers = [
        event for event in report.ops_events
        if event.type == REGION_FAILOVER
        and event.payload.get("owner") == victim
    ]
    assert failovers, "no failover events for the killed region"
    assert all(
        killed.sequence < event.sequence < revived.sequence
        for event in failovers
    )
    # Gap-free sequencing across region and cluster event sources.
    sequences = [event.sequence for event in report.ops_events]
    assert sequences == list(range(1, report.ops_event_count + 1))
