"""The chaos harness itself: deterministic, honest, and formatted, for
both of its scripts.

Chaos runs pay real renders, and the coverage gate replays this file
under the stdlib line tracer (~10x slower) — so the runs here are small
and shared via module-scoped fixtures wherever determinism allows.
"""

import pytest

from repro.cli import main
from repro.resilience.chaos import ChaosReport, format_report, run_chaos

REQUESTS = 12
#: High enough that a 12-request run certainly draws some faults.
RATES = dict(
    render_failure_rate=0.8, origin_failure_rate=0.4, garbage_rate=0.1
)
#: One small run per script.
RUNS = {
    "faults": dict(seed=7, requests=REQUESTS, **RATES),
    "regions": dict(seed=7, requests=24, workers_per_region=1),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def twin_reports(request):
    """Two same-seed runs of one script."""
    kwargs = RUNS[request.param]
    return tuple(run_chaos(request.param, **kwargs) for _ in range(2))


@pytest.fixture(scope="module")
def warm_report():
    return run_chaos(seed=7, requests=REQUESTS, **RATES)


def _facts(report):
    """Every field of a report, ops events as ``(sequence, type,
    payload)`` (their wall-clock stamps differ run to run)."""
    facts = dict(vars(report))
    facts["ops_events"] = [
        (event.sequence, event.type, event.payload)
        for event in report.ops_events
    ]
    return facts


def test_same_seed_same_report(twin_reports):
    first, second = twin_reports
    assert first.ops_events  # the story is not vacuously equal
    assert _facts(first) == _facts(second)


def test_event_log_is_gap_free_and_typed(warm_report):
    from repro.ops import EVENT_TYPES

    sequences = [event.sequence for event in warm_report.ops_events]
    assert sequences == list(range(1, warm_report.ops_event_count + 1))
    assert all(event.type in EVENT_TYPES for event in warm_report.ops_events)


def test_warm_run_serves_everything(warm_report):
    assert warm_report.total == REQUESTS
    assert warm_report.internal_errors == 0
    assert warm_report.ok_fraction == 1.0
    assert warm_report.faults_injected  # the schedule actually fired
    assert warm_report.metrics_exposition_lines > 0
    assert not warm_report.failed


def test_cold_run_still_never_leaks_500():
    report = run_chaos(seed=7, requests=REQUESTS, warm=False, **RATES)
    assert report.internal_errors == 0
    # Cold rungs may answer honest 5xx statuses, and ?file=snapshot.jpg
    # is an honest 404 when no render ever produced the snapshot — but
    # never a 500.
    assert set(report.statuses) <= {200, 404, 502, 503, 504}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_report_properties_on_empty_run(script):
    report = ChaosReport(seed=1, script=script, requests=0)
    assert report.total == 0
    assert report.ok_fraction == 0.0
    assert report.non_5xx_fraction == 0.0
    assert report.internal_errors == 0
    assert report.replay_caught_up  # vacuously: nothing to replay
    assert not report.failed
    assert report.verdict == []


#: What each script's printed report must mention.
ESSENTIALS = {
    "faults": (
        "script faults", "seed 7", "200 rate", "degradation ladder",
        "retry attempts", "/metrics exposition",
    ),
    "regions": (
        "script regions", "failover and CDC replay", "caught up: yes",
        "store entries", "/metrics exposition",
    ),
}


def test_format_report_mentions_the_essentials(twin_reports):
    report = twin_reports[0]
    text = format_report(report)
    for phrase in ESSENTIALS[report.script]:
        assert phrase in text
    if report.script == "regions":
        assert report.killed_region in text
        assert "revive at request 16: fired" in text


def test_the_bars_keep_distinct_names():
    """``ok_fraction`` is the share of 200s, ``non_5xx_fraction`` the
    share below 500."""
    report = ChaosReport(
        seed=1, script="regions", requests=4,
        statuses={200: 2, 404: 1, 503: 1},
    )
    assert report.ok_fraction == 0.5
    assert report.non_5xx_fraction == 0.75


def test_a_region_revive_past_the_end_fails_the_run(capsys):
    """``--requests 2`` kills at request 1 and never revives: that run
    cannot pass, and it must not print a heal it never did."""
    assert main(["chaos", "--region-faults", "--requests", "2"]) == 1
    out, err = capsys.readouterr()
    assert "kill at request 1: fired" in out
    assert "revive at request 2: NOT FIRED" in out
    assert "heal event: none (LAGGING)" in out
    assert "FAIL: step 'revive' at request 2 never fired" in err
    assert "FAIL: the heal did not replay" in err


def test_a_region_kill_past_the_end_fails_the_run():
    report = run_chaos("regions", seed=7, requests=1, workers_per_region=1)
    assert report.fired == []
    assert report.steps == ((1, "kill"), (2, "revive"))
    assert report.failed
    assert any("'kill'" in reason for reason in report.verdict)


def test_a_farm_crash_past_the_end_fails_the_run(capsys):
    assert main(["chaos", "--farm-faults", "--requests", "1"]) == 1
    __, err = capsys.readouterr()
    assert "FAIL: step 'crash' at request 1 never fired" in err


@pytest.mark.parametrize("requests", ["0", "-3"])
def test_requests_below_one_is_a_usage_error(requests, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--requests", requests])
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="needs a request"):
        run_chaos(requests=int(requests))


def test_the_regions_bar_requires_the_heal_event_to_be_live():
    """Every region acked the head by the end, but the heal event itself
    recorded a lagging replay: the run fails."""
    from repro.ops import Event

    lagging = Event(
        sequence=1, type="region_healed", created_at=0.0,
        payload={"region": "east", "published": 0,
                 "acked_seq": 3, "log_head": 4},
    )
    report = ChaosReport(
        seed=1, script="regions", requests=3,
        steps=((1, "kill"), (2, "revive")),
        fired=[(1, "kill"), (2, "revive")],
        killed_region="east", log_head=4, acked={"east": 4, "west": 4},
        ops_events=[lagging], ops_event_count=1,
    )
    assert report.replay_caught_up
    assert not report.heal_caught_up
    assert report.verdict == [
        f"the heal did not replay to the live offset ({lagging.payload})"
    ]
    assert "(LAGGING)" in format_report(report)


def test_farm_faults_belong_to_the_faults_script():
    with pytest.raises(ValueError, match="faults script"):
        run_chaos("regions", requests=3, farm_faults=True)
