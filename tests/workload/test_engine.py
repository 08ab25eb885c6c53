"""Engine replay: small scenarios against a real cluster deployment."""

import pytest

from repro.sim.clock import Clock
from repro.workload.arrivals import ClosedLoop, Poisson
from repro.workload.engine import (
    _SimClockPacer,
    build_scenario_mutator,
    build_scenario_origins,
    build_scenario_spec,
    format_report,
    run_scenario,
)
from repro.workload.population import DeviceMix
from repro.workload.replay import percentile
from repro.workload.scenarios import (
    NEWS_FASTPATH_SURFACE,
    NEWS_SURFACE,
    Scenario,
    _BUILDERS,
)


def _tiny_news(smoke: bool = True) -> Scenario:
    return Scenario(
        name="tiny-news",
        site="news",
        description="engine test: a short open burst on the news front",
        arrivals=Poisson(rate_rps=20.0, duration_s=1.2),
        surface=NEWS_SURFACE[:3],
        zipf_exponent=1.1,
        devices=DeviceMix((("phone", 0.7), ("tablet", 0.3))),
        churn=0.4,
        max_sessions=8,
        bot_fraction=0.25,
        seed=0x7E57_01,
    )


def _tiny_forum() -> Scenario:
    return Scenario(
        name="tiny-forum",
        site="forum",
        description="engine test: a short closed loop on the forum",
        arrivals=ClosedLoop(requests=8),
        surface=("proxy.php", "proxy.php?page=forums", "proxy.php?page=nav"),
        zipf_exponent=None,
        devices=DeviceMix((("phone", 1.0),)),
        churn=0.2,
        max_sessions=4,
        bot_fraction=0.0,
        seed=0x7E57_02,
        requests=8,
    )


def _tiny_churn() -> Scenario:
    return Scenario(
        name="tiny-churn",
        site="news",
        description="engine test: revisions under a short closed loop",
        arrivals=ClosedLoop(requests=12),
        surface=NEWS_FASTPATH_SURFACE,
        zipf_exponent=1.1,
        devices=DeviceMix((("phone", 1.0),)),
        churn=0.5,
        max_sessions=4,
        bot_fraction=0.0,
        seed=0x7E57_03,
        requests=12,
        mutate_fraction=0.34,
    )


def test_news_scenario_runs_clean_at_warm_cache():
    scenario = _tiny_news()
    report = run_scenario(scenario, workers=1, client_threads=4)
    assert report.scenario == "tiny-news"
    assert report.site == "news"
    assert report.workers == 1
    assert report.completed == report.requests == len(
        scenario.build_trace()
    )
    assert report.non_degraded_5xx == 0
    assert report.error_rate == 0.0
    assert set(report.statuses) == {200}
    assert 0.0 < report.p50_ms <= report.p99_ms
    assert report.throughput_rps > 0.0
    assert report.sim_duration_s > 0.0  # the pacer drove the sim clock
    assert report.fingerprint == scenario.fingerprint(1)


def test_forum_scenario_with_seed_override_and_two_workers():
    report = run_scenario(_tiny_forum(), workers=2, seed=99)
    assert report.seed == 99
    assert report.workers == 2
    assert report.completed == 8
    assert report.non_degraded_5xx == 0
    assert set(report.statuses) == {200}
    assert report.sim_duration_s == 0.0  # closed loop: no schedule


def test_churn_scenario_revises_the_origin_and_stays_clean():
    scenario = _tiny_churn()
    trace = scenario.build_trace()
    planned_mutations = sum(1 for planned in trace if planned.mutate)
    assert planned_mutations > 0
    report = run_scenario(scenario, workers=1, client_threads=2)
    assert report.completed == len(trace)
    assert report.non_degraded_5xx == 0
    assert set(report.statuses) == {200}


def test_churn_scenarios_get_the_storable_news_spec():
    # Live AJAX actions exclude a bundle from the cache, so a churn
    # scenario (whose whole point is re-adapting cached bundles) must
    # compile the fastpath variant of the news spec.
    churn_attributes = [
        binding.attribute
        for binding in build_scenario_spec(_tiny_churn()).bindings
    ]
    read_only_attributes = [
        binding.attribute
        for binding in build_scenario_spec(_tiny_news()).bindings
    ]
    assert "ajax_rewrite" not in churn_attributes
    assert "ajax_rewrite" in read_only_attributes


def test_scenario_mutator_wiring():
    from dataclasses import replace

    from repro.sites.news.spec import NEWS_HOST

    scenario = _tiny_churn()
    origins = build_scenario_origins(scenario)
    mutator = build_scenario_mutator(scenario, origins)
    newsroom = origins[NEWS_HOST].newsroom
    assert newsroom.revision_count == 0
    mutator()
    assert newsroom.revision_count == 1
    # Read-only scenarios have no mutator at all.
    assert build_scenario_mutator(_tiny_forum(), {}) is None
    # A churn fraction on a site without an origin mutator is a
    # configuration error, not a silent no-op.
    with pytest.raises(ValueError, match="no origin mutator"):
        build_scenario_mutator(
            replace(_tiny_forum(), mutate_fraction=0.5), {}
        )


def test_named_scenario_lookup_path(monkeypatch):
    monkeypatch.setitem(_BUILDERS, "tiny-news", _tiny_news)
    report = run_scenario("tiny-news", workers=1, client_threads=2)
    assert report.scenario == "tiny-news"
    assert report.non_degraded_5xx == 0


def test_spec_and_origin_builders_reject_unknown_sites():
    stranger = Scenario(
        name="x",
        site="wiki",
        description="",
        arrivals=ClosedLoop(requests=1),
        surface=("proxy.php",),
        zipf_exponent=None,
        devices=DeviceMix((("phone", 1.0),)),
        churn=0.0,
        max_sessions=1,
        bot_fraction=0.0,
        seed=1,
    )
    with pytest.raises(ValueError):
        build_scenario_spec(stranger)
    with pytest.raises(ValueError):
        build_scenario_origins(stranger)


def test_spec_builders_cover_both_site_families():
    forum_spec = build_scenario_spec(_tiny_forum())
    assert any(b.attribute == "ajax_rewrite" for b in forum_spec.bindings)
    news_spec = build_scenario_spec(_tiny_news())
    assert any(b.attribute == "feed_window" for b in news_spec.bindings)
    assert set(build_scenario_origins(_tiny_forum()))
    assert set(build_scenario_origins(_tiny_news()))


def test_pacer_never_rewinds_the_clock():
    clock = Clock()
    pacer = _SimClockPacer(clock)
    pacer.advance_to(5.0)
    assert clock.now == 5.0
    pacer.advance_to(3.0)  # stale arrival: skip, don't rewind
    assert clock.now == 5.0
    pacer.advance_to(None)  # closed-loop arrival: no schedule
    assert clock.now == 5.0


def test_percentile_handles_empty_and_extremes():
    assert percentile([], 0.99) == 0.0
    assert percentile([4.0], 0.5) == 4.0
    samples = [float(n) for n in range(1, 101)]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)


def test_format_report_is_readable():
    report = run_scenario(_tiny_forum(), workers=1, client_threads=2)
    text = format_report(report)
    assert "tiny-forum" in text
    assert report.fingerprint in text
    assert "p99" in text
    assert "non-degraded 5xx" in text


def test_autoscaled_scenario_reports_its_scaling_story():
    """``autoscale=True`` starts the fleet at the floor, scales inside
    [min_workers, workers], and the report carries the story: peak and
    final sizes, decision counts, and the printed extras."""
    scenario = _tiny_news()
    report = run_scenario(
        scenario, workers=3, client_threads=4,
        autoscale=True, min_workers=1,
    )
    assert report.autoscaled
    assert report.workers == 3  # the configured ceiling, as reported
    assert 1 <= report.final_workers <= 3
    assert 1 <= report.peak_workers <= 3
    assert report.peak_workers >= report.final_workers or (
        report.scale_downs == 0
    )
    assert report.scale_ups >= 0 and report.scale_downs >= 0
    assert report.non_degraded_5xx == 0
    assert set(report.statuses) == {200}

    rendered = format_report(report)
    assert "peak workers" in rendered
    assert "scale actions" in rendered


def test_static_scenario_report_omits_the_autoscale_keys():
    report = run_scenario(_tiny_forum(), workers=1)
    assert not report.autoscaled
    rendered = format_report(report)
    assert "peak workers" not in rendered
    assert "scale actions" not in rendered
