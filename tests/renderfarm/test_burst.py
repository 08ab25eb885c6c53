"""A seconds-scale run of the open-loop burst bench.

Pins the acceptance shape of ``msite scalability --farm``: under a
flash crowd with a ≥20% browser fraction the farm-backed configuration
serves zero non-degraded 5xx, and the bench record round-trips through
the shared BENCH store.
"""

import json

from repro.bench.burst import (
    BurstConfig,
    format_comparison,
    run_burst_comparison,
)


def _tiny_config() -> BurstConfig:
    return BurstConfig(
        browser_fraction=0.3,
        base_rps=30.0,
        peak_rps=200.0,
        ramp_s=0.3,
        hold_s=0.5,
        duration_s=1.2,
        browser_service_s=0.03,
        distinct_pages=16,
    )


def test_farm_serves_zero_non_degraded_5xx_under_burst(tmp_path):
    comparison = run_burst_comparison(_tiny_config())
    farm = comparison.candidate
    assert farm.offered > 0
    assert farm.non_degraded_5xx == 0, (
        f"farm leaked errors under the burst: {farm}"
    )
    # Everything offered was answered: admitted 200s (fresh or degraded)
    # account for the full schedule.
    assert farm.completed_200 == farm.offered
    # The record merges into the shared BENCH store without clobbering.
    from repro.bench.store import merge_report

    path = tmp_path / "BENCH_pipeline.json"
    merge_report(str(path), {"other": {"kept": True}})
    merge_report(str(path), comparison.bench_record())
    stored = json.loads(path.read_text())
    assert stored["other"] == {"kept": True}
    burst = stored["renderfarm_burst"]
    assert burst["farm"]["non_degraded_5xx"] == 0
    assert burst["config"]["browser_fraction"] >= 0.2
    # The human-readable table renders both rows.
    text = format_comparison(comparison)
    assert "inline" in text and "farm" in text


def test_burst_config_rejects_sub_threshold_browser_fraction():
    import pytest

    with pytest.raises(ValueError):
        run_burst_comparison(BurstConfig(browser_fraction=0.1))
