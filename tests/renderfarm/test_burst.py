"""A seconds-scale run of the open-loop burst bench.

Pins the acceptance shape of ``msite scalability --farm``: under one
seeded flash crowd with a ≥20% browser fraction, the inline-render seed
architecture sheds arrivals as bare 503s while the farm-backed
configuration serves every one of them with zero non-degraded 5xx.
"""

from dataclasses import replace

import pytest

from repro.bench.crowd import (
    BURST,
    BURST_SMOKE,
    format_comparison,
    run_crowd_comparison,
)


@pytest.fixture(scope="module")
def comparison():
    return run_crowd_comparison(BURST_SMOKE)


def test_farm_serves_zero_non_degraded_5xx_under_burst(comparison):
    farm = comparison.candidate
    assert farm.offered > 0
    assert farm.non_degraded_5xx == 0, (
        f"farm leaked errors under the burst:\n{format_comparison(comparison)}"
    )
    # Everything offered was answered: admitted 200s (fresh or degraded)
    # account for the full schedule.
    assert farm.completed_200 == farm.offered
    # The human-readable table renders both rows.
    text = format_comparison(comparison)
    assert "inline" in text and "farm" in text


def test_inline_renders_shed_the_same_burst(comparison):
    # Without this the burst is not a burst, and the farm's clean
    # record above proves nothing.
    inline = comparison.baseline
    assert inline.offered == comparison.candidate.offered
    assert inline.non_degraded_5xx > 0, (
        f"the inline side absorbed the crowd:\n{format_comparison(comparison)}"
    )


def test_burst_config_rejects_sub_threshold_browser_fraction():
    with pytest.raises(ValueError):
        run_crowd_comparison(replace(BURST, browser_fraction=0.1))
