"""Table 1 — wall-clock time from initial request to browsable page.

Paper rows:

    BlackBerry Tour browser page load      20 sec.
    Snapshot page generation                2 sec.
    Cached snapshot page to Blackberry      5 sec.
    iPhone 4 via 3G                        20 sec.
    iPhone 4 via WiFi                     4.5 sec.
    Desktop browser page load             1.5 sec.
"""

import pytest

from repro.bench.wallclock import entry_page_stats, in_text_rows, table1_rows
from repro.workload.reporting import format_table


@pytest.fixture(scope="module")
def stats(forum_app):
    return entry_page_stats(forum_app)


def test_table1_regenerates(stats):
    rows = table1_rows(stats)
    print("\n\nTable 1: wall-clock time, initial request → browsable page")
    print(
        format_table(
            ["Device", "paper (s)", "measured (s)", "dev"],
            [
                [
                    row.label,
                    f"{row.paper_seconds:.1f}",
                    f"{row.measured_seconds:.2f}",
                    f"{row.deviation:+.0%}",
                ]
                for row in rows
            ],
        )
    )
    for row in rows:
        assert abs(row.deviation) < 0.25, row.label
    # The winners and losers line up with the paper.
    measured = {row.label: row.measured_seconds for row in rows}
    assert measured["Desktop browser page load"] == min(measured.values())
    assert measured["BlackBerry Tour browser page load"] == max(
        measured.values()
    )


def test_in_text_ipod_measurements(stats):
    rows = in_text_rows(stats)
    print("\n\n§4.2 in-text: iPod Touch (3rd gen, 600 MHz)")
    for row in rows:
        print(
            f"  {row.label:<36s} paper {row.paper_seconds:4.1f} s   "
            f"measured {row.measured_seconds:4.1f} s"
        )
    wifi, cellular = rows
    assert abs(wifi.deviation) < 0.2
    assert abs(cellular.deviation) < 0.2


def test_bench_model_evaluation_speed(benchmark, stats):
    """The timing model itself is cheap enough to sweep."""
    result = benchmark(lambda: table1_rows(stats))
    assert len(result) == 6
