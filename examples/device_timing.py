"""Table 1 from first principles: device wall-clock comparison.

Builds the synthetic forum entry page (224,477 bytes of HTML + scripts +
CSS + images, like the paper's test site), censuses it as a client
browser would, and runs the device timing model for every Table 1 row
plus the §4.2 in-text iPod Touch measurements.

Run:  python examples/device_timing.py
"""

from repro.bench.wallclock import entry_page_stats, in_text_rows, table1_rows
from repro.workload.reporting import format_table


def main() -> None:
    stats = entry_page_stats()
    print(
        f"entry page census: {stats.total_bytes:,} bytes over "
        f"{stats.resource_count} requests "
        f"({stats.element_count} elements, "
        f"{stats.script_bytes:,} script bytes)\n"
    )
    rows = []
    for row in table1_rows(stats):
        rows.append(
            [
                row.label,
                f"{row.paper_seconds:.1f} s",
                f"{row.measured_seconds:.1f} s",
                f"{row.deviation:+.0%}",
            ]
        )
    print(format_table(["Table 1 row", "paper", "measured", "dev"], rows))

    print("\nin-text measurements (§4.2):")
    rows = []
    for row in in_text_rows(stats):
        rows.append(
            [
                row.label,
                f"{row.paper_seconds:.1f} s",
                f"{row.measured_seconds:.1f} s",
                f"{row.deviation:+.0%}",
            ]
        )
    print(format_table(["measurement", "paper", "measured", "dev"], rows))


if __name__ == "__main__":
    main()
