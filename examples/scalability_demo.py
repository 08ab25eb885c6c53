"""The §4.6 scalability experiment (Figure 7), interactively.

Sweeps the percentage of requests that require a full browser instance
and reports satisfied requests per one-minute window on simulated
dual-core hardware — the paper's 224 → 29,038 curve — plus the ablation
the paper declined for security reasons: what a browser pool would buy.

Run:  python examples/scalability_demo.py
"""

from repro.bench.scalability import run_browser_percentage_sweep
from repro.workload.reporting import format_table


def main() -> None:
    print("Figure 7: throughput vs. %% of requests needing a browser\n")
    no_pool = run_browser_percentage_sweep(runs=3)
    pooled = run_browser_percentage_sweep(runs=3, use_pool=True)

    rows = []
    for bare, pool in zip(no_pool, pooled):
        rows.append(
            [
                f"{bare.browser_fraction:.0%}",
                f"{bare.mean_requests_per_minute:,.0f}",
                f"{pool.mean_requests_per_minute:,.0f}",
                f"{pool.pool_hit_rate:.0%}",
            ]
        )
    print(
        format_table(
            ["browser %", "req/min (paper's no-pool)", "req/min (pooled)",
             "pool hit rate"],
            rows,
        )
    )
    print("\npaper anchors: 100% -> 224 req/min, 0% -> 29,038 req/min")
    first, last = no_pool[0], no_pool[-1]
    print(
        f"measured:      100% -> {first.mean_requests_per_minute:,.0f}, "
        f"0% -> {last.mean_requests_per_minute:,.0f} "
        f"({last.mean_requests_per_minute / first.mean_requests_per_minute:,.0f}x)"
    )


if __name__ == "__main__":
    main()
