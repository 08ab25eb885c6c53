"""Service-time model for proxy-host work.

Calibration anchors, from the paper's Figure 7 measurement on commodity
dual-core hardware (Windows Vista, Qt, WebKit, no thread pool):

* 100% of requests needing a full browser instance → 224 satisfied
  requests per one-minute window, so each browser render occupies a core
  for 2 cores x 60 s / 224 ≈ 536 ms (instance launch + page render).
* 0% needing a browser → 29,038 requests/minute, so the lightweight
  PHP-proxy path costs 2 x 60 / 29,038 ≈ 4.13 ms per request.

Table 1's "snapshot page generation: 2 sec" anchors the full snapshot
pipeline (origin fetch + browser render + image post-processing + subpage
emission), which the pipeline model composes from the parts below.

These are the paper's costs, charged by the discrete-event benches; the
render this tree really executes is measured by ``perfbench``.  For the
1024 x 5317 forum index, ``ServerBrowser.load`` is ~0.35 s of CPU and
``produce_snapshot`` ~0.06 s standalone -- inside the 536 ms + 250 ms
(``image_encode_s``) anchors (docs/PERFORMANCE.md, "The render path").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BrowserCostModel:
    """Seconds of core time for each kind of proxy-host work."""

    # Heavyweight path: a fresh browser instance per request (no pool).
    browser_launch_s: float = 0.350
    browser_render_s: float = 0.186

    # Lightweight path: the generated php-analog proxy doing source
    # filters, DOM work, and session management.
    lightweight_request_s: float = 0.00413

    # Pipeline extras for full snapshot generation (Table 1 row 2).
    origin_fetch_s: float = 0.400
    subresource_fetch_s: float = 0.012  # per image/css/script fetched
    image_encode_s: float = 0.250
    subpage_emit_s: float = 0.080  # per generated subpage

    # Browser memory footprint drives the no-pool concurrency ceiling.
    browser_memory_mb: float = 190.0
    host_memory_mb: float = 2048.0

    @property
    def browser_request_s(self) -> float:
        """Core seconds for one request on the heavyweight path."""
        return self.browser_launch_s + self.browser_render_s

    @property
    def max_concurrent_browsers(self) -> int:
        """Instances that fit in host memory (the Highlight-style limit)."""
        return max(1, int(self.host_memory_mb / self.browser_memory_mb))

    def snapshot_pipeline_s(
        self, subresources: int = 40, subpages: int = 5
    ) -> float:
        """Wall-clock to produce a fresh snapshot + subpages for one page."""
        return (
            self.origin_fetch_s
            + subresources * self.subresource_fetch_s
            + self.browser_request_s
            + self.image_encode_s
            + subpages * self.subpage_emit_s
        )


DEFAULT_COST_MODEL = BrowserCostModel()
