"""Print where one server-side render of a real page spends its time.

Usage:  PYTHONPATH=src python tools/render_profile.py [--runs 9] [--cold]

Renders the forum index and the news front page, each fetched from its
synthetic origin, the way a snapshot is made: ``render_snapshot`` (the
cascade, layout, paint and anti-alias) and then ``produce_snapshot``
(the 0.28 downscale and the quality-25 JPEG).  While the two calls run,
the functions they reach are timed in place and added up by stage:

* cascade + layout: ``collect_stylesheets``, ``LayoutEngine.layout``
  (which computes the styles it reads) and ``build_display_list``;
* paint, split by ``Canvas`` method: fills (the canvas's background,
  ``fill_rect`` and ``fill_gradient``), strokes (``stroke_rect``), text
  (``draw_runs``, which stamps each batch of runs) and placeholders
  (``draw_photo_placeholder``, its frame stroke included);
* anti-alias (``RasterImage.smoothed``), downscale
  (``RasterImage.scaled``) and encode (``encode_jpeg``).

A call made inside another timed call counts once, for the outer one.
The whole is the two calls' wall time in the same run, so what the
stages leave out is what the sum falls short by.  One untimed render per
page comes first, so the text tables and the placeholder memo are as
warm as in a proxy that has rendered the page before.  With ``--cold``
the placeholder memo, the advance tables and the glyph offset tables are
emptied before every render, as in a process that has not rendered this
page yet; a repeat within the page still hits.  For each stage
it prints the median and quartiles over the runs in milliseconds, the
sum of the stages beside the whole, and the SHA-256 of the full-size
frame and of the JPEG the render produced.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import statistics
import time
from dataclasses import dataclass, field

from repro.browser.webkit import ServerBrowser
from repro.core import prerender
from repro.html.parser import parse_html
from repro.net.client import HttpClient
from repro.net.url import URL
from repro.render import fonts, raster
from repro.render import snapshot as snapshot_module
from repro.render.image import RasterImage
from repro.render.layout import LayoutEngine
from repro.render.raster import Canvas
from repro.sites.forum.app import ForumApplication
from repro.sites.news.app import NewsApplication

VIEWPORT_WIDTH = 1024
SCALE = 0.28
QUALITY = 25

#: (name, origin host, application class, page URL)
PAGES = (
    ("forum index", "www.sawmillcreek.org", ForumApplication,
     "http://www.sawmillcreek.org/index.php"),
    ("news front", "www.metroherald.com", NewsApplication,
     "http://www.metroherald.com/"),
)

#: (owner, attribute, stage): what is timed, and where it is added.
TIMED = (
    (snapshot_module, "collect_stylesheets", "cascade + layout"),
    (LayoutEngine, "layout", "cascade + layout"),
    (snapshot_module, "build_display_list", "cascade + layout"),
    (Canvas, "__init__", "fills"),
    (Canvas, "fill_rect", "fills"),
    (Canvas, "fill_gradient", "fills"),
    (Canvas, "stroke_rect", "strokes"),
    (Canvas, "draw_runs", "text"),
    (Canvas, "draw_photo_placeholder", "placeholders"),
    (RasterImage, "smoothed", "anti-alias"),
    (RasterImage, "scaled", "downscale"),
    (prerender, "encode_jpeg", "encode"),
)
STAGES = tuple(dict.fromkeys(stage for _, _, stage in TIMED))
WHOLE = "whole"


def timed_name(owner, attribute: str) -> str:
    """The label a ``TIMED`` function's calls are counted under."""
    return f"{owner.__name__}.{attribute}"


TIMED_NAMES = tuple(timed_name(owner, name) for owner, name, _ in TIMED)


@contextlib.contextmanager
def timed_stages(times: dict[str, float], calls: collections.Counter):
    """Inside the block, every ``TIMED`` function counts its calls in
    ``calls`` and adds its wall time to ``times[stage]``, unless it was
    called by another one."""
    running = []

    def timer(function, stage, label):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            calls[label] += 1
            if running:
                return function(*args, **kwargs)
            running.append(stage)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                times[stage] += time.perf_counter() - started
                running.pop()

        return timed

    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in TIMED]
    try:
        for (owner, name, function), (_, _, stage) in zip(originals, TIMED):
            setattr(owner, name, timer(function, stage, timed_name(owner, name)))
        yield times
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)


@dataclass
class PageProfile:
    """Seconds per stage for every run of one page, and its digests."""

    name: str
    shape: tuple[int, ...]
    frame_sha256: str
    jpeg_sha256: str
    jpeg_bytes: int
    runs: dict[str, list[float]] = field(
        default_factory=lambda: {stage: [] for stage in (*STAGES, WHOLE)}
    )
    #: Calls of each ``TIMED`` function over all the timed runs.
    calls: collections.Counter = field(default_factory=collections.Counter)

    def stage_sum(self) -> list[float]:
        """Per run, the stages added up."""
        return [
            sum(self.runs[stage][index] for stage in STAGES)
            for index in range(len(self.runs[WHOLE]))
        ]


def fetch(host: str, app_class, url: str) -> tuple[str, dict[str, str]]:
    """The page's HTML and its linked stylesheets by href, fetched as
    ``ServerBrowser.load`` fetches them for ``render_snapshot``."""
    client = HttpClient({host: app_class()})
    html = client.get(url).text_body
    external, _ = ServerBrowser(client).fetch_stylesheets(
        parse_html(html), URL.parse(url)
    )
    return html, external


def forget_memos() -> None:
    """Empty the placeholder memo and both text tables."""
    for memo in (raster._NOISE_PATCHES, raster._GLYPH_TABLES, fonts._ADVANCES):
        memo.clear()


def render(html: str, external: dict[str, str], cold: bool = False):
    """``(seconds, snapshot, artifact)`` for one render of the page;
    ``cold`` empties the memos first, outside the timing."""
    document = parse_html(html)
    if cold:
        forget_memos()
    started = time.perf_counter()
    snapshot = snapshot_module.render_snapshot(
        document, viewport_width=VIEWPORT_WIDTH, external_css=external
    )
    artifact = prerender.produce_snapshot(snapshot, scale=SCALE, quality=QUALITY)
    return time.perf_counter() - started, snapshot, artifact


def profile_page(
    name: str, host: str, app_class, url: str, runs: int, cold: bool = False
) -> PageProfile:
    html, external = fetch(host, app_class, url)
    _, snapshot, artifact = render(html, external, cold)
    pixels = snapshot.image.pixels
    profile = PageProfile(
        name=name,
        shape=pixels.shape,
        frame_sha256=hashlib.sha256(pixels.tobytes()).hexdigest(),
        jpeg_sha256=hashlib.sha256(artifact.encoded.data).hexdigest(),
        jpeg_bytes=artifact.encoded.size_bytes,
    )
    for _ in range(runs):
        with timed_stages(dict.fromkeys(STAGES, 0.0), profile.calls) as times:
            whole, _, _ = render(html, external, cold)
        profile.runs[WHOLE].append(whole)
        for stage, seconds in times.items():
            profile.runs[stage].append(seconds)
    return profile


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def format_profile(profile: PageProfile) -> str:
    height, width = profile.shape[:2]
    lines = [
        f"{profile.name} ({width} x {height}), {len(profile.runs[WHOLE])} runs,"
        " ms: median [q1, q3]",
    ]
    rows = [(stage, profile.runs[stage]) for stage in STAGES]
    rows += [("sum of stages", profile.stage_sum()), (WHOLE, profile.runs[WHOLE])]
    for label, seconds in rows:
        q1, median, q3 = quartiles([1000 * value for value in seconds])
        lines.append(f"  {label:<18} {median:8.1f}  [{q1:.1f}, {q3:.1f}]")
    lines.append(f"  frame sha256  {profile.frame_sha256}")
    lines.append(
        f"  jpeg sha256   {profile.jpeg_sha256} ({profile.jpeg_bytes:,} bytes)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs", type=int, default=9, help="timed runs per page (default 9)"
    )
    parser.add_argument(
        "--cold", action="store_true",
        help="empty the placeholder memo and the text tables before every render",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for index, page in enumerate(PAGES):
        if index:
            print()
        profile = profile_page(*page, runs=args.runs, cold=args.cold)
        print(format_profile(profile))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
