"""Ablation — snapshot fidelity vs BlackBerry wall-clock time.

The image-fidelity attribute trades visual quality for bytes (§3.3);
this ablation closes the loop by pricing each quality setting in
seconds-to-browsable on the paper's slowest device, locating the knee
the paper's 25-50 KB recommendation sits on.
"""

import pytest

from repro.bench.wallclock import snapshot_page_stats
from repro.browser.webkit import ServerBrowser
from repro.devices.profiles import BLACKBERRY_TOUR
from repro.devices.timing import estimate_load_time
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.render.image import encode_jpeg
from repro.workload.reporting import format_table

from conftest import FORUM_HOST


@pytest.fixture(scope="module")
def scaled_snapshot(forum_app):
    client = HttpClient({FORUM_HOST: forum_app})
    with ServerBrowser(client, jar=CookieJar(), viewport_width=1024) as browser:
        snapshot = browser.load(f"http://{FORUM_HOST}/index.php").snapshot
    return snapshot.image.scaled(0.28)


@pytest.fixture(scope="module")
def sweep(scaled_snapshot):
    points = []
    for quality in (90, 75, 50, 25, 10):
        encoded = encode_jpeg(scaled_snapshot, quality=quality)
        stats = snapshot_page_stats(encoded.size_bytes)
        load = estimate_load_time(
            BLACKBERRY_TOUR, stats, page_height=scaled_snapshot.height
        )
        points.append((quality, encoded.size_bytes, load.total_s))
    return points


def test_ablation_regenerates(sweep):
    rows = [
        [f"q{quality}", f"{size:,}", f"{seconds:.2f}"]
        for quality, size, seconds in sweep
    ]
    print("\n\nAblation: snapshot fidelity vs BlackBerry load time")
    print(format_table(["quality", "bytes", "BB Tour load (s)"], rows))


def test_load_time_monotone_in_quality(sweep):
    seconds = [s for __, __, s in sweep]
    assert seconds == sorted(seconds, reverse=True)


def test_paper_band_hits_the_knee(sweep):
    """Below ~50 KB, further fidelity cuts buy little: the 3G radio
    wakeup and RTTs dominate.  Above it, each quality step costs real
    seconds — the paper's 25-50 KB recommendation sits at the knee."""
    by_quality = {quality: (size, seconds) for quality, size, seconds in sweep}
    q90_size, q90_time = by_quality[90]
    q25_size, q25_time = by_quality[25]
    q10_size, q10_time = by_quality[10]
    # Dropping q90 -> q25 saves much more time than q25 -> q10.
    assert (q90_time - q25_time) > 3 * (q25_time - q10_time)
    assert 25_000 <= q25_size <= 50_000


def test_even_highest_quality_beats_full_page(sweep):
    __, __, q90_time = sweep[0]
    assert q90_time < 12  # vs ~24 s for the unadapted page
