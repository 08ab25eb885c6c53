"""Adaptation robustness as content changes.

§2: client-side tools "have trouble with dynamic page changes, as they
often use static XPaths"; m.Site's CSS3/id-anchored selectors keep
working as "the links on the forum listing page continually change
content" (§4.3).  We regenerate the community (new threads, new users,
new announcements) and assert the same generated proxy still adapts.
"""

import pytest

from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.sites.forum.app import ForumApplication
from repro.sites.forum.data import CommunityGenerator
from tests.conftest import FORUM_HOST


def standard_spec():
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("prerender")
    spec.add(
        "subpage", ObjectSelector.css("#loginform"), subpage_id="login"
    )
    spec.add(
        "subpage", ObjectSelector.css("#forumbits"), subpage_id="forums"
    )
    spec.add("ajax_subpage", ObjectSelector.css("#navlinks"),
             subpage_id="nav")
    return spec


@pytest.mark.parametrize("seed", [1, 777, 20260101])
def test_same_spec_survives_content_change(seed, clock):
    """A different community (different threads/users/stats) — same
    template structure — adapts with the unchanged spec."""
    forum = ForumApplication(CommunityGenerator(seed=seed).generate())
    services = ProxyServices(origins={FORUM_HOST: forum}, clock=clock)
    session = SessionManager(clock=clock).create()
    result = AdaptationPipeline(standard_spec(), services, session).run()
    assert len(result.subpages) == 3
    assert result.entry_html.count("<area") >= 2


def test_geometry_tracks_content_drift(clock):
    """Image-map regions move with the content: a community with longer
    descriptions pushes lower regions down, and the map follows."""
    results = {}
    for seed in (1, 99):
        forum = ForumApplication(CommunityGenerator(seed=seed).generate())
        services = ProxyServices(origins={FORUM_HOST: forum}, clock=clock)
        session = SessionManager(clock=clock).create()
        result = AdaptationPipeline(
            standard_spec(), services, session
        ).run()
        import re

        coords = re.findall(r'coords="(\d+),(\d+),(\d+),(\d+)"',
                            result.entry_html)
        results[seed] = coords
    assert results[1] and results[99]
    # Both maps are valid (non-degenerate regions)...
    for coords in results.values():
        for x1, y1, x2, y2 in coords:
            assert int(x2) > int(x1)
            assert int(y2) > int(y1)
    # ...and geometry is content-dependent, i.e. actually recomputed.
    assert results[1] != results[99]


def test_dock_selectors_survive_script_reordering(clock):
    """Identifying scripts by src (the dock's derived selectors) is
    robust to scripts moving around the head."""
    from repro.admin.dock import NonVisualDock
    from repro.core.identify import identify
    from repro.html.parser import parse_html

    original = parse_html(
        '<head><script src="a.js"></script><script src="b.js"></script>'
        "</head><body></body>"
    )
    dock = NonVisualDock(original)
    selector = [
        item.selector for item in dock.scripts() if "b.js" in item.label
    ][0]
    reordered = parse_html(
        '<head><script src="b.js"></script><meta name="x" content="y">'
        '<script src="a.js"></script></head><body></body>'
    )
    matches = identify(reordered, selector)
    assert len(matches) == 1
    assert matches[0].get("src") == "b.js"
