"""Figure 5 — the login form subpage "rendered as a result of applying
page-splitting, image replacement, and css injection attributes" (§4.3).

Regenerates the subpage HTML and asserts each of the three attributes
visibly took effect; writes the artifact to benchmarks/artifacts/.
"""

import pytest

from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector

from conftest import FORUM_HOST


def login_spec():
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("prerender")
    # Page splitting: the login form into its own subpage.
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in - Sawmill Creek",
    )
    # CSS injection: stylesheet + logo box copied under the head tag.
    spec.add(
        "copy_dependency",
        ObjectSelector.css('link[rel="stylesheet"]'), into="login",
    )
    spec.add(
        "copy_dependency", ObjectSelector.css("#logobar"), into="login"
    )
    # Image replacement: mobile-specific logo source.
    spec.add(
        "replace_attribute",
        ObjectSelector.css('img[src="/images/sawmill_logo.gif"]'),
        name="src", value="/images/mobile_logo.gif",
    )
    return spec


@pytest.fixture(scope="module")
def adapted(forum_app, classifieds_app):
    origins = {FORUM_HOST: forum_app}
    services = ProxyServices(origins=origins)
    session = SessionManager().create()
    result = AdaptationPipeline(login_spec(), services, session).run()
    html = result.files["login.html"].data.decode("utf-8")
    return result, html


def test_fig5_regenerates(adapted, artifact_dir):
    result, html = adapted
    path = f"{artifact_dir}/fig5_login_subpage.html"
    with open(path, "w") as handle:
        handle.write(html)
    print(f"\n\nFigure 5 artifact: {path} ({len(html)} bytes)")
    login_artifact = [s for s in result.subpages if s.subpage_id == "login"][0]
    print(f"  subpage bytes: {login_artifact.bytes_written}")


def test_fig5_page_splitting(adapted):
    __, html = adapted
    assert "loginform" in html
    assert "vb_login_username" in html
    assert "vb_login_password" in html
    # The subpage stands alone: full document with its own title.
    assert "<title>Log in - Sawmill Creek</title>" in html


def test_fig5_css_injection(adapted):
    __, html = adapted
    # The stylesheet dependency was inserted under the head tag.
    head = html.split("</head>")[0]
    assert "vbulletin_stylesheet.css" in head


def test_fig5_image_replacement(adapted):
    __, html = adapted
    assert "mobile_logo.gif" in html
    assert "sawmill_logo.gif" not in html


def test_fig5_entry_links_to_subpage(adapted):
    result, __ = adapted
    assert "proxy.php?page=login" in result.entry_html


def test_fig5_subpage_is_small(adapted):
    """The point of splitting: the login page ships a fraction of the
    224 KB entry page."""
    __, html = adapted
    assert len(html.encode("utf-8")) < 10_000


def test_bench_adaptation_pipeline(benchmark, forum_app):
    origins = {FORUM_HOST: forum_app}

    def run():
        services = ProxyServices(origins=origins)
        session = SessionManager().create()
        return AdaptationPipeline(login_spec(), services, session).run()

    result = benchmark.pedantic(run, iterations=1, rounds=2)
    assert result.subpages
