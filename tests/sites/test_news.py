"""The news origin: newsroom data, routes, feed windowing, specs."""

import pytest

from repro.sites.news.data import (
    ARTICLES_PER_SECTION,
    FEED_BATCH,
    SECTIONS,
    Newsroom,
)
from repro.sites.news.spec import (
    FEED_WINDOW_ITEMS,
    HEADLINES_PER_PAGE,
    headline_page_ids,
    news_fastpath_spec,
    news_section_spec,
)
from tests.conftest import NEWS_HOST


def _url(path: str) -> str:
    return f"http://{NEWS_HOST}{path}"


# -- newsroom data ---------------------------------------------------------


class TestNewsroom:
    def test_every_section_is_fully_staffed(self):
        room = Newsroom()
        for code, _label in SECTIONS:
            stories = room.section_articles(code)
            assert len(stories) == ARTICLES_PER_SECTION
            assert all(a.section == code for a in stories)
            days = [a.published_day for a in stories]
            assert days == sorted(days, reverse=True)  # newest first

    def test_ids_are_globally_unique_and_resolvable(self):
        room = Newsroom()
        seen = set()
        for code, _label in SECTIONS:
            for article in room.section_articles(code):
                assert article.article_id not in seen
                seen.add(article.article_id)
                assert room.article(article.article_id) is article
                assert article.path == f"/article/{article.article_id}.html"
        assert room.article(1) is None

    def test_unknown_section_is_empty(self):
        assert Newsroom().section_articles("gossip") == []

    def test_front_headlines_sample_each_section(self):
        room = Newsroom()
        front = room.front_headlines(per_section=3)
        assert len(front) == 3 * len(SECTIONS)
        assert [a.section for a in front[:3]] == ["metro"] * 3

    def test_feed_window_walks_the_section(self):
        room = Newsroom()
        collected = []
        offset = 0
        while offset is not None:
            window, offset = room.feed_window("tech", offset)
            collected.extend(window)
        assert [a.article_id for a in collected] == [
            a.article_id for a in room.section_articles("tech")
        ]

    def test_feed_window_edges(self):
        room = Newsroom()
        window, next_offset = room.feed_window("tech", -5)
        assert len(window) == FEED_BATCH  # negative offsets clamp to 0
        assert next_offset == FEED_BATCH
        window, next_offset = room.feed_window("tech", 10_000)
        assert window == [] and next_offset is None
        window, next_offset = room.feed_window("nope", 0)
        assert window == [] and next_offset is None

    def test_generation_is_a_pure_function_of_the_seed(self):
        first = Newsroom(seed=77)
        second = Newsroom(seed=77)
        other = Newsroom(seed=78)
        assert [a.title for a in first.section_articles("metro")] == [
            a.title for a in second.section_articles("metro")
        ]
        assert [a.title for a in first.section_articles("metro")] != [
            a.title for a in other.section_articles("metro")
        ]
        story = first.section_articles("sports")[0]
        assert story.title and story.summary and story.author
        assert 3 <= len(story.paragraphs) <= 6

    def test_revision_stream_is_a_pure_function_of_the_seed(self):
        ours = Newsroom(seed=55)
        theirs = Newsroom(seed=55)
        for _ in range(12):
            assert ours.revise() == theirs.revise()
        assert ours.revision_count == theirs.revision_count == 12
        assert ours.section_articles("tech") == (
            theirs.section_articles("tech")
        )
        # A diverging seed diverges the edit stream too.
        assert Newsroom(seed=56).revise() != Newsroom(seed=55).revise()

    def test_revisions_mix_teaser_summaries_with_deep_headlines(self):
        room = Newsroom(seed=9)
        for revision in range(1, 21):
            before = {
                a.article_id: a for a in room.section_articles("tech")
            }
            updated = room.revise()
            previous = before[updated.article_id]
            slot = [
                a.article_id for a in room.section_articles("tech")
            ].index(updated.article_id)
            if revision % 10 == 9:
                # Every tenth edit rewrites a headline deep in the
                # section — past the teaser feed, into the paginated
                # list (the delta fast path's full-replay case).
                assert slot >= FEED_BATCH
                assert updated.title != previous.title
                assert updated.summary == previous.summary
            else:
                # The common case: a summary rewrite inside the feed.
                assert slot < FEED_BATCH
                assert updated.summary != previous.summary
                assert updated.title == previous.title
            assert room.article(updated.article_id) is updated


# -- origin routes ---------------------------------------------------------


class _PausingStories(list):
    """A section's story list whose slot assignment stops at a barrier
    just before and just after it lands — the two instants a
    concurrent render can fall on either side of ``revise()``'s edit."""

    def __init__(self, stories, barrier):
        super().__init__(stories)
        self.barrier = barrier

    def __setitem__(self, slot, story):
        self._let_a_reader_look()
        super().__setitem__(slot, story)
        self._let_a_reader_look()

    def _let_a_reader_look(self):
        self.barrier.wait(timeout=10)  # reader may look...
        self.barrier.wait(timeout=10)  # ...reader has looked


class TestReviseOrdering:
    @pytest.mark.parametrize("instant", [0, 1], ids=[
        "before the edit lands", "after it, before the bump",
    ])
    def test_a_render_racing_an_edit_never_poisons_the_etag_memo(
        self, instant
    ):
        """``revise()`` mutates first and bumps the revision last, and
        the origin reads the revision before it renders — so a 304 can
        never vouch for bytes the page no longer has."""
        import threading

        from repro.net.client import HttpClient
        from repro.net.messages import Request
        from repro.sites.news.app import NewsApplication

        room = Newsroom()
        app = NewsApplication(room)
        barrier = threading.Barrier(2)
        room._by_section["tech"] = _PausingStories(
            room._by_section["tech"], barrier
        )

        def fetch(**headers):
            return HttpClient({NEWS_HOST: app}).send(
                Request.get(_url("/section/tech/"), **headers)
            )

        editor = threading.Thread(target=room.revise)
        editor.start()
        for at in (0, 1):
            barrier.wait(timeout=10)
            if at == instant:
                racing = fetch()
            barrier.wait(timeout=10)
        editor.join(timeout=10)
        assert not editor.is_alive() and room.revision_count == 1

        # Revalidate *first*: an unconditional fetch would re-render
        # and paper over a memo entry filed under the wrong revision.
        again = fetch(If_None_Match=racing.headers.get("ETag"))
        current = fetch()
        assert (racing.body == current.body) == bool(instant)
        assert (again.status == 304) == (racing.body == current.body)


class TestNewsApplication:
    def test_front_page_carries_the_headline_river(self, client, news_app):
        response = client.get(_url("/"))
        assert response.status == 200
        body = response.text_body
        assert "The Metro Herald" in body
        assert body.count('class="headline"') == 3 * len(SECTIONS)
        for code, label in SECTIONS:
            assert f'href="/section/{code}/"' in body
        assert client.get(_url("/index.php")).text_body == body
        assert news_app.hits >= 2

    def test_section_front_primes_the_feed(self, client):
        response = client.get(_url("/section/tech/"))
        assert response.status == 200
        body = response.text_body
        assert 'id="lead"' in body
        # The lead is excluded from the headline list.
        assert body.count('class="headline"') == ARTICLES_PER_SECTION - 1
        assert body.count('class="teaser"') == FEED_BATCH
        assert f'href="/feed.php?do=feed_tech&id={FEED_BATCH}"' in body
        assert 'id="sidebar"' in body
        assert "feedScroll" in body  # origin ships its scroll handler
        assert client.get(_url("/section/gossip/")).status == 404

    def test_article_page_and_error_paths(self, client, news_app):
        story = news_app.newsroom.section_articles("business")[2]
        response = client.get(_url(story.path))
        assert response.status == 200
        body = response.text_body
        assert story.title in body
        assert story.author in body
        for text in story.paragraphs:
            assert f"<p>{text}</p>" in body
        assert 'Related stories' in body
        assert f'id="h{story.article_id}"' not in body  # not self-related
        assert client.get(_url("/article/999999.html")).status == 404
        assert client.get(_url("/article/latest.html")).status == 404

    def test_feed_pages_through_then_ends(self, client, news_app):
        before = news_app.feed_fetches
        response = client.get(_url("/feed.php?do=feed_metro&id=8"))
        assert response.status == 200
        body = response.text_body
        assert body.count('class="teaser"') == FEED_BATCH
        assert 'href="/feed.php?do=feed_metro&id=16"' in body
        last = client.get(_url("/feed.php?do=feed_metro&id=16")).text_body
        assert last.count('class="teaser"') == ARTICLES_PER_SECTION - 16
        assert "feed-more" not in last  # final window: no more-link
        done = client.get(_url("/feed.php?do=feed_metro&id=18")).text_body
        assert 'class="feed-end"' in done
        assert news_app.feed_fetches == before + 3

    def test_feed_rejects_malformed_calls(self, client):
        assert client.get(_url("/feed.php?do=post&id=0")).status == 404
        assert client.get(_url("/feed.php?do=feed_gossip&id=0")).status == 404
        assert client.get(_url("/feed.php?do=feed_tech&id=soon")).status == 404

    def test_stylesheet_served_as_css(self, client):
        response = client.get(_url("/styles/news.css"))
        assert response.status == 200
        assert response.headers.get("Content-Type") == "text/css"
        assert b"#masthead" in response.body


# -- canonical specs -------------------------------------------------------


class TestNewsSpecs:
    def test_section_spec_shape(self):
        spec = news_section_spec()
        assert spec.origin_host == NEWS_HOST
        assert spec.page_path == "/section/tech/"
        attributes = [binding.attribute for binding in spec.bindings]
        assert "feed_window" in attributes
        assert "paginate" in attributes
        assert "ajax_rewrite" in attributes
        assert attributes.index("feed_window") < attributes.index(
            "paginate"
        )
        spec.validate()

    def test_fastpath_spec_drops_only_the_ajax_rewrite(self):
        fast = news_fastpath_spec()
        full = news_section_spec()
        fast_attrs = [binding.attribute for binding in fast.bindings]
        full_attrs = [binding.attribute for binding in full.bindings]
        assert "ajax_rewrite" not in fast_attrs
        assert full_attrs == fast_attrs + ["ajax_rewrite"]
        fast.validate()

    def test_headline_page_ids_cover_the_non_lead_stories(self):
        # 17 non-lead headlines at 6/page -> 3 pages, 2 of them minted.
        assert headline_page_ids() == ["headlines-p2", "headlines-p3"]
        assert headline_page_ids(per_page=HEADLINES_PER_PAGE, total=6) == []
        assert headline_page_ids(per_page=5, total=11) == [
            "headlines-p2", "headlines-p3"
        ]

    def test_section_parameter_threads_through(self):
        spec = news_section_spec(section="sports")
        assert spec.page_path == "/section/sports/"
        feed = next(
            binding
            for binding in spec.bindings
            if binding.attribute == "feed_window"
        )
        assert "feed_sports" in feed.param("more_template")
        assert feed.param("items") == FEED_WINDOW_ITEMS
