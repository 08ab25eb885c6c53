"""Deterministic synthetic newsroom generation.

The news family models the second class of site the paper's proxy would
face in the wild: a metro daily whose section fronts are long,
heavy-tailed article lists refreshed by an infinite-scroll AJAX feed
(the page-characteristics measurements in PAPERS.md show news fronts
carrying an order of magnitude more list items than a forum index).
All output is a pure function of the seed, so adapted bytes are
reproducible across runs, workers, and platforms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.sim.rng import DeterministicRandom
from repro.util.names import FIRST_NAMES, LAST_NAMES
from repro.util.text import TextGenerator

SECTIONS: list[tuple[str, str]] = [
    ("metro", "Metro"),
    ("business", "Business"),
    ("tech", "Technology"),
    ("sports", "Sports"),
]

ARTICLES_PER_SECTION = 18  # long enough to paginate and to window
FEED_BATCH = 8  # teasers returned per infinite-scroll fetch
TODAY = 1_460  # days since the paper's launch, the generator's "now"


@dataclass(frozen=True)
class Article:
    """One published story."""

    article_id: int
    section: str
    title: str
    author: str
    published_day: int
    summary: str
    paragraphs: tuple[str, ...]

    @property
    def path(self) -> str:
        return f"/article/{self.article_id}.html"


class Newsroom:
    """The fully generated newsroom state for one seed."""

    def __init__(
        self,
        seed: int = 0x4E4557,  # "NEW" in ASCII
        articles_per_section: int = ARTICLES_PER_SECTION,
    ) -> None:
        self.seed = seed
        self._revisions = 0
        self._revise_lock = threading.Lock()
        rng = DeterministicRandom(seed)
        text = TextGenerator(seed ^ 0x5EC7104)
        self._articles: dict[int, Article] = {}
        self._by_section: dict[str, list[Article]] = {}
        next_id = 1000
        for code, _label in SECTIONS:
            stories: list[Article] = []
            for rank in range(articles_per_section):
                author = (
                    f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
                )
                paragraphs = tuple(
                    text.paragraph(sentences=rng.randint(2, 4))
                    for _ in range(rng.randint(3, 6))
                )
                article = Article(
                    article_id=next_id,
                    section=code,
                    title=text.title(max_words=8),
                    author=author,
                    published_day=TODAY - rank,
                    summary=text.sentence(min_words=8, max_words=16),
                    paragraphs=paragraphs,
                )
                stories.append(article)
                self._articles[next_id] = article
                next_id += 1
            self._by_section[code] = stories

    # -- lookups -----------------------------------------------------------

    def article(self, article_id: int) -> Article | None:
        return self._articles.get(article_id)

    def section_articles(self, code: str) -> list[Article]:
        """All of one section's stories, newest first."""
        return list(self._by_section.get(code, []))

    def front_headlines(self, per_section: int = 3) -> list[Article]:
        """The front page's cross-section headline river."""
        headlines: list[Article] = []
        for code, _label in SECTIONS:
            headlines.extend(self._by_section[code][:per_section])
        return headlines

    # -- churn -------------------------------------------------------------

    @property
    def revision_count(self) -> int:
        return self._revisions

    def revise(self, section: str = "tech") -> Article:
        """Publish one deterministic newsroom edit and return it.

        The edit stream is a pure function of (seed, revision number),
        so two newsrooms built from the same seed see byte-identical
        section fronts after the same number of revisions — the
        property the content-churn workload and the delta bench lean
        on.  Most revisions touch a story *summary* (rendered only in
        the lead block and the teaser feed, the delta-patchable
        regions); every tenth rewrites a deep *headline*, whose title
        also renders inside the paginated list and therefore forces the
        re-adaptation to take the full-replay path — keeping the churn
        mix honest about both outcomes.
        """
        with self._revise_lock:
            revision = self._revisions + 1
            stories = self._by_section[section]
            text = TextGenerator((self.seed << 5) ^ (revision * 0x9E37))
            if revision % 10 == 9 and len(stories) > FEED_BATCH:
                slot = FEED_BATCH + revision % (len(stories) - FEED_BATCH)
                updated = replace(
                    stories[slot], title=text.title(max_words=8)
                )
            else:
                slot = revision % min(FEED_BATCH, len(stories))
                updated = replace(
                    stories[slot],
                    summary=text.sentence(min_words=8, max_words=16),
                )
            stories[slot] = updated
            self._articles[updated.article_id] = updated
            # Mutate first, bump last: a reader that sees revision N
            # must never be handed revision N-1 content under it (the
            # origin's ETag memo is keyed by this number).
            self._revisions = revision
            return updated

    def feed_window(
        self, code: str, offset: int, limit: int = FEED_BATCH
    ) -> tuple[list[Article], int | None]:
        """One infinite-scroll batch: (stories, next offset or None)."""
        stories = self._by_section.get(code, [])
        offset = max(0, offset)
        window = stories[offset : offset + limit]
        next_offset = offset + limit
        return window, next_offset if next_offset < len(stories) else None
