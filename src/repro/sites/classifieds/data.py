"""Synthetic classified listings.

"Craigslist users browse pages of classified listings organized by
category and sorted by date; clicking on a link brings the user to a new
page with the contents of the selected ad." (§4.5)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.rng import DeterministicRandom
from repro.util.text import TextGenerator

CATEGORIES = [
    ("tls", "tools"),
    ("fuo", "furniture - by owner"),
    ("mat", "materials"),
    ("grd", "farm+garden"),
    ("app", "appliances"),
]

_LOCATIONS = [
    "downtown", "east side", "west end", "north county", "river district",
    "old town", "harbor", "midtown", "airport", "university",
]


@dataclass(frozen=True)
class Listing:
    """One classified ad."""

    listing_id: int
    category: str
    title: str
    price: int
    location: str
    posted_day: int
    body: str

    @property
    def path(self) -> str:
        return f"/{self.category}/{self.listing_id}.html"


class ListingGenerator:
    """Deterministic listing inventory per category."""

    def __init__(self, seed: int = 776) -> None:
        self.seed = seed
        #: Bumped by :meth:`edit`, after the edit has landed: it keys
        #: the origin's ETag memo.
        self.revision = 0
        self._by_category: dict[str, list[Listing]] = {}
        self._by_id: dict[int, Listing] = {}
        self._generate()

    def _generate(self) -> None:
        rng = DeterministicRandom(self.seed)
        text = TextGenerator(self.seed ^ 0xAD5)
        listing_id = 29_000_000
        for code, __ in CATEGORIES:
            listings = []
            for __ in range(100):
                listing_id += rng.randint(11, 999)
                listing = Listing(
                    listing_id=listing_id,
                    category=code,
                    title=text.title(6),
                    price=rng.randint(5, 2400),
                    location=rng.choice(_LOCATIONS),
                    posted_day=3000 - rng.randint(0, 13),
                    body=text.paragraph(rng.randint(2, 7)),
                )
                listings.append(listing)
            listings.sort(key=lambda item: -item.posted_day)
            self._by_category[code] = listings
            for listing in listings:
                self._by_id[listing.listing_id] = listing

    def category(self, code: str) -> list[Listing]:
        return self._by_category.get(code, [])

    def listing(self, listing_id: int) -> Listing | None:
        return self._by_id.get(listing_id)

    def edit(self, listing_id: int, **changes) -> Listing:
        """Replace fields of one ad (its id and category stay)."""
        updated = replace(self._by_id[listing_id], **changes)
        listings = self._by_category[updated.category]
        slot = next(
            index for index, listing in enumerate(listings)
            if listing.listing_id == listing_id
        )
        listings[slot] = updated
        self._by_id[listing_id] = updated
        self.revision += 1
        return updated
