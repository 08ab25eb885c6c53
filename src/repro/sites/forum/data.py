"""Deterministic synthetic community generation.

Reproduces the scale of the paper's test site: "a busy online community
with nearly 66,000 members" running vBulletin, with about 30 forums on the
entry page, up to 1,200 users online at a time, and continuous new-thread
traffic (§4.1-4.2).

Members are generated lazily (a pure function of member id) so the 66k
population costs nothing to hold; forums, recent threads, and the online
list are materialized once per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import DeterministicRandom
from repro.sites.forum.models import (
    CalendarEvent,
    Category,
    Forum,
    Member,
    Post,
    SiteStatistics,
    Thread,
)
from repro.util.names import FIRST_NAMES, LAST_NAMES, USERNAMES
from repro.util.text import TextGenerator

MEMBER_COUNT = 65_949  # "nearly 66,000 members"
ONLINE_COUNT = 1_187  # "as many as 1200 users online at a time"
ONLINE_RECORD = 1_214
TODAY = 2_800  # days since site launch, the generator's "now"

_CATEGORY_TITLES = [
    "General Woodworking and Power Tools",
    "Hand Tools and Restoration",
    "Turning, Carving and Specialty",
    "Community and Marketplace",
]

_FORUM_TITLES = [
    "General Woodworking Discussion", "Project Showcase", "Power Tools",
    "Workshop Design and Dust Collection", "Finishing and Refinishing",
    "Wood and Lumber", "CNC and Digital Fabrication", "Shop Safety",
    "Jigs and Fixtures", "Sharpening Station",
    "Hand Tool Discussion", "Hand Planes", "Saws and Sawing",
    "Chisels and Carving Tools", "Tool Restoration Projects",
    "Workbenches and Holdfasts", "Layout and Measuring",
    "Woodturning Discussion", "Turned Projects Gallery", "Pen Turning",
    "Carving Discussion", "Scroll Sawing", "Musical Instruments",
    "Boat Building", "Timber Framing",
    "Introductions and Announcements", "Off-Topic Conversation",
    "Classifieds: For Sale", "Classifieds: Wanted", "Site Feedback",
]


@dataclass
class Community:
    """The fully generated community state for one seed."""

    seed: int
    categories: list[Category]
    forums_by_id: dict[int, Forum]
    threads_by_forum: dict[int, list[Thread]]
    threads_by_id: dict[int, Thread]
    online_member_ids: list[int]
    announcement: str
    statistics: SiteStatistics
    birthdays: list[Member]
    calendar_events: list[CalendarEvent]
    registered_accounts: dict[str, str] = field(default_factory=dict)
    #: Bumped by every attribute assignment (and :meth:`touch`), always
    #: *after* the change has landed: it keys the origin's ETag memo.
    revision: int = field(default=0, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name != "revision":
            object.__setattr__(
                self, "revision", self.__dict__.get("revision", 0) + 1
            )

    def touch(self) -> None:
        """Publish a nested edit (``forum.thread_count += 1``, a new
        calendar entry) that no attribute assignment announced."""
        object.__setattr__(self, "revision", self.revision + 1)

    def member(self, member_id: int) -> Member:
        """Deterministic member lookup by id (lazy population)."""
        return _make_member(self.seed, member_id)

    def forum(self, forum_id: int) -> Forum | None:
        return self.forums_by_id.get(forum_id)

    def thread(self, thread_id: int) -> Thread | None:
        return self.threads_by_id.get(thread_id)

    def thread_posts(self, thread: Thread, page_size: int = 10) -> list[Post]:
        """First page of posts for a thread (deterministic per thread)."""
        rng = DeterministicRandom(self.seed ^ (thread.thread_id * 7919))
        text = TextGenerator(self.seed ^ (thread.thread_id * 104729))
        count = min(page_size, thread.reply_count + 1)
        posts = []
        for index in range(count):
            author_id = (
                thread.author_id
                if index == 0
                else rng.randint(1, MEMBER_COUNT)
            )
            author = self.member(author_id)
            posts.append(
                Post(
                    post_id=thread.thread_id * 100 + index,
                    thread_id=thread.thread_id,
                    author_id=author_id,
                    author_name=author.username,
                    author_post_count=author.post_count,
                    day=thread.last_post_day - (count - index),
                    body=text.paragraph(rng.randint(2, 6)),
                )
            )
        return posts


def _make_member(seed: int, member_id: int) -> Member:
    rng = DeterministicRandom(seed ^ (member_id * 2_654_435_761))
    style = rng.randint(0, 2)
    if style == 0:
        username = rng.choice(USERNAMES)
        if member_id % 7 == 0:
            username += str(rng.randint(2, 99))
    elif style == 1:
        username = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    else:
        username = f"{rng.choice(FIRST_NAMES).lower()}{rng.randint(1950, 2005)}"
    joined = rng.randint(0, TODAY - 1)
    # Post counts follow the usual heavy-tailed forum distribution.
    draw = rng.uniform()
    if draw < 0.6:
        posts = rng.randint(0, 30)
    elif draw < 0.9:
        posts = rng.randint(30, 500)
    else:
        posts = rng.randint(500, 12_000)
    return Member(
        member_id=member_id,
        username=username,
        joined_day=joined,
        post_count=posts,
        birthday_month=rng.randint(1, 12),
        birthday_day=rng.randint(1, 28),
    )


class CommunityGenerator:
    """Builds a :class:`Community` deterministically from a seed."""

    def __init__(self, seed: int = 20120412) -> None:
        self.seed = seed

    def generate(self) -> Community:
        rng = DeterministicRandom(self.seed)
        text = TextGenerator(self.seed ^ 0xC0FFEE)
        categories: list[Category] = []
        forums_by_id: dict[int, Forum] = {}
        threads_by_forum: dict[int, list[Thread]] = {}
        threads_by_id: dict[int, Thread] = {}

        forum_id = 0
        thread_seq = 50_000
        total_threads = 0
        total_posts = 0
        titles = list(_FORUM_TITLES)
        per_category = (len(titles) + len(_CATEGORY_TITLES) - 1) // len(
            _CATEGORY_TITLES
        )
        for cat_index, cat_title in enumerate(_CATEGORY_TITLES):
            category = Category(category_id=cat_index + 1, title=cat_title)
            for __ in range(per_category):
                if not titles:
                    break
                forum_id += 1
                title = titles.pop(0)
                thread_count = rng.randint(400, 9_000)
                post_count = thread_count * rng.randint(6, 14)
                last_poster = _make_member(
                    self.seed, rng.randint(1, MEMBER_COUNT)
                )
                private = title.startswith("Classifieds")
                forum = Forum(
                    forum_id=forum_id,
                    category_id=category.category_id,
                    title=title,
                    description=text.description(),
                    thread_count=thread_count,
                    post_count=post_count,
                    last_thread_title=text.title(),
                    last_thread_id=thread_seq,
                    last_poster_name=last_poster.username,
                    last_post_day=TODAY - rng.randint(0, 2),
                    private=private,
                )
                category.forums.append(forum)
                forums_by_id[forum_id] = forum
                total_threads += thread_count
                total_posts += post_count

                threads = []
                for index in range(25):
                    thread_seq += 1
                    author_id = rng.randint(1, MEMBER_COUNT)
                    author = _make_member(self.seed, author_id)
                    poster = _make_member(
                        self.seed, rng.randint(1, MEMBER_COUNT)
                    )
                    thread = Thread(
                        thread_id=thread_seq,
                        forum_id=forum_id,
                        title=text.title(),
                        author_id=author_id,
                        author_name=author.username,
                        reply_count=rng.randint(0, 120),
                        view_count=rng.randint(20, 9_000),
                        last_post_day=TODAY - rng.randint(0, 30),
                        last_poster_name=poster.username,
                        sticky=index < 2 and rng.uniform() < 0.4,
                    )
                    threads.append(thread)
                    threads_by_id[thread.thread_id] = thread
                threads.sort(key=lambda t: (-int(t.sticky), -t.last_post_day))
                threads_by_forum[forum_id] = threads
            categories.append(category)

        online = sorted(
            {rng.randint(1, MEMBER_COUNT) for __ in range(ONLINE_COUNT * 2)}
        )[:ONLINE_COUNT]
        newest = _make_member(self.seed, MEMBER_COUNT)
        birthdays = [
            _make_member(self.seed, rng.randint(1, MEMBER_COUNT))
            for __ in range(8)
        ]
        events = [
            CalendarEvent(day=TODAY + offset, title=text.title(4))
            for offset in range(1, 5)
        ]
        accounts = {
            "woodfan": "hunter2",
            "admin": "codegen!",
            "SawdustSteve": "mortise42",
        }
        return Community(
            seed=self.seed,
            categories=categories,
            forums_by_id=forums_by_id,
            threads_by_forum=threads_by_forum,
            threads_by_id=threads_by_id,
            online_member_ids=list(online),
            announcement=(
                "Welcome to our annual shop-made tool contest! Entries "
                "close at the end of the month; see the announcements "
                "forum for rules and prizes."
            ),
            statistics=SiteStatistics(
                member_count=MEMBER_COUNT,
                thread_count=total_threads,
                post_count=total_posts,
                newest_member=newest.username,
                online_count=ONLINE_COUNT,
                online_record=ONLINE_RECORD,
            ),
            birthdays=birthdays,
            calendar_events=events,
            registered_accounts=accounts,
        )
