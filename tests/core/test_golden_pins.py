"""Byte pins of what one pipeline run leaves behind, per spec and per path.

``golden/pipeline_pins.json`` holds, for every conformance spec (plus
the news fast-path spec, the one whose revisions take the delta path)
and every way a request can be answered — cold run, a 200 landing on a
stored bundle, a 304 replay, ``?refresh=1``, a 304 whose bundle is
gone, a revision, and the three degraded rungs — the digests of the
entry body, of every file in the session directory, of the stored
bundle, the cache's key list and its hit / miss counts.  The test
regenerates the pins and compares: a refactor of the pipeline, the
gate or the render ladder must leave the file untouched.

Regenerate (only when a byte change is intended) with::

    PYTHONPATH=src:. python tests/core/test_golden_pins.py
"""

import hashlib
import json
import os

import pytest

from repro.core import fastpath
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.plan import TransformPlan
from repro.core.sessions import SessionManager
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.sim.clock import Clock
from repro.sites.classifieds.app import ClassifiedsApplication
from repro.sites.forum.app import ForumApplication
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import news_fastpath_spec

from tests.cluster.specs import SPEC_CASES
from tests.conftest import CLASSIFIEDS_HOST, FORUM_HOST, NEWS_HOST

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "pipeline_pins.json"
)

CASES = SPEC_CASES + [
    ("news_fastpath", lambda origins, clock: news_fastpath_spec()),
]

DEVICE = "phone"


class _Down(Application):
    def handle(self, request: Request) -> Response:
        return Response.text("origin down", status=500)


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _fresh_origins() -> dict:
    """Per-case origins: revisions must not leak into shared fixtures."""
    return {
        FORUM_HOST: ForumApplication(),
        CLASSIFIEDS_HOST: ClassifiedsApplication(),
        NEWS_HOST: NewsApplication(Newsroom(seed=0x601D)),
    }


def _walk(storage, directory: str, prefix: str = "") -> list:
    files = []
    for name in storage.listdir(directory):
        path = f"{directory}/{name}"
        if storage.is_dir(path):
            files.extend(_walk(storage, path, f"{prefix}{name}/"))
        else:
            stored = storage.read(path)
            files.append(
                [f"{prefix}{name}", stored.content_type, _sha(stored.data)]
            )
    return sorted(files)


class _Deployment:
    """One ``ProxyServices`` and the sessions adapted against it."""

    def __init__(self, spec, origins, **flags) -> None:
        self.spec = spec
        self.plan = TransformPlan.compile(spec)
        self.origins = dict(origins)
        self.healthy = self.origins[spec.origin_host]
        self.clock = Clock()
        self.services = ProxyServices(
            origins=self.origins, clock=self.clock, **flags
        )
        self.manager = SessionManager(self.services.storage, clock=self.clock)
        self.pointer_key = fastpath.latest_key(
            spec.site, spec.page_path, DEVICE, self.plan.fingerprint
        )

    def origin_down(self, down: bool) -> None:
        self.origins[self.spec.origin_host] = (
            _Down() if down else self.healthy
        )

    def stored_bundle_key(self):
        pointer = self.services.cache.peek(self.pointer_key)
        return None if pointer is None else pointer.data.decode("utf-8")

    def pin(self, **run_kwargs) -> dict:
        """Adapt for a new session and digest everything it left."""
        services = self.services
        session = self.manager.create()
        pipeline = AdaptationPipeline(
            self.spec, services, session, plan=self.plan
        )
        try:
            adapted = pipeline.run(device_class=DEVICE, **run_kwargs)
        except Exception as exc:  # the pin is that it raises, and what
            return {"raises": type(exc).__name__}
        bundle_key = self.stored_bundle_key()
        bundle = (
            services.cache.peek(bundle_key) if bundle_key is not None else None
        )
        stats = services.cache.stats
        return {
            "entry_sha256": _sha(adapted.entry_html),
            "etag": adapted.etag,
            "degraded": adapted.degraded,
            "fastpath_hit": adapted.fastpath_hit,
            "used_browser": adapted.used_browser,
            "snapshot_from_cache": adapted.snapshot_from_cache,
            "snapshot_bytes": adapted.snapshot_bytes,
            "origin_bytes": adapted.origin_bytes,
            "subpages": [
                [
                    artifact.subpage_id, artifact.content_type,
                    artifact.bytes_written, artifact.prerendered,
                    artifact.ajax,
                ]
                for artifact in adapted.subpages
            ],
            "notes_sha256": _sha("\n".join(adapted.notes)),
            "files": _walk(services.storage, session.directory),
            "bundle_sha256": None if bundle is None else _sha(bundle.data),
            "cache_keys": sorted(services.cache.keys()),
            "cache_counts": {
                name: getattr(stats, name)
                for name in ("hits", "misses")
            },
        }


def _open_render_breaker(services) -> None:
    breaker = services.resilience.render_breaker
    while breaker.state != "open":
        breaker.record_failure()


def capture_case(name: str, factory) -> dict:
    origins = _fresh_origins()
    spec = factory(origins, Clock())
    pins: dict = {}

    live = _Deployment(spec, origins)
    pins["cold"] = live.pin()
    # No validator record for this requester: the fetch is a 200, and it
    # lands on the bundle the cold run stored.
    live.services.cache.invalidate(
        fastpath.validator_key(
            spec.site, spec.page_path, live.plan.fingerprint, "anon"
        )
    )
    pins["second_session_200"] = live.pin()
    pins["returning_304"] = live.pin()
    pins["refresh"] = live.pin(force_refresh=True)
    bundle_key = live.stored_bundle_key()
    if bundle_key is not None:
        live.services.cache.invalidate(bundle_key)
        pins["bundle_gone_304"] = live.pin()
    if spec.origin_host == NEWS_HOST:
        origins[NEWS_HOST].newsroom.revise()
        pins["revision"] = live.pin()
        origins[NEWS_HOST].newsroom.revise()
        pins["second_revision"] = live.pin()
    live.origin_down(True)
    pins["stale_fastpath_rung"] = live.pin()

    plain = _Deployment(spec, origins, fastpath_enabled=False)
    pins["fastpath_off_cold"] = plain.pin()
    plain.origin_down(True)
    pins["stale_snapshot_rung"] = plain.pin()

    broken = _Deployment(spec, origins)
    _open_render_breaker(broken.services)
    pins["html_only_rung"] = broken.pin()
    return pins


def capture_all() -> dict:
    return {name: capture_case(name, factory) for name, factory in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "name,factory", CASES, ids=[name for name, _ in CASES]
)
def test_pipeline_leaves_the_pinned_bytes(name, factory, golden):
    captured = json.loads(json.dumps(capture_case(name, factory)))
    expected = golden[name]
    assert sorted(captured) == sorted(expected)
    for scenario, pins in captured.items():
        assert pins == expected[scenario], f"{name}: {scenario} moved"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(capture_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
