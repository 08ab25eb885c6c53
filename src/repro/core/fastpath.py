"""The fast path: a content-addressed cache of whole adapted responses.

The paper's throughput headroom (Figure 7: 224 → 29,038 req/min) comes
from how much per-request work the proxy can avoid.  After PR 1-3 the
renderer is pooled, cached, and breakered — but every request still pays
parse → attributes → serialize.  This module provides the primitives for
skipping all of it: once a page has been adapted, the complete response
bundle (entry HTML plus every session artifact the run wrote) is stored
in the shared pre-render cache, keyed by

``fastpath:<site>:<path>:<device class>:<spec fp>:<content fp>``

* **content fingerprint** — a digest of the *fetched origin source*, so
  a changed page misses naturally.  Per-session origin differences
  (login state rendered into the page) produce different digests, so
  sessions can never be served each other's personalized bundles.
* **device class** — phone/tablet/desktop/default from UA detection;
  device-targeted variants never collide.
* **spec fingerprint** — from the compiled transform plan; editing the
  spec (or redeploying under a new proxy base) invalidates everything.

The proxy still asks the origin on every request, but **conditional
first**.  Beside every stored bundle sits a validator record,

``fastpath-validator:<site>:<path>:<spec fp>:<requester identity>``

holding the origin's strong ``ETag`` and the content fingerprint of the
body it came with (same TTL as the bundle).  A non-forced request that
finds a record sends ``If-None-Match``; a body-less 304 takes the
content fingerprint from the record and replays the bundle with no
body, no :func:`normalize_origin` and no SHA-256.  The fingerprint is
only computed on a 200: no record yet, an origin without ``ETag``,
``?refresh=1``, a changed page — and those proceed exactly as before
(lookup, delta, full run).  The requester identity is a digest of what
the session sends upstream (its ``Cookie`` header for the origin URL
and any HTTP-basic credentials; ``anon`` when there is neither), so a
record can never vouch across login states even for an origin whose
ETag ignores the user.  A 304 is the origin's word, so it is sampled:
every ``REVALIDATION_AUDIT_EVERY``-th revalidation per host goes out
unconditional, and a body that changed under an unchanged ETag demotes
the host to unconditional fetches (:mod:`repro.resilience.policy`).

A companion ``fastpath-latest`` pointer entry records the most recent
content key per (site, path, device, spec).  It is the stale-serve hook:
when the origin is down there is no source to fingerprint, and the
pointer lets the degradation ladder find the last good bundle without
knowing its content hash.

The ETag served to clients is derived from the same three components,
which makes If-None-Match revalidation exact: a 304 means the origin
bytes, the device class, and the spec are all unchanged.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.core.cache import PrerenderCache
from repro.net.conditional import etag_matches  # noqa: F401  (re-export)

#: Bump when the bundle layout changes; old entries miss instead of
#: deserializing wrongly.
BUNDLE_VERSION = 1

_BUNDLE_CONTENT_TYPE = "application/x-msite-fastpath+json"

#: Whitespace runs between two tags that contain at least one newline —
#: template indentation, in other words.  Runs *without* a newline are
#: left alone: a single space between two inline tags can be
#: significant, but a line break plus indentation never is.
_INTER_TAG_WS = re.compile(r"(?<=>)[ \t\r\f\v]*\n[ \t\r\f\v\n]*(?=<)")


def normalize_origin(source: str) -> str:
    """Collapse insignificant inter-tag whitespace in origin HTML.

    Origin templates churn cosmetically — a reindented block, a
    trailing newline — without the rendered content changing.  Each
    inter-tag whitespace run containing a newline collapses to a single
    ``"\\n"`` so those renders share one :func:`content_fingerprint`
    and keep hitting the same fastpath bundle.  Applied to the fetched
    source *before* fingerprinting and adaptation, so the bundle's
    entry HTML matches what a full run over the normalized source
    produces.
    """
    return _INTER_TAG_WS.sub("\n", source)


def content_fingerprint(source: str) -> str:
    """Digest of the fetched origin source (pre-adaptation)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def fastpath_key(
    site: str,
    page_path: str,
    device_class: str,
    spec_fingerprint: str,
    content_fp: str,
) -> str:
    return (
        f"fastpath:{site}:{page_path}:{device_class}"
        f":{spec_fingerprint}:{content_fp}"
    )


def latest_key(
    site: str,
    page_path: str,
    device_class: str,
    spec_fingerprint: str,
) -> str:
    """Key of the pointer to the newest stored bundle's content key."""
    return (
        f"fastpath-latest:{site}:{page_path}:{device_class}"
        f":{spec_fingerprint}"
    )


def make_etag(
    spec_fingerprint: str, device_class: str, content_fp: str
) -> str:
    """A strong validator covering spec, device class, and content."""
    return f'"{spec_fingerprint}.{device_class}.{content_fp}"'


def validator_key(
    site: str, page_path: str, spec_fingerprint: str, requester: str
) -> str:
    """Key of one requester's origin-validator record for a page."""
    return (
        f"fastpath-validator:{site}:{page_path}"
        f":{spec_fingerprint}:{requester}"
    )


def requester_identity(
    cookie_header: Optional[str],
    credentials: Optional[tuple[str, str]],
) -> str:
    """Digest of exactly what a session sends upstream with a fetch."""
    if not cookie_header and credentials is None:
        return "anon"
    sent = f"{cookie_header or ''}\n{':'.join(credentials or ())}"
    return hashlib.sha256(sent.encode("utf-8")).hexdigest()[:16]


class OriginValidator(NamedTuple):
    """What one 200 from the origin proved: these bytes, this ETag."""

    etag: str
    content_fp: str


def store_validator(
    cache: PrerenderCache, key: str, validator: OriginValidator, ttl_s: float
) -> None:
    cache.put(
        key,
        f"{validator.content_fp} {validator.etag}",
        content_type="text/plain",
        ttl_s=ttl_s,
    )


def load_validator(
    cache: PrerenderCache, key: str
) -> Optional[OriginValidator]:
    entry = cache.get(key)
    if entry is None:
        return None
    content_fp, _, etag = entry.data.decode("utf-8").partition(" ")
    return OriginValidator(etag, content_fp)


@dataclass
class BundleFile:
    """One artifact the adaptation run wrote under the page directory."""

    relpath: str
    content_type: str
    data: bytes
    #: Lazily cached base64 form.  Bundles share ``BundleFile`` objects
    #: across delta re-stores, so every unchanged artifact is encoded
    #: once per object instead of once per store.
    _b64: Optional[str] = field(default=None, repr=False, compare=False)

    def data_b64(self) -> str:
        if self._b64 is None:
            self._b64 = base64.b64encode(self.data).decode("ascii")
        return self._b64


@dataclass
class FastpathBundle:
    """Everything needed to replay one adapted response.

    ``files`` carries the exact artifact set the original run wrote
    (entry page, subpages, fragments, snapshot, images) so the replay
    restores the session directory for the ``?page=``/``?file=``
    handlers — no listing of the live directory, which could leak stale
    files from an earlier, different run.
    """

    etag: str
    entry_rel: str
    entry_html: str
    files: list[BundleFile] = field(default_factory=list)
    subpages: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    snapshot_bytes: int = 0
    used_browser: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": BUNDLE_VERSION,
                "etag": self.etag,
                "entry_rel": self.entry_rel,
                "entry_html": self.entry_html,
                "files": [
                    {
                        "relpath": item.relpath,
                        "content_type": item.content_type,
                        "data": item.data_b64(),
                    }
                    for item in self.files
                ],
                "subpages": self.subpages,
                "notes": self.notes,
                "snapshot_bytes": self.snapshot_bytes,
                "used_browser": self.used_browser,
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> Optional["FastpathBundle"]:
        try:
            payload = json.loads(raw)
        except (ValueError, TypeError):
            return None
        if payload.get("version") != BUNDLE_VERSION:
            return None
        return cls(
            etag=payload["etag"],
            entry_rel=payload["entry_rel"],
            entry_html=payload["entry_html"],
            files=[
                BundleFile(
                    relpath=item["relpath"],
                    content_type=item["content_type"],
                    data=base64.b64decode(item["data"]),
                    _b64=item["data"],
                )
                for item in payload.get("files", [])
            ],
            subpages=list(payload.get("subpages", [])),
            notes=list(payload.get("notes", [])),
            snapshot_bytes=int(payload.get("snapshot_bytes", 0)),
            used_browser=bool(payload.get("used_browser", False)),
        )


def store_bundle(
    cache: PrerenderCache,
    key: str,
    pointer_key: str,
    bundle: FastpathBundle,
    ttl_s: float,
) -> None:
    """Store the bundle and repoint ``fastpath-latest`` at it.

    One cache entry per bundle keeps freshness atomic: a bundle can
    never be half-expired the way a split manifest+payload pair could.
    """
    cache.put(
        key,
        bundle.to_json(),
        content_type=_BUNDLE_CONTENT_TYPE,
        ttl_s=ttl_s,
    )
    cache.put(
        pointer_key,
        key,
        content_type="text/plain",
        ttl_s=ttl_s,
    )


def load_bundle(
    cache: PrerenderCache, key: str
) -> Optional[FastpathBundle]:
    """A fresh bundle, or ``None`` (counted as a normal cache get)."""
    entry = cache.get(key)
    if entry is None:
        return None
    return FastpathBundle.from_json(entry.data.decode("utf-8"))


def load_stale_bundle(
    cache: PrerenderCache, pointer_key: str
) -> Optional[FastpathBundle]:
    """The last stored bundle, fresh *or* stale — the degradation rung.

    Two hops: the pointer names the newest content key, then the bundle
    itself is loaded through the cache's stale grace store.
    """
    pointer = cache.load_stale(pointer_key)
    if pointer is None:
        return None
    content_key = pointer.data.decode("utf-8")
    entry = cache.load_stale(content_key)
    if entry is None:
        return None
    return FastpathBundle.from_json(entry.data.decode("utf-8"))


_COUNTER_HELP = {
    "hits": "Fast-path bundle cache hits (full adaptation skipped).",
    "misses": "Fast-path lookups that fell through to a full run.",
    "stores": "Adapted-response bundles stored into the fast path.",
    "not_modified": "Entry requests answered 304 via If-None-Match.",
    "stream": "Adaptations emitted by the streaming serializer.",
    "dom": "Adaptations emitted through the full DOM round-trip.",
    "stream_fallback":
        "Streaming attempts that fell back to the DOM path.",
    "stale_serves": "Degraded requests served from a stale bundle.",
}


def fastpath_counter(registry, name: str):
    """The ``msite_fastpath_*`` counter family on one registry."""
    return registry.counter(
        f"msite_fastpath_{name}_total", _COUNTER_HELP[name]
    )


def revalidation_counter(registry, result: str):
    """``msite_origin_revalidations_total{result=}``: ``not_modified`` /
    ``modified`` for conditional fetches, ``audit_ok`` /
    ``audit_mismatch`` for the unconditional audit sample."""
    return registry.counter(
        "msite_origin_revalidations_total",
        "Origin fetches that went out with a stored validator, by result.",
        labels={"result": result},
    )
