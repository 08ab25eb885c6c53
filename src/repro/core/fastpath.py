"""The fast path: whole adapted responses, and the gate that guards them.

The paper's throughput headroom (Figure 7: 224 → 29,038 req/min) comes
from how much per-request work the proxy can avoid.  Once a page has
been adapted, the complete response bundle (entry HTML plus every
file of the page the run wrote) is stored in the shared pre-render
cache under

``fastpath:<site>:<path>:<device class>:<spec fp>:<content fp>``

— a digest of the *fetched origin source* (a changed or personalized
page misses naturally), the UA-detected device class, and the compiled
plan's fingerprint (a spec edit invalidates everything).  The ETag
served to clients is derived from the same three, so a client 304 is
exact.  A ``fastpath-latest`` pointer per (site, path, device, spec)
names the newest content key: with the origin down there is no source
to fingerprint, and the stale rung finds the last good bundle through it.

The proxy still asks the origin on every request, but **conditional
first**.  Beside every stored bundle sits a validator record,

``fastpath-validator:<site>:<path>:<spec fp>:<requester identity>``

holding the origin's strong ``ETag`` and the content fingerprint of the
body it came with (same TTL as the bundle).  The requester identity is
a digest of what the session sends upstream (``Cookie`` header and
HTTP-basic credentials; ``anon`` when there is neither), so a record
never vouches across login states.  A 304 is the origin's word, so it
is sampled: every ``REVALIDATION_AUDIT_EVERY``-th revalidation per host
goes out unconditional, and a body that changed under an unchanged ETag
demotes the host (:mod:`repro.resilience.policy`).

:func:`serve_or_miss` is the gate — everything that decides *whether*
to adapt: validator record → conditional fetch → 304 replay (no body,
no :func:`normalize_origin`, no SHA-256) → on a 200 fingerprint,
validator verdict, bundle lookup, delta attempt.  It answers with an
:class:`AdaptedPage` or a :class:`Miss`; the pipeline adapts a miss and
:meth:`Miss.store` takes the result back (storability, TTL clamp,
bundle + validator, delta seed).  The ``AdaptedPage`` ⇄
:class:`FastpathBundle` codec lives here too, and so does the bundle's
one stored form: a binary container that is read, not parsed — written
only for a lower tier (the memory tier holds the bundle decoded), and
read once per cache entry, not once per replay.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Union

from repro.core.cache import CacheEntry, PrerenderCache
from repro.core.subpages import ENTRY_FILE, AdaptedPage, SubpageArtifact
from repro.net.conditional import etag_matches  # noqa: F401  (re-export)
from repro.net.messages import Response
from repro.observability.tracing import span

#: Bump when the bundle layout changes; old entries miss instead of
#: deserializing wrongly.
BUNDLE_VERSION = 2

_BUNDLE_CONTENT_TYPE = "application/x-msite-fastpath"

#: A stored bundle is this prefix (magic, ``BUNDLE_VERSION``, header
#: length), a small JSON header — the bundle's fields, in order, with
#: each payload replaced by its length — then the entry HTML's UTF-8
#: bytes and the file payloads back to back.
_PREFIX = struct.Struct(">4sHI")
_MAGIC = b"MSFP"
_HEADER_TYPES = {
    "etag": str, "entry_rel": str, "entry_html": int, "files": list,
    "subpages": list, "notes": list, "snapshot_bytes": int,
    "used_browser": bool,
}
_FILE_ROW_TYPES = [str, str, int]  # relpath, content type, length


def _types(values) -> list[type]:
    return list(map(type, values))


#: Whitespace runs between two tags that contain at least one newline —
#: template indentation, in other words.  Runs *without* a newline are
#: left alone: a single space between two inline tags can be
#: significant, but a line break plus indentation never is.  The
#: pattern takes both tag brackets (no lookaround), so the scan can
#: skip ahead to each ``>``; a ``<`` ending one match is never the
#: ``>`` starting the next, so the result equals the lookaround form's.
_INTER_TAG_WS = re.compile(r">[ \t\r\f\v]*\n[ \t\r\f\v\n]*<")


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
    return _INTER_TAG_WS.sub(">\n<", source)


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


class BundleFile(NamedTuple):
    """One artifact an adaptation run wrote: a file of its page."""

    relpath: str
    content_type: str
    data: bytes


@dataclass(frozen=True)
class FastpathBundle:
    """Everything needed to replay one adapted response.

    ``files`` carries the exact artifact set the original run wrote
    (entry page, subpages, fragments, snapshot, images), and
    ``subpages`` each subpage's :class:`SubpageArtifact` fields.  Those
    two are the container's; ``file_map`` (relative path → file) and
    ``artifacts`` are built from them once, here, and are what every
    replayed page serves from and reports.  ``entry_body`` is the entry
    page's UTF-8 bytes: the same object as the entry file's ``data``.

    Read-only: a stored bundle is what its cache entry holds (an entry
    admitted from a lower tier is decoded once, on its first load), and
    that one object is replayed into every session that hits it, every
    session's page holding the same map.  So the fields cannot be
    assigned, and the sequences are tuples whatever the caller passed;
    whoever needs a changed bundle builds a new one (:func:`rebundle`).
    """

    etag: str
    entry_rel: str
    entry_body: bytes
    files: tuple[BundleFile, ...] = ()
    subpages: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()
    snapshot_bytes: int = 0
    used_browser: bool = False
    file_map: Mapping[str, BundleFile] = field(
        init=False, repr=False, compare=False
    )
    artifacts: tuple[SubpageArtifact, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("files", "subpages", "notes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "file_map", MappingProxyType(
            {item.relpath: item for item in self.files}
        ))
        try:
            artifacts = tuple(
                SubpageArtifact(**meta) for meta in self.subpages
            )
        except TypeError:  # not a run's records: nothing to report
            artifacts = ()
        object.__setattr__(self, "artifacts", artifacts)

    @property
    def entry_html(self) -> str:
        return self.entry_body.decode("utf-8")

    def _header(self) -> bytes:
        """The container's JSON header, keys in ``_HEADER_TYPES`` order."""
        return json.dumps(
            {
                "etag": self.etag,
                "entry_rel": self.entry_rel,
                "entry_html": len(self.entry_body),
                "files": [
                    [item.relpath, item.content_type, len(item.data)]
                    for item in self.files
                ],
                "subpages": self.subpages,
                "notes": self.notes,
                "snapshot_bytes": self.snapshot_bytes,
                "used_browser": self.used_browser,
            }
        ).encode("ascii")

    def encoded_size(self) -> int:
        """``len(self.to_bytes())``, from the header alone."""
        return (
            _PREFIX.size + len(self._header()) + len(self.entry_body)
            + sum(len(item.data) for item in self.files)
        )

    def to_bytes(self) -> bytes:
        header = self._header()
        prefix = _PREFIX.pack(_MAGIC, BUNDLE_VERSION, len(header))
        return b"".join(
            [prefix, header, self.entry_body,
             *[item.data for item in self.files]]
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> Optional["FastpathBundle"]:
        """The bundle ``raw`` holds, or ``None`` — a miss.

        Total, and never lenient: another magic or version, a header of
        any other shape (a ``bool`` is not a length), lengths that do
        not sum to exactly ``len(raw)`` and entry HTML that is not
        UTF-8 are all refused.  An entry file equal to the entry page
        shares its ``bytes`` object.
        """
        if len(raw) < _PREFIX.size:
            return None
        magic, version, header_len = _PREFIX.unpack_from(raw)
        if magic != _MAGIC or version != BUNDLE_VERSION:
            return None
        at = _PREFIX.size + header_len
        try:
            header = json.loads(raw[_PREFIX.size:at])
        except (ValueError, RecursionError):
            return None
        if (
            type(header) is not dict
            or list(header) != list(_HEADER_TYPES)
            or _types(header.values()) != list(_HEADER_TYPES.values())
            or min(header["entry_html"], header["snapshot_bytes"]) < 0
            or set(_types(header["subpages"])) - {dict}
            or set(_types(header["notes"])) - {str}
        ):
            return None
        end = at + header.pop("entry_html")
        entry_body = raw[at:end]
        try:
            entry_body.decode("utf-8")
        except UnicodeDecodeError:
            return None
        files = []
        for row in header["files"]:
            if (
                type(row) is not list
                or _types(row) != _FILE_ROW_TYPES
                or row[2] < 0
            ):
                return None
            path, content_type, size = row
            data = raw[end:end + size]
            if path == header["entry_rel"] and data == entry_body:
                data = entry_body
            files.append(BundleFile(path, content_type, data))
            end += size
        if end != len(raw):
            return None
        header["files"] = files
        return cls(entry_body=entry_body, **header)


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
    The memory tier holds the bundle itself, never its container: that
    is encoded only when a lower tier persists the entry, and no load
    of this entry decodes anything (``from_bytes`` of the container
    equals the bundle).
    """
    cache.put(
        key,
        bundle,
        content_type=_BUNDLE_CONTENT_TYPE,
        ttl_s=ttl_s,
    )
    cache.put(
        pointer_key,
        key,
        content_type="text/plain",
        ttl_s=ttl_s,
    )


def _decoded(entry: Optional[CacheEntry]) -> Optional[FastpathBundle]:
    """The bundle ``entry`` holds, decoded on its first load only.

    An entry :func:`store_bundle` made already holds its bundle; what
    this decodes is an entry admitted from a lower tier, or bytes some
    other writer put under the key.  A good decode replaces the bytes
    in the entry, so the entry goes on holding one form.

    The decode lives on the entry, so it goes wherever the entry goes:
    an overwrite, eviction or invalidation takes it away too.  Two
    threads racing on the first load decode equal bundles and one
    write wins, which is harmless.  A refused container stays bytes
    and is decoded again on its next load; the miss it causes stores a
    good bundle over it.
    """
    if entry is None:
        return None
    bundle = entry.decoded
    if bundle is None:
        bundle = FastpathBundle.from_bytes(entry.data)
        if bundle is not None:
            entry.keep_decoded(bundle)
    return bundle


def load_bundle(
    cache: PrerenderCache, key: str
) -> Optional[FastpathBundle]:
    """A fresh bundle, or ``None`` (counted as a normal cache get)."""
    return _decoded(cache.get(key))


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
    try:
        key = pointer.data.decode("utf-8")
    except UnicodeDecodeError:  # not a pointer this module wrote: a miss
        return None
    return _decoded(cache.load_stale(key))


# ---------------------------------------------------------------------------
# the adapted response, and its codec to and from a bundle


def bundle_from(result: AdaptedPage, etag: Optional[str]) -> FastpathBundle:
    """Freeze a run's page: its files, in the order the run wrote them."""
    return FastpathBundle(
        etag=etag or "",
        entry_rel=ENTRY_FILE,
        entry_body=result.entry_body,
        files=result.files.values(),
        subpages=[asdict(artifact) for artifact in result.subpages],
        notes=list(result.notes),
        snapshot_bytes=result.snapshot_bytes,
        used_browser=result.used_browser,
    )


def replay_bundle(
    run, bundle: FastpathBundle, origin_bytes: int, etag: Optional[str]
) -> AdaptedPage:
    """The page a cached bundle replays for the run's session: it points
    at the bundle's file map and subpage tuple, and copies neither."""
    result = AdaptedPage(
        entry_body=bundle.entry_body,
        files=bundle.file_map,
        subpages=bundle.artifacts,
        device_class=run.device_class,
        snapshot_bytes=bundle.snapshot_bytes,
        snapshot_from_cache=bundle.snapshot_bytes > 0,
        used_browser=False,
        lightweight_core_seconds=run.services.costs.lightweight_request_s,
        origin_bytes=origin_bytes,
        notes=[
            *bundle.notes,
            "fastpath: adapted response replayed from cache",
        ],
        etag=etag,
        fastpath_hit=True,
    )
    run.session.pages_served += 1
    return result


def rebundle(
    bundle: FastpathBundle, entry_body: bytes, etag: Optional[str]
) -> FastpathBundle:
    """A copy of the bundle with a delta-patched entry swapped in: one
    ``bytes`` object, as the entry page and as the entry file."""
    files = [
        BundleFile(item.relpath, item.content_type, entry_body)
        if item.relpath == bundle.entry_rel
        else item
        for item in bundle.files
    ]
    notes = [
        note for note in bundle.notes if not note.startswith("delta:")
    ]
    notes.append("delta: entry patched incrementally")
    return FastpathBundle(
        etag=etag or "",
        entry_rel=bundle.entry_rel,
        entry_body=entry_body,
        files=files,
        subpages=[dict(meta) for meta in bundle.subpages],
        notes=notes,
        snapshot_bytes=bundle.snapshot_bytes,
        used_browser=False,
    )


_COUNTER_HELP = {
    "hits": "Fast-path bundle cache hits (full adaptation skipped).",
    "misses": "Fast-path lookups that fell through to a full run.",
    "stores": "Adapted-response bundles stored into the fast path.",
    "not_modified": "Entry requests answered 304 via If-None-Match.",
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


# ---------------------------------------------------------------------------
# the gate: whether to adapt at all


@dataclass(slots=True)
class Miss:
    """What the gate learned on its way to a miss.

    The run adapts ``source``; :meth:`store` takes the result back.
    Without the fast path only ``source`` and ``origin_bytes`` are set.
    """

    source: str
    origin_bytes: int
    device_class: str
    etag: Optional[str] = None
    bundle_key: Optional[str] = None
    pointer_key: Optional[str] = None
    #: Where this requester's origin-validator record lives, and what
    #: the run's 200 proved (``None``: nothing to vouch with).
    validator_key: str = ""
    validator: Optional[OriginValidator] = None

    def store_bundle(
        self, cache: PrerenderCache, bundle: FastpathBundle, ttl_s: float
    ) -> None:
        """Store a bundle and, beside it and for as long, the origin
        validator of the fetch it was adapted from."""
        store_bundle(
            cache, self.bundle_key, self.pointer_key, bundle, ttl_s=ttl_s
        )
        if self.validator is not None:
            store_validator(cache, self.validator_key, self.validator, ttl_s)

    def store(self, run, ctx, result: AdaptedPage) -> None:
        """After the miss: stamp the ETag and, when the result may be
        replayed, store bundle + validator and stash the delta seed."""
        result.etag = self.etag
        services = run.services
        if not (services.fastpath_enabled and _storable(ctx, result)):
            return
        # The bundle freezes every cached component it embeds, so it
        # must expire no later than the shortest one.
        ttl_s = ctx.cache_ttl_s
        for definition in ctx.plan.subpages.values():
            if definition.cacheable:
                ttl_s = min(ttl_s, definition.cache_ttl_s)
        with span("cache"):
            bundle = bundle_from(result, self.etag)
            self.store_bundle(services.cache, bundle, ttl_s)
        fastpath_counter(services.observability.registry, "stores").inc()
        if services.delta is not None:
            # Hands ctx over: the engine stashes it and proves a memo
            # against ctx.document on a later warm miss, so nothing may
            # mutate it from here on.
            services.delta.seed(
                run, ctx, result, bundle, ttl_s, self.device_class,
                raw_source=self.source,
            )


def _storable(ctx, result: AdaptedPage) -> bool:
    """Whether a run's output may be replayed for later requests.

    Degraded results are never stored (a replay would pin the
    degradation past the outage).  AJAX pages are skipped: their action
    handlers are registered by the run itself, so a replayed entry after
    a restart would serve links with no handlers.  And anything the spec
    said to render per request — an uncached page snapshot, a
    prerendered subpage without ``cacheable`` — keeps that semantic by
    keeping the whole response out of the bundle cache.
    """
    if result.degraded is not None:
        return False
    if len(ctx.ajax_table):
        return False
    if ctx.prerender_page and not ctx.cache_snapshot:
        return False
    return all(
        definition.cacheable
        for definition in ctx.plan.subpages.values()
        if definition.prerender
    )


def serve_or_miss(
    run, fetch: Callable[[Optional[str]], Response],
    force_refresh: bool, device_class: str,
) -> Union[AdaptedPage, Miss]:
    """Answer from a stored bundle, or say what to adapt.

    ``run`` is the :class:`~repro.core.pipeline.AdaptationPipeline` in
    flight (its spec, plan, services, session and device class);
    ``fetch(if_none_match)`` is the one place that talks to the origin.
    The decision table is in docs/PERFORMANCE.md, "What runs on a miss".
    """
    services, spec = run.services, run.spec
    spec_fp = run.plan.fingerprint
    cache = services.cache
    registry = services.observability.registry
    resilience = services.resilience
    record = None
    audit = False
    record_key = ""
    trusted = services.fastpath_enabled and resilience.trusts_validators(
        spec.origin_host
    )
    if trusted:
        # Keyed by who the origin will think is asking: what ``fetch``
        # is about to send for this session, digested.
        session = run.session
        record_key = validator_key(
            spec.site, spec.page_path, spec_fp,
            requester_identity(
                session.jar.cookie_header(run.origin_url, services.now),
                session.http_credentials.get(spec.origin_host),
            ),
        )
        if not force_refresh:
            record = load_validator(cache, record_key)
        if record is not None:
            # The audit sample is fetched in full *instead of*
            # conditionally: a request never costs two fetches.
            audit = resilience.audit_due(spec.origin_host)
    # Spans are flat and sequential (never nested on this path) so their
    # durations sum to at most the request wall time.
    with span("detect") as detect:
        response = fetch(
            record.etag if record is not None and not audit else None
        )
        if response.status == 304 and detect is not None:
            detect.annotate(revalidated=True)
    if response.status == 304:  # the record names the bundle
        revalidation_counter(registry, "not_modified").inc()
        with span("fastpath"):
            bundle = load_bundle(
                cache,
                fastpath_key(
                    spec.site, spec.page_path, device_class, spec_fp,
                    record.content_fp,
                ),
            )
        if bundle is not None:
            fastpath_counter(registry, "hits").inc()
            return replay_bundle(
                run, bundle, 0,
                make_etag(spec_fp, device_class, record.content_fp),
            )
        # The origin vouches for a bundle that is gone (evicted,
        # expired, invalidated, another device class's): fetch the body
        # after all and carry on as a normal miss.
        record = None
        with span("detect"):
            response = fetch(None)
    # Cosmetic origin churn (template reindentation) must not bust the
    # content fingerprint; applied unconditionally so the adapted output
    # is identical whether or not the fast/delta paths are enabled.
    source = normalize_origin(response.text_body)
    origin_bytes = len(response.body)
    etag = bundle_key = pointer_key = validator = None
    warm = False
    if services.fastpath_enabled:
        # A 200: hashing the source *is* the revalidation — a changed
        # page changes the content fingerprint and misses naturally.
        content_fp = content_fingerprint(source)
        if trusted:
            validator = _judge_validator(
                services, spec.origin_host, record_key, record, audit,
                response.headers.get("ETag"), content_fp,
            )
        etag = make_etag(spec_fp, device_class, content_fp)
        bundle_key = fastpath_key(
            spec.site, spec.page_path, device_class, spec_fp, content_fp
        )
        pointer_key = latest_key(
            spec.site, spec.page_path, device_class, spec_fp
        )
    if bundle_key is not None and not force_refresh:
        with span("fastpath"):
            bundle = load_bundle(cache, bundle_key)
        if bundle is not None:
            fastpath_counter(registry, "hits").inc()
            if validator not in (None, record):
                # This 200 landed on a bundle stored under another
                # validator (a reindented template, a page that flipped
                # back): vouch for it for as long as the bundle lives.
                entry = cache.peek(bundle_key)
                if entry is not None:
                    store_validator(
                        cache, record_key, validator,
                        entry.stored_at + entry.ttl_s - services.now,
                    )
            return replay_bundle(run, bundle, origin_bytes, etag)
        fastpath_counter(registry, "misses").inc()
        warm = services.delta is not None
    miss = Miss(
        source, origin_bytes, device_class, etag, bundle_key, pointer_key,
        record_key, validator,
    )
    if warm:
        # The bundle scheme knows this page, only the content changed:
        # try patching the cached response incrementally before paying
        # for a full replay.
        with span("delta"):
            patched = services.delta.attempt(run, miss)
        if patched is not None:
            return patched
    return miss


def _judge_validator(
    services, host: str, record_key: str,
    record: Optional[OriginValidator], audit: bool,
    origin_etag: Optional[str], content_fp: str,
) -> Optional[OriginValidator]:
    """What a 200 proved about the origin's validators.

    ``record`` is what the request was (or, on an audit, would have
    been) revalidated with.  The same ETag over a different fingerprint
    is an origin that would have answered 304 to changed bytes: its
    record goes, and so does its host's trust.  Returns the validator
    worth storing beside this run's bundle, if any.
    """
    registry = services.observability.registry
    if record is not None and origin_etag == record.etag:
        if content_fp != record.content_fp:
            revalidation_counter(registry, "audit_mismatch").inc()
            services.cache.invalidate(record_key)
            services.resilience.demote_origin(host)
            return None
        if audit:
            revalidation_counter(registry, "audit_ok").inc()
    elif record is not None:
        revalidation_counter(registry, "modified").inc()
    # Only a strong validator is worth a conditional request.
    if origin_etag is not None and not origin_etag.startswith("W/"):
        return OriginValidator(origin_etag, content_fp)
    return None
