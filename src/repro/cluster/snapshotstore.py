"""The disk-backed snapshot tier: prerendered artifacts that outlive
any single process.

m.Site's economics only hold while a snapshot survives long enough to
amortize its render cost, yet until this tier existed every cached
artifact lived only in the in-process memory tier — a fleet restart
silently dropped the entire working set and stampeded the origin.
DRIVESHAFT (PAPERS.md) is the precedent: its CDN-resident snapshots
outlive the renderer that produced them.  :class:`SnapshotStore` is the
same durability property at proxy scale:

* **atomic** — every write lands via temp file + ``os.replace``; a
  crash mid-write leaves the previous version (or nothing), never a
  torn file;
* **versioned + checksummed** — each entry starts with a magic/version
  line and a JSON header carrying the key, TTL bookkeeping, and a
  sha256 over the payload; a version bump makes old files miss instead
  of deserializing wrongly;
* **quarantined, not fatal** — a corrupt or truncated entry is moved
  into ``quarantine/`` and reads as a clean miss; disk rot degrades one
  key, never the store.

The store knows nothing about read-through or write-behind policy —
that is :class:`PrerenderCache <repro.core.cache.PrerenderCache>`, which
owns it as its disk :class:`Tier <repro.core.cache.Tier>` — it is the
durable bottom layer the cache and the cross-region replicator both
write.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Iterator, Optional

from repro.core.cache import CacheEntry
from repro.observability.metrics import MetricsRegistry

#: First line of every snapshot file.  Bump the version when the layout
#: changes: old files then quarantine as unreadable instead of parsing
#: wrongly.
MAGIC = b"msite-snapshot/1\n"

_QUARANTINE_DIR = "quarantine"
_SUFFIX = ".snap"


def _payload_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SnapshotStore:
    """One directory of durable, checksummed snapshot entries.

    Thread-safe: the internal lock serializes writers per store, and the
    atomic-replace discipline means readers racing a writer see either
    the old version or the new one, never a hybrid.
    """

    tier_name = "disk"

    def __init__(
        self,
        root: str,
        clock=None,
        metrics: Optional[MetricsRegistry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.clock = clock
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(os.path.join(self.root, _QUARANTINE_DIR), exist_ok=True)
        registry = metrics or MetricsRegistry()
        labels = {"store": name} if name else None

        def _counter(metric: str, help_text: str):
            return registry.counter(metric, help_text, labels=labels)

        self._reads = {
            result: registry.counter(
                "msite_snapshotstore_reads_total",
                "Snapshot store lookups by result.",
                labels={**(labels or {}), "result": result},
            )
            for result in ("hit", "miss", "corrupt")
        }
        self._writes = _counter(
            "msite_snapshotstore_writes_total",
            "Entries persisted to the snapshot store.",
        )
        self._deletes = _counter(
            "msite_snapshotstore_deletes_total",
            "Entries removed from the snapshot store.",
        )
        self._quarantined = _counter(
            "msite_snapshotstore_quarantined_total",
            "Corrupt or unreadable entries moved into quarantine.",
        )
        self._entries_gauge = registry.gauge(
            "msite_snapshotstore_entries",
            "Entries currently resident in the snapshot store.",
            labels=labels,
        )
        self._entries_gauge.set(self._count_files())

    # -- paths -----------------------------------------------------------

    def _path_for(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return os.path.join(self.root, digest + _SUFFIX)

    def _count_files(self) -> int:
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(_SUFFIX)
        )

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- write path ------------------------------------------------------

    def put(self, entry: CacheEntry) -> None:
        """Persist one cache entry atomically (temp + ``os.replace``)."""
        header = json.dumps(
            {
                "key": entry.key,
                "content_type": entry.content_type,
                "stored_at": entry.stored_at,
                "ttl_s": entry.ttl_s,
                "sha256": _payload_digest(entry.data),
                "size": len(entry.data),
            },
            sort_keys=True,
        ).encode("utf-8")
        path = self._path_for(entry.key)
        temporary = f"{path}.{os.getpid()}.tmp"
        with self._lock:
            existed = os.path.exists(path)
            with open(temporary, "wb") as handle:
                handle.write(MAGIC)
                handle.write(header)
                handle.write(b"\n")
                handle.write(entry.data)
            os.replace(temporary, path)
            self._writes.inc()
            if not existed:
                self._entries_gauge.inc()

    def delete(self, key: str) -> bool:
        path = self._path_for(key)
        with self._lock:
            try:
                os.unlink(path)
            except FileNotFoundError:
                return False
            self._deletes.inc()
            self._entries_gauge.dec()
            return True

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        with self._lock:
            for name in os.listdir(self.root):
                if not name.endswith(_SUFFIX):
                    continue
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    continue
            self._deletes.inc(removed)
            self._entries_gauge.set(self._count_files())
        return removed

    # -- read path -------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """The stored entry, or ``None`` — a *clean miss* — when absent,
        corrupt, or truncated.  Corrupt files are quarantined."""
        entry = self._read(self._path_for(key), expected_key=key)
        self._reads["hit" if entry is not None else "miss"].inc()
        return entry

    def _read(
        self, path: str, expected_key: Optional[str] = None
    ) -> Optional[CacheEntry]:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        entry = self._parse(raw, expected_key)
        if entry is None:
            self._quarantine(path)
        return entry

    def _parse(
        self, raw: bytes, expected_key: Optional[str]
    ) -> Optional[CacheEntry]:
        if not raw.startswith(MAGIC):
            return None
        body = raw[len(MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(body[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(header, dict):
            return None
        data = body[newline + 1:]
        try:
            key = header["key"]
            digest = header["sha256"]
            size = header["size"]
            stored_at = float(header["stored_at"])
            ttl_s = float(header["ttl_s"])
            content_type = header["content_type"]
        except (KeyError, TypeError, ValueError):
            return None
        if expected_key is not None and key != expected_key:
            return None
        if len(data) != size or _payload_digest(data) != digest:
            return None
        return CacheEntry(
            key=key,
            data=data,
            content_type=content_type,
            stored_at=stored_at,
            ttl_s=ttl_s,
        )

    def _quarantine(self, path: str) -> None:
        """Move a bad file out of the way instead of crashing on it."""
        target = os.path.join(
            self.root, _QUARANTINE_DIR, os.path.basename(path)
        )
        with self._lock:
            try:
                os.replace(path, target)
            except OSError:
                return
            self._reads["corrupt"].inc()
            self._quarantined.inc()
            self._entries_gauge.set(self._count_files())

    # -- enumeration -----------------------------------------------------

    def keys(self) -> list[str]:
        return [entry.key for entry in self.entries()]

    def entries(self) -> Iterator[CacheEntry]:
        """Every readable entry; corrupt files quarantine as they are
        encountered (the warm-start preloader iterates this)."""
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(_SUFFIX):
                continue
            entry = self._read(os.path.join(self.root, name))
            if entry is not None:
                self._reads["hit"].inc()
                yield entry

    def __len__(self) -> int:
        return self._count_files()

    @property
    def quarantined_count(self) -> int:
        return len(os.listdir(os.path.join(self.root, _QUARANTINE_DIR)))

    def status(self) -> dict:
        """The ``/regions`` rollup row for this store."""
        return {
            "root": self.root,
            "entries": len(self),
            "quarantined": self.quarantined_count,
        }

    def __repr__(self) -> str:
        return f"SnapshotStore({self.root!r}, {len(self)} entries)"
