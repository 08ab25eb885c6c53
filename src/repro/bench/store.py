"""Concurrency-safe merge-writes for ``BENCH_pipeline.json``.

The bench report is one JSON file of sections shared by every writer:
each top-level key names a section dict that one command owns — the
cluster sweep ``cluster_scalability``, the region bench
``region_failover``, and so on — and every workload scenario upserts
one row under ``workload``.  A writer never puts a non-dict at the top
level: :func:`deep_merge` replaces a dict with a non-dict, so one would
wipe a section.  The original read-update-write in the CLI was neither
locked nor atomic, so
two scenario runs finishing together could clobber each other's rows or
tear the file.  This module gives every writer the same three
guarantees:

* **exclusive** — an ``<path>.lock`` file (``fcntl.flock`` where
  available, ``O_CREAT|O_EXCL`` spin otherwise) serializes writers;
* **atomic** — the merged payload lands via temp file + ``os.replace``,
  so readers never observe a torn file;
* **keyed** — dict values merge recursively instead of replacing, so
  section rows keyed by ``scenario@fingerprint`` upsert: re-running a
  scenario replaces its own row and never duplicates or drops a peer's.
"""

from __future__ import annotations

import json
import os
import time

try:  # POSIX; the container always has it, but degrade gracefully.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_LOCK_SUFFIX = ".lock"
_SPIN_S = 0.005


def deep_merge(base: dict, updates: dict) -> dict:
    """Recursively merge ``updates`` into a copy of ``base``.

    Dict values merge key-wise (updates win on conflicts); everything
    else is replaced outright.  This is what makes section-level rows
    an upsert instead of a clobber.
    """
    merged = dict(base)
    for key, value in updates.items():
        existing = merged.get(key)
        if isinstance(existing, dict) and isinstance(value, dict):
            merged[key] = deep_merge(existing, value)
        else:
            merged[key] = value
    return merged


class _FileLock:
    """Exclusive advisory lock on ``path + '.lock'``, self-cleaning.

    The lock file is unlinked on release so a bench run leaves no
    ``.lock`` droppings behind (they used to end up committed).  Unlink
    happens *while still holding* the flock, and acquisition revalidates
    that the fd it locked is still the inode the lock path names — a
    waiter that wakes holding an orphaned (already-unlinked) inode's
    lock retries on the fresh file instead of proceeding as a second
    "owner".
    """

    def __init__(self, path: str, timeout_s: float = 30.0) -> None:
        self.lock_path = path + _LOCK_SUFFIX
        self.timeout_s = timeout_s
        self._handle: int | None = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            while True:
                handle = os.open(self.lock_path, os.O_CREAT | os.O_RDWR)
                fcntl.flock(handle, fcntl.LOCK_EX)
                try:
                    current_ino = os.stat(self.lock_path).st_ino
                except FileNotFoundError:
                    # The holder unlinked the file while we blocked in
                    # flock(): our lock is on an orphaned inode.
                    os.close(handle)
                    continue
                if os.fstat(handle).st_ino != current_ino:
                    os.close(handle)
                    continue
                self._handle = handle
                return self
        deadline = time.monotonic() + self.timeout_s  # pragma: no cover
        while True:  # pragma: no cover - non-POSIX spin
            try:
                self._handle = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_RDWR
                )
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not lock {self.lock_path} within "
                        f"{self.timeout_s}s"
                    )
                time.sleep(_SPIN_S)

    def __exit__(self, *_exc) -> None:
        if self._handle is not None:
            if fcntl is not None:
                # Unlink first, release after: waiters blocked on this
                # inode wake, fail the inode revalidation, and retry on
                # a fresh lock file — mutual exclusion is preserved.
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    pass
                fcntl.flock(self._handle, fcntl.LOCK_UN)
                os.close(self._handle)
            else:  # pragma: no cover - non-POSIX spin
                os.close(self._handle)
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    pass
            self._handle = None


def _read_report(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return {}
    return existing if isinstance(existing, dict) else {}


def merge_report(path: str, updates: dict) -> dict:
    """Merge ``updates`` into the report at ``path``; returns the result.

    Safe against concurrent writers (locked) and crashes mid-write
    (atomic replace).  Other writers' top-level keys and sibling rows
    inside shared sections survive.
    """
    directory = os.path.dirname(os.path.abspath(path))
    with _FileLock(path):
        merged = deep_merge(_read_report(path), updates)
        temporary = os.path.join(
            directory, f".{os.path.basename(path)}.{os.getpid()}.tmp"
        )
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2)
            handle.write("\n")
        os.replace(temporary, path)
    return merged


def upsert_row(path: str, section: str, key: str, row: dict) -> dict:
    """Upsert one keyed row into a section dict of the report."""
    return merge_report(path, {section: {key: row}})
