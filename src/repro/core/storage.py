"""Virtual filesystem for proxy-generated content.

"All of the files generated during a user's session are stored in the
file system under a (protected) subdirectory created specifically for that
user" (§3.2), and shared pre-rendered objects go to a public cache
directory.  The store is an in-memory tree so tests and simulations never
touch the host disk, with the same path semantics a real deployment needs.
All operations are guarded by one internal lock so concurrent request
threads can write session artifacts without corrupting the tree.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(slots=True)
class StoredFile:
    """One file: bytes plus bookkeeping."""

    path: str
    data: bytes
    content_type: str = "application/octet-stream"
    created_at: float = 0.0

    @property
    def size(self) -> int:
        return len(self.data)


class VirtualFileSystem:
    """Path-addressed byte store with directory semantics."""

    def __init__(self) -> None:
        self._files: dict[str, StoredFile] = {}
        self._dirs: set[str] = {"/"}
        self.bytes_written = 0
        self._lock = threading.RLock()

    # -- directories ----------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        while "//" in path:
            path = path.replace("//", "/")
        return path

    def mkdir(self, path: str) -> str:
        """Create a directory (and parents); idempotent."""
        path = self._normalize(path).rstrip("/") or "/"
        parts = [part for part in path.split("/") if part]
        with self._lock:
            current = ""
            for part in parts:
                current += "/" + part
                self._dirs.add(current)
        return path

    def is_dir(self, path: str) -> bool:
        with self._lock:
            return (
                self._normalize(path).rstrip("/") in self._dirs
                or path == "/"
            )

    def listdir(self, path: str) -> list[str]:
        """Immediate children (files and directories) of ``path``."""
        path = self._normalize(path).rstrip("/")
        prefix = path + "/"
        children: set[str] = set()
        with self._lock:
            for file_path in self._files:
                if file_path.startswith(prefix):
                    rest = file_path[len(prefix):]
                    children.add(rest.split("/")[0])
            for dir_path in self._dirs:
                if dir_path.startswith(prefix):
                    rest = dir_path[len(prefix):]
                    if rest:
                        children.add(rest.split("/")[0])
        return sorted(children)

    # -- files -----------------------------------------------------------

    def write(
        self,
        path: str,
        data: bytes | str,
        content_type: str = "application/octet-stream",
        now: float = 0.0,
    ) -> StoredFile:
        path = self._normalize(path)
        if isinstance(data, str):
            data = data.encode("utf-8")
        parent = path.rsplit("/", 1)[0]
        with self._lock:
            if parent:
                self.mkdir(parent)
            stored = StoredFile(
                path=path, data=data, content_type=content_type,
                created_at=now,
            )
            self._files[path] = stored
            self.bytes_written += len(data)
            return stored

    def write_files(
        self,
        directory: str,
        items: Iterable[tuple[str, str, bytes]],
        now: float = 0.0,
    ) -> None:
        """:meth:`write` each ``(relpath, content_type, data)`` under
        ``directory``, as one step: the directory is normalised once,
        each distinct parent made once, the lock taken once."""
        directory = self._normalize(directory).rstrip("/")
        stored = [
            StoredFile(
                self._normalize(f"{directory}/{relpath}"), data,
                content_type, now,
            )
            for relpath, content_type, data in items
        ]
        with self._lock:
            for parent in {item.path.rsplit("/", 1)[0] for item in stored}:
                if parent not in self._dirs:
                    self.mkdir(parent)
            for item in stored:
                self._files[item.path] = item
                self.bytes_written += len(item.data)

    def read(self, path: str) -> StoredFile:
        path = self._normalize(path)
        with self._lock:
            stored = self._files.get(path)
        if stored is None:
            raise FileNotFoundError(path)
        return stored

    def exists(self, path: str) -> bool:
        with self._lock:
            return self._normalize(path) in self._files

    def delete(self, path: str) -> bool:
        with self._lock:
            return self._files.pop(self._normalize(path), None) is not None

    def delete_tree(self, path: str) -> int:
        """Remove a directory and everything beneath it; returns files removed."""
        path = self._normalize(path).rstrip("/")
        prefix = path + "/"
        with self._lock:
            doomed = [
                p for p in self._files if p.startswith(prefix) or p == path
            ]
            for file_path in doomed:
                del self._files[file_path]
            self._dirs = {
                d
                for d in self._dirs
                if not (d == path or d.startswith(prefix))
            }
            return len(doomed)

    def total_bytes(self, prefix: str = "/") -> int:
        prefix = self._normalize(prefix)
        with self._lock:
            return sum(
                f.size
                for p, f in self._files.items()
                if p.startswith(prefix)
            )

    def file_count(self, prefix: str = "/") -> int:
        prefix = self._normalize(prefix)
        with self._lock:
            return sum(1 for p in self._files if p.startswith(prefix))
