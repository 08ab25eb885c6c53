"""A byte-bounded memo of read-only values that every render shares."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

Value = TypeVar("Value")


class SharedMemo(Generic[Value]):
    """Values by key, made by ``build(*key)`` on a miss and holding at
    most ``budget`` bytes by their ``nbytes``; the least recently used go
    first, and a value larger than the budget is built every time.

    Every caller in the process gets the same object for a key, so a
    value must not be written once built: ``build`` returns it read-only
    (a non-writeable array, or a table that is only read).
    """

    def __init__(self, build: Callable[..., Value], budget: int) -> None:
        self.build = build
        self.budget = budget
        self._values: OrderedDict[tuple[Hashable, ...], Value] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, *key: Hashable) -> Value:
        with self._lock:
            value = self._values.get(key)
            if value is not None:
                self._values.move_to_end(key)
                return value
        value = self.build(*key)
        if value.nbytes <= self.budget:
            with self._lock:
                if key not in self._values:
                    self._values[key] = value
                    self._bytes += value.nbytes
                while self._bytes > self.budget:
                    _, dropped = self._values.popitem(last=False)
                    self._bytes -= dropped.nbytes
        return value

    def clear(self) -> None:
        """Forget every value, as in a process that has built none yet."""
        with self._lock:
            self._values.clear()
            self._bytes = 0
