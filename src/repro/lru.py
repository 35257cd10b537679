"""One bounded LRU map for every in-process memo.

The language-cache layers, each substrate's compiled flow graphs and each
serving node's warm servers all hold values a miss can rebuild (or a client
can re-ship), so evicting one costs a recompute, never an outcome.  This
module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable


class BoundedLru:
    """Insertion-ordered map with optional entry-count and total-size bounds.

    A hit re-inserts the entry at the tail of the backing dict, so its head is
    always the least-recently-used entry.  ``max_entries`` caps the entry
    count and ``max_size`` the sum of ``sizer(value)`` over the held values
    (one per entry by default); a value larger than ``max_size`` is not kept.
    The size measured at insertion travels with the entry: values may grow
    afterwards (a language memoizes its infix-free sublanguage in place).

    Every operation takes one lock, so threads may share a map.
    ``on_evict(key, value)`` runs for each bound-driven removal after the lock
    is released, so it may be slow or touch the map; replacement, :meth:`clear`
    and a dropped oversized value do not call it.  ``hits`` / ``misses`` count
    :meth:`get` lookups and ``evictions`` the bound-driven removals.
    """

    __slots__ = (
        "_data", "_lock", "_max_entries", "_max_size", "_sizer", "_on_evict",
        "size", "hits", "misses", "evictions",
    )

    def __init__(
        self,
        *,
        max_entries: int | None = None,
        max_size: int | None = None,
        sizer: Callable[[object], int] = lambda value: 1,
        on_evict: Callable[[object, object], None] | None = None,
    ) -> None:
        for name, bound in (("max_entries", max_entries), ("max_size", max_size)):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be >= 1 (got {bound})")
        self._data: dict = {}
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._max_size = max_size
        self._sizer = sizer
        self._on_evict = on_evict
        self.size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, default=None):
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                self.misses += 1
                return default
            self._data[key] = entry
            self.hits += 1
            return entry[0]

    def set(self, key, value) -> None:
        size = self._sizer(value)
        with self._lock:
            evicted = self._insert_locked(key, value, size)
        self._notify(evicted)

    def setdefault(self, key, value):
        """Return the value held for ``key``, or insert ``value`` and return it."""
        size = self._sizer(value)
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is not None:
                self._data[key] = entry
                return entry[0]
            evicted = self._insert_locked(key, value, size)
        self._notify(evicted)
        return value

    def values(self) -> list:
        """A snapshot of the held values, least recently used first."""
        with self._lock:
            return [entry[0] for entry in self._data.values()]

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.size = 0

    def _insert_locked(self, key, value, size: int) -> list:
        data = self._data
        old = data.pop(key, None)
        if old is not None:
            self.size -= old[1]
        if self._max_size is not None and size > self._max_size:
            return []
        data[key] = (value, size)
        self.size += size
        evicted = []
        while (self._max_entries is not None and len(data) > self._max_entries) or (
            self._max_size is not None and self.size > self._max_size
        ):
            oldest = next(iter(data))
            held, held_size = data.pop(oldest)
            self.size -= held_size
            evicted.append((oldest, held))
        self.evictions += len(evicted)
        return evicted

    def _notify(self, evicted: list) -> None:
        if self._on_evict is not None:
            for key, value in evicted:
                self._on_evict(key, value)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data
