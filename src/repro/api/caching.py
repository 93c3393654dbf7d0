"""A tiny thread-safe bounded map, shared by the API layer's caches.

Two module-level caches ride on this: the boot-image cache
(:mod:`repro.api.worlds`) and the run-result cache
(:mod:`repro.api.batch`).  Entries are only ever whole immutable
values (template kernels handed out by fork, frozen results), so the
only concurrency contract needed is that racing inserts agree on one
winner — ``put`` has setdefault semantics and returns the stored value.
"""

from __future__ import annotations

import threading
from typing import Any


class BoundedCache:
    """Bounded mapping with least-recently-used eviction.

    A hit refreshes its entry, and eviction drops the least recently
    used one whenever the bound is exceeded; an evicted entry is simply
    recomputed by its owner on the next miss.

    Example (a private result cache for one :class:`repro.api.Batch`)::

        from repro.api import BoundedCache

        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)              # bound exceeded: "a" evicted
        assert cache.get("a") is None
        assert cache.put("b", 99) == 2  # setdefault semantics
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self._maxsize = maxsize
        self._data: dict[Any, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any | None:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data[key] = self._data.pop(key)
            return value

    def put(self, key: Any, value: Any) -> Any:
        """Insert unless present; returns the stored value (setdefault
        semantics, so concurrent inserts agree on the first winner)."""
        with self._lock:
            value = self._data.setdefault(key, value)
            while len(self._data) > self._maxsize:
                self._data.pop(next(iter(self._data)))
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
