"""A thread-safe LRU cache bounded by entry count and, optionally, bytes.

Every memo in the package (fused gate-plan and PTM-program segments,
channel superoperators, Laplacian spectra, service results) is one
:class:`BoundedCache`.  Callers look a key up with :meth:`BoundedCache.get`,
compute a missing value *outside* the lock, and hand it back with
:meth:`BoundedCache.put`.  Two threads can miss the same key at once; the
first ``put`` wins and every later ``put`` of that key returns the stored
value, so all callers share one object and its bytes are counted once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional

import numpy as np


class BoundedCache:
    """LRU cache holding at most ``maxsize`` entries and ``max_bytes`` bytes.

    ``max_bytes=None`` means the cache is bounded by entry count only.  A
    value larger than the whole byte budget is returned to its caller but
    not stored, so one giant value cannot flush every other entry.
    """

    def __init__(self, maxsize: int, max_bytes: Optional[int] = None):
        self.maxsize = int(maxsize)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        self._store: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (now the most recent entry), or ``None`` on a miss."""
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._store.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> Any:
        """Store ``value`` under ``key`` unless present; return the stored value."""
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store.move_to_end(key)
                return entry[0]
            if self.max_bytes is not None and nbytes > self.max_bytes:
                return value
            self._store[key] = (value, nbytes)
            self._bytes += nbytes
            while len(self._store) > self.maxsize or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                _, (_, evicted_bytes) = self._store.popitem(last=False)
                self._bytes -= evicted_bytes
            return value

    def info(self) -> Dict[str, int]:
        """``hits``/``misses``/``entries`` (and ``bytes`` when byte-budgeted)."""
        with self._lock:
            info = {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}
            if self.max_bytes is not None:
                info["bytes"] = self._bytes
            return info

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self._bytes = 0


def distinct_nbytes(arrays: Iterable[np.ndarray]) -> int:
    """Bytes retained by ``arrays``: each distinct root buffer counted once.

    A view (a controlled block of its wide matrix) or a shared array (one
    memoised channel superoperator standing alone in several fused blocks)
    adds nothing beyond the buffer it points into.
    """
    roots = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        roots[id(array)] = array.nbytes
    return sum(roots.values())
