"""One bounded, thread-safe least-recently-used map.

The engine cache's sections (its relaxation spaces included), the
service's engine pool, ensemble registry and workload cache, and the
router's inline-ensemble and placement maps are all :class:`LRU`
instances.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_MISSING = object()


class LRU:
    """A size-bounded mapping with least-recently-used eviction.

    An :class:`~collections.OrderedDict` under one lock, held only for
    the dict operation itself: callers compute values outside it.  A
    ``get`` hit and every ``put`` mark the key most recent; ``in`` does
    not.  ``put`` past :attr:`capacity` evicts the least recent entry.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        """The value under ``key`` (marking it most recent), or ``default``."""
        # A sentinel instead of try/except: misses are the common cold
        # path and must not pay exception dispatch.
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Insert or refresh ``key``, evicting past :attr:`capacity`."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
