"""The one bounded memo: a least-recently-used cache.

Every memo that must stay bounded is an :class:`LruCache` (the
evaluator's caches, a routing's schedules, the sweep engine's memos, the
plan cache, the session pool, slicing's loads).  Each holds a pure
function of its key, so eviction decides how much work is redone, never
what an answer is.  Not thread-safe: ``PlanCache`` and ``SessionPool``
hold their own locks, the evaluator and sweep engine run under
``Session.lock``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """At most ``capacity`` entries; the least recently used goes first.

    A missing key reads as ``None``, so ``None`` is never a value.  Only
    :meth:`get` counts, into :attr:`hits` and :attr:`misses`.
    """

    __slots__ = ("capacity", "hits", "misses", "_store")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K) -> Optional[V]:
        """The entry for ``key`` or ``None``, counted as a hit or a miss."""
        value = self.peek(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, key: K) -> Optional[V]:
        """Like :meth:`get`, uncounted.  Recency *is* refreshed: the
        evaluator peeks a search's base layer, which must survive a long
        rejection streak of candidate layers streaming in around it."""
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> int:
        """Insert or refresh ``key``; returns how many entries were evicted."""
        self._store[key] = value
        self._store.move_to_end(key)
        evicted = 0
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            evicted += 1
        return evicted

    def replace(self, key: K, value: V) -> None:
        """Swap the value of a present ``key``, leaving recency and counts
        alone; an absent key stays absent.  A caller that lays entries down
        in order before it can compute them (the evaluator's batched
        search steps) fills them in afterwards with this."""
        if key in self._store:
            self._store[key] = value

    def discard(self, key: K) -> None:
        """Drop ``key`` if present, leaving counts alone: the evaluator
        takes back the entries of a batch that failed."""
        self._store.pop(key, None)

    def __setitem__(self, key: K, value: V) -> None:
        self.put(key, value)

    def __contains__(self, key: object) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)
