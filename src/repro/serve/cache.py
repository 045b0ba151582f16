"""The plan cache: canonical scenario spec -> encoded answer.

Scenario queries are pure functions of ``(baseline, scenario)``: the
session's evaluation pipeline is deterministic, so the *first* answer to
a query is also every later answer.  The cache therefore stores the
**encoded payload** (the JSON-safe dict of
:func:`repro.serve.encoding.whatif_payload`), not the live result — a
hit serves the exact bytes a fresh evaluation would have produced,
keeping the bit-identity contract trivially true on both paths.

Keys are ``(session key, canonical scenario spec)`` where the spec text
is canonicalized through the scenario grammar
(:func:`repro.scenarios.spec.canonical_spec`): ``"link:2-5, 0-4"`` and
``"link:0-4,2-5"`` are one entry, so operators probing the same failure
in different spellings share work.  Eviction is LRU; hit/miss/eviction
counters feed ``/metrics``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.lru import LruCache
from repro.obs import MetricsRegistry


class PlanCache:
    """A thread-safe LRU of encoded query answers.

    Counters are registry-backed :mod:`repro.obs` instruments on a
    per-cache registry (two services in one process never share
    counters).  Every mutation happens under the cache lock, and
    :meth:`metrics` reads under the same lock, so any snapshot — even
    one taken mid-storm — satisfies ``hits + misses == lookups``.

    Args:
        capacity: Entries kept; a what-if payload is a few KB (three
            per-link float arrays), so the default bounds the cache at a
            few MB.
        registry: Instrument home; a private one by default.
    """

    def __init__(self, capacity: int = 1024, registry: Optional[MetricsRegistry] = None) -> None:
        self._store: LruCache[tuple[str, str], dict] = LruCache(capacity)
        self.capacity = self._store.capacity
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        _events = "repro_serve_plan_cache_events_total"
        _help = "Plan-cache lookup outcomes and evictions."
        self._hits = self.registry.counter(_events, _help, {"event": "hit"})
        self._misses = self.registry.counter(_events, _help, {"event": "miss"})
        self._evictions = self.registry.counter(_events, _help, {"event": "eviction"})
        self._size = self.registry.gauge(
            "repro_serve_plan_cache_size", "Entries currently cached."
        )

    def lookup(self, session_key: str, canonical: str) -> Optional[dict]:
        """The cached payload, or ``None``; counts a hit, never a miss.

        The scheduler answers hits with this before queueing a query.  A
        miss here is not a lookup outcome yet: the query goes on to
        :meth:`get_or_compute`, which counts it once, as a hit if an
        earlier query computed the spec meanwhile.  So every query
        counts exactly one lookup.
        """
        with self._lock:
            return self._hit((session_key, canonical))

    def get_or_compute(
        self,
        session_key: str,
        canonical: str,
        compute: Callable[[], dict],
    ) -> tuple[dict, bool]:
        """The cached payload for a canonical spec, computing on miss.

        ``compute`` runs *outside* the cache lock (it holds the session
        lock for the duration of an evaluation; nesting the cache lock
        around it would serialize unrelated sessions behind one slow
        query).  Two threads racing on the same cold key may therefore
        both compute — and, determinism again, compute *equal* payloads,
        so last-write-wins is harmless.

        Returns:
            ``(payload, hit)`` — ``hit`` feeds the request log and the
            scheduler's counters.
        """
        key = (session_key, canonical)
        with self._lock:
            entry = self._hit(key)
            if entry is not None:
                return entry, True
            self._misses.inc()
        payload = compute()
        with self._lock:
            self._evictions.inc(self._store.put(key, payload))
            self._size.set(len(self._store))
        return payload, False

    def _hit(self, key: tuple[str, str]) -> Optional[dict]:
        """The entry for ``key``, refreshed and counted as a hit (caller
        holds the lock)."""
        entry = self._store.peek(key)
        if entry is not None:
            self._hits.inc()
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def metrics(self) -> dict:
        """Counters plus occupancy (the ``/metrics`` JSON block).

        Taken under the cache lock — the same lock every counter
        mutation holds — so ``hits + misses == lookups`` in any
        snapshot, concurrent storm or not.
        """
        with self._lock:
            hits = int(self._hits.value)
            misses = int(self._misses.value)
            return {
                "hits": hits,
                "misses": misses,
                "lookups": hits + misses,
                "evictions": int(self._evictions.value),
                "size": len(self._store),
                "capacity": self.capacity,
            }
