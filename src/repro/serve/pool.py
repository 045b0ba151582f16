"""The warm-session pool: fully evaluated sessions, keyed canonically.

An online what-if service answers against a *baseline* — a network, two
traffic matrices, a weight setting, and a cost mode — and the expensive
part of a query is everything that baseline implies: routings, per-
destination load rows, the sweep engine's derivation state.  The pool
keeps that state warm across requests.

Keys are content hashes, not identities: a :class:`SessionSpec` is a
canonical description of the baseline (topology family + traffic
parameters + seed + weight setting + cost mode), and
:meth:`SessionSpec.key` is the SHA-256 of its canonical JSON.  Because
:meth:`repro.api.Session.from_config` is a pure function of its config
(all randomness flows from SHA-derived streams), **rebuild-on-miss is
deterministic**: evicting a session and rebuilding it from the same spec
yields a session whose query answers are byte-identical to the evicted
one's — the property that lets the pool evict freely under memory
pressure without ever changing a response.

Eviction is LRU with a configurable capacity; every build runs
:meth:`~repro.api.Session.prepare`, so a pooled session answers its
first query at warm-path latency.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.api.session import Session
from repro.eval.experiment import ExperimentConfig
from repro.obs import MetricsRegistry
from repro.routing.weights import as_weight_array, unit_weights

UNIT_WEIGHTS = "unit"
"""The default weight policy: hop-count (all-ones) weights."""

WeightsLike = Union[str, tuple, list, dict]

_SPEC_FIELDS = (
    "topology", "mode", "utilization", "fraction", "density", "seed", "weights",
)


def _canonical_weights(weights: WeightsLike) -> Union[str, tuple]:
    """Normalize a weight policy to its canonical, hashable form.

    ``"unit"`` stays symbolic; explicit vectors become
    ``(("high", (...)), ("low", (...)))`` tuples of ints, with ``low``
    defaulting to ``high`` (the STR deployment).  Vectors are validated
    through :func:`~repro.routing.weights.as_weight_array`, so a
    fractional or out-of-range weight raises (HTTP 400) instead of being
    truncated into another baseline's key.
    """
    if isinstance(weights, str):
        if weights != UNIT_WEIGHTS:
            raise ValueError(
                f"unknown weight policy {weights!r}: expected {UNIT_WEIGHTS!r}, "
                "a weight list, or {'high': [...], 'low': [...]}"
            )
        return UNIT_WEIGHTS
    if isinstance(weights, dict):
        unknown = set(weights) - {"high", "low"}
        if unknown:
            raise ValueError(f"unknown weight keys {sorted(unknown)}")
        if "high" not in weights:
            raise ValueError("a weights mapping needs at least 'high'")
        high = _weight_tuple(weights["high"])
        low = _weight_tuple(weights.get("low", high))
        return (("high", high), ("low", low))
    high = _weight_tuple(weights)
    return (("high", high), ("low", high))


def _weight_tuple(vector) -> tuple[int, ...]:
    """A validated weight vector as a tuple of ints (length checked at build)."""
    vector = list(vector)
    return tuple(int(w) for w in as_weight_array(vector, len(vector)))


@dataclass(frozen=True)
class SessionSpec:
    """Canonical description of one servable baseline.

    The experiment-grid coordinates every other layer already uses
    (``repro-dtr optimize``, campaigns), plus the baseline weight
    setting.  Two specs with equal fields hash to the same pool key, and
    a spec fully determines the session built from it.
    """

    topology: str = "random"
    mode: str = "load"
    utilization: float = 0.6
    fraction: float = 0.30
    density: float = 0.10
    seed: int = 1
    weights: Union[str, tuple] = field(default=UNIT_WEIGHTS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _canonical_weights(self.weights))
        # Fail fast on bad grid coordinates, before a build is attempted.
        self.to_config()

    @classmethod
    def from_jsonable(cls, data: Optional[dict]) -> "SessionSpec":
        """Build a spec from a JSON request body (``None`` -> defaults).

        Raises:
            ValueError: on unknown fields or malformed values — the HTTP
                layer turns this into a 400, never a silent default.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError(f"session spec must be an object, got {type(data).__name__}")
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown session spec fields {sorted(unknown)}; "
                f"expected a subset of {list(_SPEC_FIELDS)}"
            )
        return cls(**{k: data[k] for k in _SPEC_FIELDS if k in data})

    def to_jsonable(self) -> dict:
        """The canonical JSON form the key is hashed over."""
        weights = self.weights
        if weights != UNIT_WEIGHTS:
            weights = {name: list(vector) for name, vector in weights}
        return {
            "topology": self.topology,
            "mode": self.mode,
            "utilization": self.utilization,
            "fraction": self.fraction,
            "density": self.density,
            "seed": self.seed,
            "weights": weights,
        }

    def key(self) -> str:
        """SHA-256 over the canonical JSON of this spec (the pool key)."""
        text = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]

    def to_config(self) -> ExperimentConfig:
        """The experiment config the session is built from."""
        return ExperimentConfig(
            topology=self.topology,
            mode=self.mode,
            target_utilization=self.utilization,
            high_fraction=self.fraction,
            high_density=self.density,
            seed=self.seed,
        )

    def build(self) -> Session:
        """Deterministically build and warm the session this spec names."""
        session = Session.from_config(self.to_config())
        # This session is freshly built and not yet shared — no other
        # thread can hold a reference until build() returns it to the
        # pool, so the lock discipline does not apply here.
        if self.weights == UNIT_WEIGHTS:
            session.set_weights(  # repro-lint: disable=RL004
                unit_weights(session.network.num_links)
            )
        else:
            vectors = dict(self.weights)
            session.set_weights(  # repro-lint: disable=RL004
                vectors["high"], vectors["low"]
            )
        return session.prepare()


class SessionPool:
    """An LRU pool of warm sessions keyed by :meth:`SessionSpec.key`.

    Thread-safe: lookups, inserts, and evictions run under one pool
    lock.  A miss *builds under the lock* — deliberately, so concurrent
    requests for the same cold baseline trigger one build, not several;
    requests for already-warm sessions queue briefly behind it, which is
    the right trade for a pool whose hit path is the common case.  The
    returned sessions are shared objects: callers that evaluate on them
    concurrently must hold ``session.lock`` (the scheduler does).
    """

    def __init__(self, capacity: int = 4, registry: Optional["MetricsRegistry"] = None) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, tuple[SessionSpec, Session]] = OrderedDict()
        self.registry = registry if registry is not None else MetricsRegistry()
        _events = "repro_serve_pool_events_total"
        _help = "Session-pool lookup outcomes, builds, and evictions."
        self._hits = self.registry.counter(_events, _help, {"event": "hit"})
        self._misses = self.registry.counter(_events, _help, {"event": "miss"})
        self._builds = self.registry.counter(_events, _help, {"event": "build"})
        self._evictions = self.registry.counter(_events, _help, {"event": "eviction"})
        self._build_seconds = self.registry.histogram(
            "repro_serve_pool_build_seconds",
            "Wall time to deterministically rebuild a session on miss.",
        )
        self._size = self.registry.gauge(
            "repro_serve_pool_size", "Warm sessions currently pooled."
        )

    def get(self, spec: SessionSpec) -> tuple[str, Session]:
        """The warm session for ``spec``, building (and evicting) on miss.

        Returns:
            ``(key, session)`` — the canonical key is what the plan
            cache and the scheduler group on.
        """
        key = spec.key()
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                self._sessions.move_to_end(key)
                self._hits.inc()
                return key, entry[1]
            self._misses.inc()
            started = time.perf_counter()
            session = spec.build()
            self._build_seconds.observe(time.perf_counter() - started)
            self._builds.inc()
            self._sessions[key] = (spec, session)
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._sessions))
            return key, session

    def add(self, key: str, spec: Optional[SessionSpec], session: Session) -> None:
        """Pin a prebuilt session under an explicit key (facade entry)."""
        with self._lock:
            self._sessions[key] = (spec, session)
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._sessions))

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def metrics(self) -> dict:
        """Counters plus current occupancy (the ``/metrics`` JSON block).

        Snapshot under the pool lock — the lock all mutations hold — so
        ``hits + misses == lookups`` and ``builds <= misses`` hold in
        any snapshot.
        """
        with self._lock:
            hits = int(self._hits.value)
            misses = int(self._misses.value)
            return {
                "hits": hits,
                "misses": misses,
                "lookups": hits + misses,
                "builds": int(self._builds.value),
                "evictions": int(self._evictions.value),
                "size": len(self._sessions),
                "capacity": self.capacity,
            }
