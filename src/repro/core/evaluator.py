"""Cached, delta-aware evaluation of dual weight settings.

The search evaluates thousands of weight settings that differ from each
other in only one topology (FindH perturbs only the high-priority weights,
FindL only the low-priority weights).  The evaluator therefore caches two
independent layers keyed by weight vector:

* the *high layer* — high-priority routing, per-destination and total
  loads, residual capacities, per-link high cost, and (in SLA mode) link
  delays, per-pair flow fractions, and per-pair penalties;
* the *low layer* — low-priority routing and loads.

A full evaluation combines one entry of each layer with a cheap O(|E|)
costing pass, so FindL iterations reuse the entire high layer and FindH
iterations reuse the low-priority loads.

On top of that sits the incremental-SPF delta path: neighbors in the
search differ from their parent in one or two link weights, so when a
caller supplies the parent vector and a
:class:`~repro.routing.incremental.WeightDelta` (see
:meth:`DualTopologyEvaluator.evaluate_high_neighbor` and friends), a
cache-missed layer is *derived* from the parent's layer instead of
rebuilt: only the destinations whose SP structure can change (the slack
test of :func:`repro.routing.incremental.affected_destinations`) get
their Dijkstra row, SP DAG, load row, and (in SLA mode) pair fractions
recomputed; everything else is reused verbatim.  Both paths assemble
total loads by summing the per-destination rows in the same order, so a
derived layer is bit-identical to a rebuilt one.  ``incremental=False``
falls back to full recomputation everywhere, and
``verify_incremental=True`` cross-checks every derived layer against a
full rebuild (the verification fallback used by the property tests).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.costs.fortz import fortz_cost_vector
from repro.costs.load_cost import LoadCostEvaluation
from repro.costs.residual import residual_capacities
from repro.costs.sla import SlaCostEvaluation, SlaParams, link_delays_ms
from repro.network.graph import Network
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_routing,
)
from repro.routing.state import Routing
from repro.routing.weights import as_weight_array, weights_key
from repro.traffic.matrix import TrafficMatrix

LOAD_MODE = "load"
SLA_MODE = "sla"

Evaluation = Union[LoadCostEvaluation, SlaCostEvaluation]


class IncrementalMismatchError(RuntimeError):
    """An incrementally derived layer disagreed with a full rebuild."""


@dataclass
class _HighLayer:
    routing: Routing
    dest_rows: np.ndarray
    loads: np.ndarray
    residual: np.ndarray
    per_link_cost: np.ndarray
    link_delays: Optional[np.ndarray] = None
    pair_fractions: Optional[dict[tuple[int, int], np.ndarray]] = None
    pair_delays: Optional[dict[tuple[int, int], float]] = None
    penalty: float = 0.0
    violations: int = 0


@dataclass
class _LowLayer:
    routing: Routing
    dest_rows: np.ndarray
    loads: np.ndarray


class _LruCache:
    """A small bytes-keyed LRU cache."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._store: OrderedDict[bytes, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes):
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def peek(self, key: Optional[bytes]):
        """Look up without touching the hit/miss counters.

        Recency *is* refreshed: a peeked entry is a search's current base
        layer, which must not be evicted while candidate layers stream in
        around it (e.g. a long rejection streak in annealing).
        """
        if key is None:
            return None
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
        return entry

    def put(self, key: bytes, value: object) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self._capacity:
            self._store.popitem(last=False)


def _ordered_row_sum(rows: np.ndarray, num_links: int) -> np.ndarray:
    """Sum per-destination load rows left to right.

    A fixed summation order keeps full and incrementally derived layers
    bit-identical (numpy reductions may regroup additions).
    """
    loads = np.zeros(num_links)
    for row in rows:
        loads += row
    return loads


class DualTopologyEvaluator:
    """Evaluates ``(W_H, W_L)`` under the load-based or SLA-based objective.

    Args:
        net: The network.
        high_traffic: High-priority traffic matrix ``T_H``.
        low_traffic: Low-priority traffic matrix ``T_L``.
        mode: ``"load"`` for objective ``A`` (Eq. 2) or ``"sla"`` for
            objective ``S`` (Eq. 5).
        sla_params: SLA bound/penalty parameters (SLA mode only).
        cache_size: Entries kept per cache layer.
        incremental: Whether cache-missed layers may be derived from a
            cached parent layer via incremental SPF when the caller
            supplies a weight delta.  ``False`` forces full recomputation
            (the verification fallback path).
        verify_incremental: Cross-check every incrementally derived layer
            against a full rebuild and raise
            :class:`IncrementalMismatchError` on disagreement.  Expensive;
            meant for tests and debugging.
    """

    _routing_class = Routing
    """The class fresh routings are built with; the scalar reference
    evaluator (:class:`repro._reference.ScalarEvaluator`) swaps it."""

    def __init__(
        self,
        net: Network,
        high_traffic: TrafficMatrix,
        low_traffic: TrafficMatrix,
        mode: str = LOAD_MODE,
        sla_params: Optional[SlaParams] = None,
        cache_size: int = 128,
        incremental: bool = True,
        verify_incremental: bool = False,
    ) -> None:
        if mode not in (LOAD_MODE, SLA_MODE):
            raise ValueError(f"mode must be '{LOAD_MODE}' or '{SLA_MODE}', got {mode!r}")
        if high_traffic.num_nodes != net.num_nodes or low_traffic.num_nodes != net.num_nodes:
            raise ValueError("traffic matrix size does not match the network")
        self._net = net
        self._high_traffic = high_traffic
        self._low_traffic = low_traffic
        self.mode = mode
        self.sla_params = sla_params or SlaParams()
        self.incremental = bool(incremental)
        self.verify_incremental = bool(verify_incremental)
        self._high_cache = _LruCache(cache_size)
        self._low_cache = _LruCache(cache_size)
        self._full_cache = _LruCache(cache_size * 2)
        # Routings depend only on the weight vector, so high and low layers
        # share them: entries are (routing, parent_key, affected_set).
        self._routing_memo = _LruCache(cache_size * 2)
        self._high_demands = high_traffic.demands
        self._low_demands = low_traffic.demands
        self._high_active = np.flatnonzero(self._high_demands.sum(axis=0) > 0)
        self._low_active = np.flatnonzero(self._low_demands.sum(axis=0) > 0)
        self.evaluations = 0
        self._incremental_stats = {
            "high_incremental": 0,
            "high_full": 0,
            "low_incremental": 0,
            "low_full": 0,
        }
        # Telemetry (out-of-band, rule RL006): instruments are resolved
        # once here so the per-evaluation cost is a flag check plus one
        # locked add — gated <=5% by benchmarks/test_bench_obs.py.
        _cache_ev = "repro_evaluator_cache_events_total"
        _cache_help = "Full-evaluation cache hits and misses."
        self._obs_full_hit = obs.counter(_cache_ev, _cache_help, {"cache": "full", "event": "hit"})
        self._obs_full_miss = obs.counter(_cache_ev, _cache_help, {"cache": "full", "event": "miss"})
        _memo = "repro_evaluator_routing_memo_total"
        _memo_help = "Shared routing-memo hits and misses."
        self._obs_memo_hit = obs.counter(_memo, _memo_help, {"event": "hit"})
        self._obs_memo_miss = obs.counter(_memo, _memo_help, {"event": "miss"})
        _builds = "repro_evaluator_layer_builds_total"
        _builds_help = "Cache-missed layers by build path (incremental vs full)."
        self._obs_builds = {
            (layer, path): obs.counter(_builds, _builds_help, {"layer": layer, "path": path})
            for layer in ("high", "low")
            for path in ("incremental", "full")
        }
        self._obs_eval_seconds = obs.histogram(
            "repro_evaluator_evaluate_seconds",
            "Full dual-topology evaluation latency (cache misses).",
        )
        self._obs_layer_seconds = {
            layer: obs.histogram(
                "repro_evaluator_layer_seconds",
                "Per-layer build latency on cache miss.",
                {"layer": layer},
            )
            for layer in ("high", "low")
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The network being evaluated."""
        return self._net

    @property
    def high_traffic(self) -> TrafficMatrix:
        """High-priority traffic matrix."""
        return self._high_traffic

    @property
    def low_traffic(self) -> TrafficMatrix:
        """Low-priority traffic matrix."""
        return self._low_traffic

    def evaluate(
        self,
        high_weights: np.ndarray,
        low_weights: np.ndarray,
        *,
        high_base: Optional[np.ndarray] = None,
        high_delta: Optional[WeightDelta] = None,
        low_base: Optional[np.ndarray] = None,
        low_delta: Optional[WeightDelta] = None,
    ) -> Evaluation:
        """Full evaluation of a dual weight setting.

        The keyword arguments are optional incremental-SPF hints: when
        ``high_base``/``high_delta`` are given, ``high_weights`` must equal
        ``high_delta.apply(high_base)`` and a cache miss on the high layer
        is derived from the (expected cached) layer of ``high_base``
        instead of rebuilt; likewise for the low layer.  Hints never
        change the result — only how a missed layer is computed.

        Returns a :class:`LoadCostEvaluation` in load mode or a
        :class:`SlaCostEvaluation` in SLA mode; both expose ``.objective``
        (the lexicographic cost) and the per-link sort keys the search
        routines consume.
        """
        self.evaluations += 1
        # Validate BEFORE keying: a bare int64 cast truncates fractional
        # weights, silently keying `w + 0.5` as `floor(w)` and returning a
        # cached result computed for different weights.
        hw = as_weight_array(high_weights, self._net.num_links)
        lw = as_weight_array(low_weights, self._net.num_links)
        hk = weights_key(hw)
        lk = weights_key(lw)
        full_key = hk + b"|" + lk
        cached = self._full_cache.get(full_key)
        if cached is not None:
            self._obs_full_hit.inc()
            return cached
        self._obs_full_miss.inc()
        started = perf_counter()

        with obs.span("evaluate", mode=self.mode):
            hbk = (
                weights_key(as_weight_array(high_base, self._net.num_links))
                if high_base is not None
                else None
            )
            lbk = (
                weights_key(as_weight_array(low_base, self._net.num_links))
                if low_base is not None
                else None
            )
            high = self._high_layer(hk, hw, base_key=hbk, delta=high_delta)
            low = self._low_layer(lk, lw, base_key=lbk, delta=low_delta)
            per_link_low = fortz_cost_vector(low.loads, high.residual)
            utilization = (high.loads + low.loads) / self._net.capacities()

            if self.mode == LOAD_MODE:
                result: Evaluation = LoadCostEvaluation(
                    phi_high=float(high.per_link_cost.sum()),
                    phi_low=float(per_link_low.sum()),
                    per_link_high=high.per_link_cost,
                    per_link_low=per_link_low,
                    high_loads=high.loads,
                    low_loads=low.loads,
                    residual=high.residual,
                    utilization=utilization,
                )
            else:
                result = SlaCostEvaluation(
                    penalty=high.penalty,
                    phi_low=float(per_link_low.sum()),
                    violations=high.violations,
                    pair_delays_ms=high.pair_delays,
                    link_delays=high.link_delays,
                    per_link_low=per_link_low,
                    high_loads=high.loads,
                    low_loads=low.loads,
                    residual=high.residual,
                    utilization=utilization,
                    params=self.sla_params,
                )
            self._full_cache.put(full_key, result)
        self._obs_eval_seconds.observe(perf_counter() - started)
        return result

    def evaluate_str(self, weights: np.ndarray) -> Evaluation:
        """Evaluate single-topology routing: both classes on ``weights``."""
        return self.evaluate(weights, weights)

    def evaluate_high_neighbor(
        self, high_base: np.ndarray, low_weights: np.ndarray, delta: WeightDelta
    ) -> tuple[np.ndarray, Evaluation]:
        """Evaluate a FindH move: ``delta`` applied to ``high_base``.

        Returns:
            ``(neighbor_high_weights, evaluation)``.
        """
        hw = delta.apply(high_base)
        return hw, self.evaluate(
            hw, low_weights, high_base=high_base, high_delta=delta
        )

    def evaluate_low_neighbor(
        self, high_weights: np.ndarray, low_base: np.ndarray, delta: WeightDelta
    ) -> tuple[np.ndarray, Evaluation]:
        """Evaluate a FindL move: ``delta`` applied to ``low_base``.

        Returns:
            ``(neighbor_low_weights, evaluation)``.
        """
        lw = delta.apply(low_base)
        return lw, self.evaluate(
            high_weights, lw, low_base=low_base, low_delta=delta
        )

    def evaluate_str_neighbor(
        self, base: np.ndarray, delta: WeightDelta
    ) -> tuple[np.ndarray, Evaluation]:
        """Evaluate an STR move: ``delta`` applied to ``base`` in both classes.

        Returns:
            ``(neighbor_weights, evaluation)``.
        """
        w = delta.apply(base)
        return w, self.evaluate(
            w, w, high_base=base, high_delta=delta, low_base=base, low_delta=delta
        )

    def high_routing(self, high_weights: np.ndarray) -> Routing:
        """The (cached) high-priority routing for ``high_weights``."""
        hw = as_weight_array(high_weights, self._net.num_links)
        return self._high_layer(weights_key(hw), hw).routing

    def low_routing(self, low_weights: np.ndarray) -> Routing:
        """The (cached) low-priority routing for ``low_weights``."""
        lw = as_weight_array(low_weights, self._net.num_links)
        return self._low_layer(weights_key(lw), lw).routing

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss counters of the cache layers plus incremental-SPF counters.

        ``high_incremental``/``low_incremental`` count cache-missed layers
        derived from a parent via incremental SPF; ``high_full``/``low_full``
        count layers rebuilt from scratch.
        """
        return {
            "high_hits": self._high_cache.hits,
            "high_misses": self._high_cache.misses,
            "low_hits": self._low_cache.hits,
            "low_misses": self._low_cache.misses,
            "full_hits": self._full_cache.hits,
            "full_misses": self._full_cache.misses,
            **self._incremental_stats,
        }

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def _high_layer(
        self,
        key: bytes,
        weights: np.ndarray,
        base_key: Optional[bytes] = None,
        delta: Optional[WeightDelta] = None,
    ) -> _HighLayer:
        layer = self._high_cache.get(key)
        if layer is not None:
            return layer
        parent = None
        if self.incremental and delta is not None and delta.num_changes:
            parent = self._high_cache.peek(base_key)
        started = perf_counter()
        if parent is not None:
            layer = self._build_high_layer(
                weights, parent=parent, delta=delta, child_key=key, parent_key=base_key
            )
            self._incremental_stats["high_incremental"] += 1
            self._obs_builds[("high", "incremental")].inc()
            if self.verify_incremental:
                self._verify_layer(layer, self._build_high_layer(weights), "high")
        else:
            layer = self._build_high_layer(weights, child_key=key)
            self._incremental_stats["high_full"] += 1
            self._obs_builds[("high", "full")].inc()
        self._obs_layer_seconds["high"].observe(perf_counter() - started)
        self._high_cache.put(key, layer)
        return layer

    def _low_layer(
        self,
        key: bytes,
        weights: np.ndarray,
        base_key: Optional[bytes] = None,
        delta: Optional[WeightDelta] = None,
    ) -> _LowLayer:
        layer = self._low_cache.get(key)
        if layer is not None:
            return layer
        parent = None
        if self.incremental and delta is not None and delta.num_changes:
            parent = self._low_cache.peek(base_key)
        started = perf_counter()
        if parent is not None:
            layer = self._build_low_layer(
                weights, parent=parent, delta=delta, child_key=key, parent_key=base_key
            )
            self._incremental_stats["low_incremental"] += 1
            self._obs_builds[("low", "incremental")].inc()
            if self.verify_incremental:
                self._verify_layer(layer, self._build_low_layer(weights), "low")
        else:
            layer = self._build_low_layer(weights, child_key=key)
            self._incremental_stats["low_full"] += 1
            self._obs_builds[("low", "full")].inc()
        self._obs_layer_seconds["low"].observe(perf_counter() - started)
        self._low_cache.put(key, layer)
        return layer

    def _derive_or_build(
        self,
        weights: np.ndarray,
        parent_routing: Optional[Routing],
        delta: Optional[WeightDelta],
        child_key: Optional[bytes] = None,
        parent_key: Optional[bytes] = None,
    ) -> tuple[Routing, Optional[set[int]]]:
        """Child routing plus its affected-destination set (``None`` = all).

        Routings are memoized by weight key and shared across the high and
        low layers (an STR move builds the routing once, not twice).
        ``child_key=None`` bypasses the memo — the verification rebuild
        must not be handed the very derived routing it is checking.
        """
        memo = self._routing_memo.peek(child_key)
        if memo is not None:
            self._obs_memo_hit.inc()
            routing, memo_parent_key, affected = memo
            if parent_routing is None or delta is None:
                return routing, None
            if memo_parent_key == parent_key and affected is not None:
                return routing, affected
            return routing, set(
                int(t)
                for t in affected_destinations(
                    self._net, parent_routing.distance_matrix, delta
                )
            )
        self._obs_memo_miss.inc()
        if parent_routing is None or delta is None:
            routing, affected = self._routing_class(self._net, weights), None
        else:
            derived, affected_array = derive_routing(parent_routing, delta)
            if not np.array_equal(derived.weights, np.asarray(weights, dtype=np.int64)):
                raise ValueError(
                    "incremental hint mismatch: delta applied to base does not "
                    "produce the requested weight vector"
                )
            routing = derived
            affected = set(int(t) for t in affected_array)
        if child_key is not None:
            self._routing_memo.put(child_key, (routing, parent_key, affected))
        return routing, affected

    def _dest_rows(
        self,
        routing: Routing,
        active: np.ndarray,
        demands: np.ndarray,
        parent_rows: Optional[np.ndarray],
        affected: Optional[set[int]],
    ) -> np.ndarray:
        """Per-destination load rows, reusing parent rows where possible.

        Rows are computed through :meth:`Routing.destination_rows` — one
        batched kernel pass over every destination that needs rebuilding
        instead of a per-destination Python loop.
        """
        if affected is None:
            if active.size == 0:
                return np.empty((0, self._net.num_links))
            if active.size == demands.shape[1]:
                # Every destination active: the transpose view skips a
                # full-matrix column gather (the kernel copies anyway).
                return routing.destination_rows(active, demands.T)
            return routing.destination_rows(active, demands[:, active].T)
        rows = parent_rows.copy()
        idx = [i for i, t in enumerate(active) if int(t) in affected]
        if idx:
            ts = active[idx]
            rows[idx] = routing.destination_rows(ts, demands[:, ts].T)
        return rows

    def _build_high_layer(
        self,
        weights: np.ndarray,
        parent: Optional[_HighLayer] = None,
        delta: Optional[WeightDelta] = None,
        child_key: Optional[bytes] = None,
        parent_key: Optional[bytes] = None,
    ) -> _HighLayer:
        routing, affected = self._derive_or_build(
            weights, parent.routing if parent else None, delta, child_key, parent_key
        )
        rows = self._dest_rows(
            routing,
            self._high_active,
            self._high_demands,
            parent.dest_rows if parent else None,
            affected,
        )
        loads = _ordered_row_sum(rows, self._net.num_links)
        capacities = self._net.capacities()
        residual = residual_capacities(capacities, loads)
        per_link_cost = fortz_cost_vector(loads, capacities)
        layer = _HighLayer(
            routing=routing,
            dest_rows=rows,
            loads=loads,
            residual=residual,
            per_link_cost=per_link_cost,
        )
        if self.mode == SLA_MODE:
            delays = link_delays_ms(
                self._net, loads, per_link_cost, self.sla_params.packet_size_bits
            )
            # Pairs sharing a destination share its DAG: group them so
            # each destination's fractions come from one batched kernel
            # pass, then fold penalties in the original pairs() order
            # (the accumulation order is part of the bit-identity
            # contract with the non-grouped build).
            by_dest: dict[int, list[int]] = {}
            for s, t, _rate in self._high_traffic.pairs():
                if affected is not None and t not in affected:
                    continue
                by_dest.setdefault(t, []).append(s)
            fresh: dict[tuple[int, int], np.ndarray] = {}
            for t, sources in by_dest.items():
                frac_rows = routing.pair_fraction_rows(t, sources)
                for j, s in enumerate(sources):
                    fresh[(s, t)] = frac_rows[j].copy()
            fractions: dict[tuple[int, int], np.ndarray] = {}
            pair_delays: dict[tuple[int, int], float] = {}
            penalty = 0.0
            violations = 0
            for s, t, _rate in self._high_traffic.pairs():
                frac = fresh.get((s, t))
                if frac is None:
                    frac = parent.pair_fractions[(s, t)]
                fractions[(s, t)] = frac
                xi = float(frac @ delays)
                pair_delays[(s, t)] = xi
                pair_penalty = self.sla_params.pair_penalty(xi)
                if pair_penalty > 0:
                    violations += 1
                    penalty += pair_penalty
            layer.link_delays = delays
            layer.pair_fractions = fractions
            layer.pair_delays = pair_delays
            layer.penalty = penalty
            layer.violations = violations
        return layer

    def _build_low_layer(
        self,
        weights: np.ndarray,
        parent: Optional[_LowLayer] = None,
        delta: Optional[WeightDelta] = None,
        child_key: Optional[bytes] = None,
        parent_key: Optional[bytes] = None,
    ) -> _LowLayer:
        routing, affected = self._derive_or_build(
            weights, parent.routing if parent else None, delta, child_key, parent_key
        )
        rows = self._dest_rows(
            routing,
            self._low_active,
            self._low_demands,
            parent.dest_rows if parent else None,
            affected,
        )
        return _LowLayer(
            routing=routing,
            dest_rows=rows,
            loads=_ordered_row_sum(rows, self._net.num_links),
        )

    def _verify_layer(self, derived, rebuilt, which: str) -> None:
        """Cross-check a derived layer against a full rebuild.

        Derived and rebuilt layers are contractually *bit-identical*, so
        the per-destination rows and every derived field are compared
        exactly — a corrupted row that still sums within the loads
        tolerance (the old blind spot) cannot slip through and resurface
        later via row reuse.
        """
        if not np.allclose(
            derived.routing.distance_matrix,
            rebuilt.routing.distance_matrix,
            rtol=1e-12,
            atol=1e-9,
        ):
            raise IncrementalMismatchError(f"{which} layer: distance matrices differ")
        if not np.array_equal(derived.dest_rows, rebuilt.dest_rows):
            raise IncrementalMismatchError(
                f"{which} layer: per-destination rows differ"
            )
        if not np.allclose(derived.loads, rebuilt.loads, rtol=1e-12, atol=1e-9):
            raise IncrementalMismatchError(f"{which} layer: link loads differ")
        if which == "high":
            if not np.array_equal(derived.residual, rebuilt.residual):
                raise IncrementalMismatchError("high layer: residuals differ")
            if not np.array_equal(derived.per_link_cost, rebuilt.per_link_cost):
                raise IncrementalMismatchError("high layer: per-link costs differ")
        if which == "high" and self.mode == SLA_MODE:
            if not np.array_equal(derived.link_delays, rebuilt.link_delays):
                raise IncrementalMismatchError("high layer: link delays differ")
            if set(derived.pair_fractions) != set(rebuilt.pair_fractions):
                raise IncrementalMismatchError("high layer: pair sets differ")
            for pair, frac in rebuilt.pair_fractions.items():
                if not np.array_equal(derived.pair_fractions[pair], frac):
                    raise IncrementalMismatchError(
                        f"high layer: pair fractions differ for {pair}"
                    )
            if derived.pair_delays != rebuilt.pair_delays:
                raise IncrementalMismatchError("high layer: pair delays differ")
            if derived.violations != rebuilt.violations:
                raise IncrementalMismatchError("high layer: violation counts differ")
            if abs(derived.penalty - rebuilt.penalty) > 1e-9 * max(
                1.0, abs(rebuilt.penalty)
            ):
                raise IncrementalMismatchError("high layer: SLA penalties differ")
