"""Cached, delta-aware evaluation of dual weight settings.

The search evaluates thousands of weight settings that differ from each
other in only one topology (FindH perturbs only the high-priority weights,
FindL only the low-priority weights).  The evaluator therefore caches two
independent layers keyed by weight vector:

* the *high layer* — high-priority routing, per-destination and total
  loads, and their price (:func:`repro.costs.pricing.price_high`):
  residual capacities, per-link high cost, and (in SLA mode) link
  delays, per-pair delays and the folded penalty.  The pair delays come
  from one reverse pass over the routing's DAGs
  (:func:`repro.costs.sla.pair_delay_penalty`); no per-pair link
  fractions are stored;
* the *low layer* — low-priority routing and loads.

A full evaluation combines one entry of each layer with the cheap O(|E|)
combine step (:meth:`repro.costs.pricing.HighPrice.evaluation`), so
FindL iterations reuse the entire high layer and FindH iterations reuse
the low-priority loads.

On top of that sits the incremental-SPF delta path: neighbors in the
search differ from their parent in one or two link weights, so when a
caller supplies the parent vector and a
:class:`~repro.routing.incremental.WeightDelta` (see
:meth:`DualTopologyEvaluator.evaluate_high_neighbor` and friends), a
cache-missed layer is *derived* from the parent's layer instead of
rebuilt: only the destinations whose SP structure can change (the slack
test of :func:`repro.routing.incremental.affected_destinations`) get
their Dijkstra row, SP DAG and load row recomputed; everything else is
reused verbatim.  Both paths sum a layer's rows through
:meth:`repro.routing.state.ClassLoads.refresh`, in one fixed
order, so a derived layer is bit-identical to a rebuilt one.  In SLA mode the link delays move with
the loads, so every pair delay is recomputed; the reverse pass reads the
same DAGs and delays either way and its per-node sums do not depend on
batching, so the pair delays are bit-identical too.
``incremental=False`` falls back to full recomputation everywhere, and
``verify_incremental=True`` cross-checks every derived layer against a
full rebuild (the verification fallback used by the property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from repro import obs
from repro.costs.pricing import HighPrice, check_mode, price_high
from repro.costs.pricing import LOAD_MODE, SLA_MODE, Evaluation  # noqa: F401  (re-export)
from repro.costs.sla import SlaParams
from repro.lru import LruCache
from repro.network.graph import Network
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_routing,
)
from repro.routing.state import ClassLoads, Routing, active_destinations
from repro.routing.weights import as_weight_array, weights_key
from repro.traffic.matrix import TrafficMatrix


class IncrementalMismatchError(RuntimeError):
    """An incrementally derived layer disagreed with a full rebuild."""


@dataclass
class _Layer(ClassLoads):
    """One class's cached state for one weight vector.

    A high layer also holds its :class:`~repro.costs.pricing.HighPrice`,
    the half of the costing pass that depends on the high loads alone.
    """

    price: Optional[HighPrice] = None


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
        check_mode(mode)
        if high_traffic.num_nodes != net.num_nodes or low_traffic.num_nodes != net.num_nodes:
            raise ValueError("traffic matrix size does not match the network")
        self._net = net
        self._high_traffic = high_traffic
        self._low_traffic = low_traffic
        self.mode = mode
        self.sla_params = sla_params or SlaParams()
        self.incremental = bool(incremental)
        self.verify_incremental = bool(verify_incremental)
        self._high_cache = LruCache(cache_size)
        self._low_cache = LruCache(cache_size)
        self._full_cache = LruCache(cache_size * 2)
        # Routings depend only on the weight vector, so high and low layers
        # share them: entries are (routing, parent_key, affected array).
        self._routing_memo = LruCache(cache_size * 2)
        # Per class: its layer cache, demand matrix and active destinations.
        self._classes = {
            which: (cache, tm.demands, active_destinations(tm.demands))
            for which, cache, tm in (
                ("high", self._high_cache, high_traffic),
                ("low", self._low_cache, low_traffic),
            )
        }
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
            high = self._layer("high", hk, hw, base_key=hbk, delta=high_delta)
            low = self._layer("low", lk, lw, base_key=lbk, delta=low_delta)
            result = high.price.evaluation(self._net, low.loads)
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
        return self._layer("high", weights_key(hw), hw).routing

    def low_routing(self, low_weights: np.ndarray) -> Routing:
        """The (cached) low-priority routing for ``low_weights``."""
        lw = as_weight_array(low_weights, self._net.num_links)
        return self._layer("low", weights_key(lw), lw).routing

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
    def _layer(
        self,
        which: str,
        key: bytes,
        weights: np.ndarray,
        base_key: Optional[bytes] = None,
        delta: Optional[WeightDelta] = None,
    ) -> _Layer:
        """The cached ``"high"`` or ``"low"`` layer of ``weights``, built on a miss."""
        cache = self._classes[which][0]
        layer = cache.get(key)
        if layer is not None:
            return layer
        parent = None
        if self.incremental and delta is not None and delta.num_changes:
            parent = cache.peek(base_key)
        started = perf_counter()
        layer = self._build_layer(which, weights, parent, delta, key, base_key)
        path = "full" if parent is None else "incremental"
        self._incremental_stats[f"{which}_{path}"] += 1
        self._obs_builds[(which, path)].inc()
        if parent is not None and self.verify_incremental:
            self._verify_layer(layer, self._build_layer(which, weights), which)
        self._obs_layer_seconds[which].observe(perf_counter() - started)
        cache.put(key, layer)
        return layer

    def _derive_or_build(
        self,
        weights: np.ndarray,
        parent_routing: Optional[Routing],
        delta: Optional[WeightDelta],
        child_key: Optional[bytes] = None,
        parent_key: Optional[bytes] = None,
    ) -> tuple[Routing, Optional[np.ndarray]]:
        """Child routing plus its affected destinations (``None`` = all).

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
            return routing, affected_destinations(
                self._net, parent_routing.distance_matrix, delta
            )
        self._obs_memo_miss.inc()
        if parent_routing is None or delta is None:
            routing, affected = self._routing_class(self._net, weights), None
        else:
            routing, affected = derive_routing(parent_routing, delta)
            if not np.array_equal(routing.weights, np.asarray(weights, dtype=np.int64)):
                raise ValueError(
                    "incremental hint mismatch: delta applied to base does not "
                    "produce the requested weight vector"
                )
        if child_key is not None:
            self._routing_memo.put(child_key, (routing, parent_key, affected))
        return routing, affected

    def _build_layer(
        self,
        which: str,
        weights: np.ndarray,
        parent: Optional[_Layer] = None,
        delta: Optional[WeightDelta] = None,
        child_key: Optional[bytes] = None,
        parent_key: Optional[bytes] = None,
    ) -> _Layer:
        """Build a layer, from scratch or derived from ``parent``.

        A derived layer copies its parent's row matrix whole and marks
        stale only the rows of affected destinations; a high layer is
        then priced (:func:`~repro.costs.pricing.price_high`).
        """
        _cache, demands, active = self._classes[which]
        routing, affected = self._derive_or_build(
            weights, parent.routing if parent else None, delta, child_key, parent_key
        )
        if affected is None:
            layer = _Layer.refresh(routing, active, demands)
        else:
            stale = np.zeros(self._net.num_nodes, dtype=bool)
            stale[affected] = True
            layer = _Layer.refresh(
                routing, active, demands, parent.dest_rows.copy(), stale[active]
            )
        if which == "high":
            layer.price = price_high(
                self._net,
                layer.loads,
                self.mode,
                params=self.sla_params,
                routing=lambda: routing,
                traffic=self._high_traffic,
            )
        return layer

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
        if which == "low":
            return
        for name in ("residual", "per_link", "link_delays"):
            if not np.array_equal(getattr(derived.price, name), getattr(rebuilt.price, name)):
                raise IncrementalMismatchError(f"high layer: {name} differs")
        for name in ("pair_delays", "violations", "penalty"):
            if getattr(derived.price, name) != getattr(rebuilt.price, name):
                raise IncrementalMismatchError(f"high layer: {name} differs")
