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

On top of that sits the incremental-SPF delta path.  A move is a pair of
:class:`~repro.routing.incremental.WeightDelta` (``None`` leaves that
class's vector), and a cache-missed child layer is *derived* from its
base's cached layer instead of rebuilt: only the destinations whose SP
structure can change (the slack test of
:func:`repro.routing.incremental.affected_destinations`) get their
Dijkstra row, SP DAG and load row recomputed; everything else is reused
verbatim.  The child is always ``delta.apply(base)``.

A search step evaluates every neighbor of one parent before it keeps
the best (Algorithm 2's m neighbors, the STR step's single-weight
moves), so the drivers pass the whole step to one
:meth:`DualTopologyEvaluator.evaluate_moves` call.  It looks the caches
up in move order, exactly as one call per move would, and derives each
missed sibling's routing on its own restricted Dijkstra.  A missed layer
is cached as a shell and filled afterwards: the stale rows of every
missed layer are built and accumulated in one kernel pass
(:meth:`repro.routing.state.Routing.batch_destination_rows`), and in SLA
mode the high layers' pair delays come from one reverse pass
(:meth:`~repro.routing.state.Routing.batch_path_delays`).  Every layer
is built this way (:meth:`DualTopologyEvaluator.evaluate` is the move
``(None, None)``) and sums its rows with
:func:`repro.routing.state.row_sum` in one fixed order, so a derived
layer is bit-identical to a rebuilt one and a batched sibling to a lone
one.  In SLA mode the link delays move with the loads, so every pair
delay is recomputed; the reverse pass's per-node sums do not depend on
batching, so the pair delays are bit-identical too.  Cached layers,
prices and evaluations are shared, so their arrays are read-only.  A
batch that raises before its layers are filled and verified takes back
every entry it laid down.
``verify_incremental=True`` cross-checks every derived layer against a
from-scratch rebuild through :meth:`~repro.routing.state.ClassLoads.refresh`;
the from-scratch reference is :class:`repro._reference.RebuildEvaluator`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.costs.pricing import (
    HighPrice,
    check_mode,
    price_high,
    price_links,
    read_only,
)
from repro.costs.pricing import LOAD_MODE, SLA_MODE, Evaluation  # noqa: F401  (re-export)
from repro.costs.sla import DemandPairs, SlaParams
from repro.lru import LruCache
from repro.network.graph import Network
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_routing,
)
from repro.routing.state import (
    ClassLoads,
    Routing,
    active_destinations,
    injections_toward,
    row_sum,
)
from repro.routing.weights import MAX_WEIGHT, MIN_WEIGHT, as_weight_array, weights_key
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


class _Build(NamedTuple):
    """A missed layer between its lookup and its fill.

    Attributes:
        which: ``"high"`` or ``"low"``.
        key: The layer's cache key (also its routing's memo key).
        layer: The shell, cached at lookup with its routing only.
        weights: The layer's weight vector (for the verification rebuild).
        parent: The layer whose rows are reused, or ``None`` (all fresh).
        redo: Positions, among the class's active destinations, of the
            rows to build.
        injections: Their injection rows.
    """

    which: str
    key: bytes
    layer: _Layer
    weights: np.ndarray
    parent: Optional[_Layer]
    redo: np.ndarray
    injections: np.ndarray


@dataclass
class _Pending:
    """A full-cache entry laid down in lookup order, before its layers are filled."""

    high: _Layer
    low: _Layer
    evaluation: Optional[Evaluation] = None


Move = tuple[Optional[WeightDelta], Optional[WeightDelta]]
"""A move ``(high_delta, low_delta)``; ``None`` leaves that class's vector."""

Hint = Optional[tuple[bytes, WeightDelta]]
"""An incremental hint: the parent vector's key and the delta from it."""


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
        self.verify_incremental = bool(verify_incremental)
        self._high_cache = LruCache(cache_size)
        self._low_cache = LruCache(cache_size)
        self._full_cache = LruCache(cache_size * 2)
        # Routings depend only on the weight vector, so high and low layers
        # share them: entries are (routing, parent_key, affected array).
        self._routing_memo = LruCache(cache_size * 2)
        # The high class's demanded pairs, for the SLA delay pass.
        self._pairs = DemandPairs(high_traffic)
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

    def evaluate(self, high_weights: np.ndarray, low_weights: np.ndarray) -> Evaluation:
        """Full evaluation of a dual weight setting: the move ``(None, None)``.

        Returns a :class:`LoadCostEvaluation` in load mode or a
        :class:`SlaCostEvaluation` in SLA mode; both expose ``.objective``
        (the lexicographic cost) and the per-link sort keys the search
        routines consume.
        """
        return self.evaluate_moves(high_weights, low_weights, [(None, None)])[1][0]

    def evaluate_str(self, weights: np.ndarray) -> Evaluation:
        """Evaluate single-topology routing: both classes on ``weights``."""
        return self.evaluate(weights, weights)

    def evaluate_moves(
        self, high_weights: np.ndarray, low_weights: np.ndarray, moves: Sequence[Move]
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[Evaluation]]:
        """Evaluate each move ``(high_delta, low_delta)`` from one weight setting.

        A move's child is ``(high_delta.apply(high_weights),
        low_delta.apply(low_weights))``; a ``None`` delta leaves that
        class's vector unchanged.  A FindH step passes ``[(d, None), ...]``,
        FindL ``[(None, d), ...]`` and an STR step ``[(d, d), ...]``.  A
        missed child layer is derived from its base's cached layer, and the
        missed siblings share one kernel pass (see the module docstring);
        results, cache state and counters are those of one call per move
        in order.

        Returns:
            ``(children, evaluations)`` in move order; each child is its
            ``(high, low)`` vector pair.

        Raises:
            ValueError: on an invalid base vector, or a delta that does not
                fit its base or leaves the weight range; nothing is looked
                up then.
        """
        # Validate BEFORE keying: a bare int64 cast truncates fractional
        # weights, silently keying `w + 0.5` as `floor(w)` and returning a
        # cached result computed for different weights.
        hw = as_weight_array(high_weights, self._net.num_links)
        lw = as_weight_array(low_weights, self._net.num_links)
        hkey, lkey = weights_key(hw), weights_key(lw)
        children, items = [], []
        for high_delta, low_delta in moves:
            hc, hk, high_hint = self._child(hw, hkey, high_delta)
            lc, lk, low_hint = self._child(lw, lkey, low_delta)
            children.append((hc, lc))
            items.append((hc, hk, lc, lk, high_hint, low_hint))
        return children, self._evaluate_many(items)

    def high_routing(self, high_weights: np.ndarray) -> Routing:
        """The (cached) high-priority routing for ``high_weights``."""
        return self._class_layer("high", high_weights).routing

    def low_routing(self, low_weights: np.ndarray) -> Routing:
        """The (cached) low-priority routing for ``low_weights``."""
        return self._class_layer("low", low_weights).routing

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
    # Batches and layers
    # ------------------------------------------------------------------
    @staticmethod
    def _child(base: np.ndarray, key: bytes, delta: Optional[WeightDelta]):
        """The vector, key and hint of ``delta`` applied to a validated ``base``.

        The delta is checked against ``base`` (:meth:`WeightDelta.apply`)
        and its new weights against the weight range, so the child of a
        valid base is valid and is not validated again.  ``None`` is no
        move: the base itself, with no hint.
        """
        if delta is None:
            return base, key, None
        for link, _old, new in delta.changes:
            if not MIN_WEIGHT <= new <= MAX_WEIGHT:
                raise ValueError(
                    f"link {link}: weight {new} outside [{MIN_WEIGHT}, {MAX_WEIGHT}]"
                )
        child = delta.apply(base)
        return child, weights_key(child), (key, delta)

    def _evaluate_many(self, items) -> list[Evaluation]:
        """Evaluate ``items`` in order, with one kernel pass for every missed layer.

        Each item is ``(hw, hk, lw, lk, high_hint, low_hint)``.  The full
        cache, the layer caches and the routing memo see exactly the
        operations one call per item would make, in item order.  A missed
        layer is cached as a shell (:meth:`_lookup`) and a missed
        evaluation as a :class:`_Pending` entry; both are filled (and, with
        ``verify_incremental``, checked) once the kernels have run, so a
        repeated item looks up the same entry.  If anything raises first,
        the batch takes back every entry it laid down (:meth:`_discard`).
        The ``evaluate`` span opens at the first miss, so a batch of hits
        opens none.
        """
        results: list = []
        missed: list[tuple[bytes, _Pending]] = []
        builds: list[_Build] = []
        started = 0.0
        with ExitStack() as span:
            try:
                for hw, hk, lw, lk, high_hint, low_hint in items:
                    self.evaluations += 1
                    full_key = hk + b"|" + lk
                    cached = self._full_cache.get(full_key)
                    if cached is not None:
                        self._obs_full_hit.inc()
                        results.append(cached)
                        continue
                    self._obs_full_miss.inc()
                    if not missed:
                        span.enter_context(obs.span("evaluate", mode=self.mode, size=len(items)))
                        started = perf_counter()
                    pending = _Pending(
                        self._lookup("high", hk, hw, high_hint, builds),
                        self._lookup("low", lk, lw, low_hint, builds),
                    )
                    self._full_cache.put(full_key, pending)
                    missed.append((full_key, pending))
                    results.append(pending)
                self._fill(builds)
                for full_key, pending in missed:
                    pending.evaluation = pending.high.price.evaluation(
                        self._net, pending.low.loads
                    )
                    self._full_cache.replace(full_key, pending.evaluation)
            except BaseException:
                self._discard(builds, [full_key for full_key, _ in missed])
                raise
        if missed:
            self._record_latency(builds, len(missed), started)
        return [r.evaluation if isinstance(r, _Pending) else r for r in results]

    def _class_layer(self, which: str, weights: np.ndarray) -> _Layer:
        """The cached ``"high"`` or ``"low"`` layer of ``weights``, built on a miss."""
        w = as_weight_array(weights, self._net.num_links)
        started = perf_counter()
        builds: list[_Build] = []
        try:
            layer = self._lookup(which, weights_key(w), w, None, builds)
            self._fill(builds)
        except BaseException:
            self._discard(builds, ())
            raise
        self._record_latency(builds, 0, started)
        return layer

    def _lookup(
        self, which: str, key: bytes, weights: np.ndarray, hint: Hint, builds: list
    ) -> _Layer:
        """The cached layer of ``weights``; on a miss, a shell cached now.

        The shell gets its routing here — derived from the hint's parent
        layer when that is cached, else built — and its stale rows (all of
        them for a built routing) are queued on ``builds`` for
        :meth:`_fill`.  Reachability is checked before the shell is
        cached.
        """
        cache, demands, active = self._classes[which]
        layer = cache.get(key)
        if layer is not None:
            return layer
        base_key, delta = hint or (None, None)
        parent = None
        if delta is not None and delta.num_changes:
            parent = cache.peek(base_key)
        routing, affected = self._derive_or_build(
            weights, parent.routing if parent else None, delta, key, base_key
        )
        if affected is None:
            redo = np.arange(active.size)
        else:
            stale = np.zeros(self._net.num_nodes, dtype=bool)
            stale[affected] = True
            redo = np.flatnonzero(stale[active])
        dests = active[redo]
        injections = injections_toward(demands, dests)
        routing.check_reachable(dests, injections)
        path = "full" if parent is None else "incremental"
        self._incremental_stats[f"{which}_{path}"] += 1
        self._obs_builds[(which, path)].inc()
        layer = _Layer(routing, None, None)
        builds.append(_Build(which, key, layer, weights, parent, redo, injections))
        cache.put(key, layer)
        return layer

    def _derive_or_build(
        self,
        weights: np.ndarray,
        parent_routing: Optional[Routing],
        delta: Optional[WeightDelta],
        child_key: bytes,
        parent_key: Optional[bytes],
    ) -> tuple[Routing, Optional[np.ndarray]]:
        """Child routing plus its affected destinations (``None`` = all).

        Routings are memoized by weight key and shared across the high and
        low layers (an STR move builds the routing once, not twice).
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
        self._routing_memo.put(child_key, (routing, parent_key, affected))
        return routing, affected

    def _fill(self, builds: list[_Build]) -> None:
        """Fill the shells of ``builds``, then verify the derived ones.

        Every stale row of every shell comes from one
        :meth:`~repro.routing.state.Routing.batch_destination_rows` pass;
        a derived shell copies its parent's rows around them.  Each shell
        sums its rows with :func:`~repro.routing.state.row_sum`, and the
        high shells are priced, in SLA mode with one
        :meth:`~repro.routing.state.Routing.batch_path_delays` pass for
        all their pair delays.  A layer's arrays are read-only: the
        siblings of a step share their parent's rows.  With
        ``verify_incremental``, each derived layer is checked against a
        rebuild (:meth:`_verify_layer`).
        """
        if not builds:
            return
        fresh = self._routing_class.batch_destination_rows(
            [(b.layer.routing, self._classes[b.which][2][b.redo], b.injections) for b in builds]
        )
        for b, rows in zip(builds, fresh):
            if b.parent is None or b.redo.size == len(b.parent.dest_rows):
                dest_rows = rows
            else:
                dest_rows = b.parent.dest_rows.copy()
                dest_rows[b.redo] = rows
            loads = row_sum(dest_rows)
            read_only(dest_rows, loads)
            b.layer.dest_rows, b.layer.loads = dest_rows, loads
        highs = [b.layer for b in builds if b.which == "high"]
        prices = [price_links(self._net, h.loads, self.mode, self.sla_params) for h in highs]
        if self.mode == SLA_MODE and highs:
            delays = self._routing_class.batch_path_delays(
                [(h.routing, self._pairs.dests, p.link_delays) for h, p in zip(highs, prices)]
            )
            prices = [p.with_pair_delays(self._pairs, d) for p, d in zip(prices, delays)]
        for layer, price in zip(highs, prices):
            layer.price = price
        if self.verify_incremental:
            for b in builds:
                if b.parent is not None:
                    self._verify_layer(b.layer, self._rebuild(b.which, b.weights), b.which)

    def _discard(self, builds: list[_Build], full_keys) -> None:
        """Take back what a batch that raised laid down: its evaluations,
        its layers and their routings.  Counters stay as they are."""
        for full_key in full_keys:
            self._full_cache.discard(full_key)
        for b in builds:
            self._classes[b.which][0].discard(b.key)
            self._routing_memo.discard(b.key)

    def _record_latency(self, builds: list[_Build], misses: int, started: float) -> None:
        """Record a filled batch's latency, split evenly over its built
        layers and its missed evaluations, one histogram observation each."""
        elapsed = perf_counter() - started
        for b in builds:
            self._obs_layer_seconds[b.which].observe(elapsed / len(builds))
        for _ in range(misses):
            self._obs_eval_seconds.observe(elapsed / misses)

    def _rebuild(self, which: str, weights: np.ndarray) -> _Layer:
        """A from-scratch layer through the per-routing path, bypassing the
        caches, the memo and the batch: the verification rebuild."""
        _cache, demands, active = self._classes[which]
        routing = self._routing_class(self._net, weights)
        layer = _Layer.refresh(routing, active, demands)
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
        if not np.array_equal(derived.routing.distance_matrix, rebuilt.routing.distance_matrix):
            raise IncrementalMismatchError(f"{which} layer: distance matrices differ")
        if not np.array_equal(derived.dest_rows, rebuilt.dest_rows):
            raise IncrementalMismatchError(
                f"{which} layer: per-destination rows differ"
            )
        if not np.array_equal(derived.loads, rebuilt.loads):
            raise IncrementalMismatchError(f"{which} layer: link loads differ")
        if which == "low":
            return
        for name in ("residual", "per_link", "link_delays"):
            if not np.array_equal(getattr(derived.price, name), getattr(rebuilt.price, name)):
                raise IncrementalMismatchError(f"high layer: {name} differs")
        for name in ("pair_delays", "violations", "penalty"):
            if getattr(derived.price, name) != getattr(rebuilt.price, name):
                raise IncrementalMismatchError(f"high layer: {name} differs")
