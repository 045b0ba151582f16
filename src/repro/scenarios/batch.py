"""Batched scenario evaluation with incremental-SPF reuse.

Evaluating a :class:`~repro.scenarios.algebra.Scenario` from scratch
costs two all-destination Dijkstras plus a per-destination ECMP load
pass — the same work a fresh :class:`~repro.routing.state.Routing` does.
A sweep over hundreds of scenarios repeats almost all of it: scenarios
share the intact baseline, most failures leave most destinations'
shortest paths untouched, and traffic-only scenarios change no routing
at all.  The :class:`SweepEngine` exploits exactly that structure:

* **Shared projections** — scenarios failing the same elements share one
  :class:`~repro.scenarios.projection.TopologyProjection` (and its
  reachability analysis).
* **Derived routings** — a degraded network's routing is derived from
  the intact baseline through
  :func:`repro.routing.incremental.derive_children`, the same primitive
  the evaluator derives weight moves with: only destinations whose SP
  DAG used a failed link
  (:func:`repro.routing.incremental.destinations_using_links`) get a
  restricted Dijkstra over the survivors; every other distance row and
  per-destination load row is reused.  When the affected set is large
  (more than :data:`~repro.routing.incremental.DEFAULT_FALLBACK_FRACTION`
  of the nodes) the primitive solves a full SPF instead — pruning would
  cost more than it saves.
* **Shared load rows** — per-destination load rows are reused whenever
  the destination is unaffected *and* its demand column is unchanged by
  the scenario's traffic transform.

The reuse is exact, not approximate: load rows are summed with
:class:`~repro.core.evaluator.DualTopologyEvaluator`'s own fixed-order
``_ordered_row_sum`` and priced through the shared
:func:`~repro.costs.load_cost.load_cost_from_loads` /
:func:`~repro.costs.sla.sla_cost_from_loads` costing passes, so a
batched sweep is **bit-identical** to building every degraded network
from scratch and running the full evaluator on it — the contract
enforced by ``tests/test_scenarios_differential.py`` against the naive
per-scenario rebuild of :class:`repro._reference.NaiveSweepEngine`, and
timed by the ``benchmarks/test_bench_scenarios.py`` speedup benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.core.evaluator import LOAD_MODE, SLA_MODE, Evaluation, _ordered_row_sum
from repro.core.lexicographic import LexCost
from repro.costs.load_cost import load_cost_from_loads
from repro.costs.sla import SlaParams, sla_cost_from_loads
from repro.network.graph import Network
from repro.routing.incremental import (
    derive_children,
    destinations_using_links,
    uses_full_spf,
)
from repro.routing.state import Routing
from repro.routing.weights import as_weight_array, weights_key
from repro.scenarios.algebra import LoweredScenario, Scenario
from repro.scenarios.projection import TopologyProjection
from repro.traffic.matrix import TrafficMatrix

# Out-of-band telemetry (rule RL006): the engine's deterministic reuse
# counters mirrored as process-wide instruments, plus batch occupancy.
_OBS_SWEEP_EVENTS = {
    key: obs.counter(
        "repro_scenarios_engine_events_total",
        "SweepEngine reuse/recompute events by kind.",
        {"event": key},
    )
    for key in (
        "scenarios", "shared_projections", "shared_routings",
        "derived_routings", "full_routings", "reused_rows", "recomputed_rows",
    )
}
_OBS_SWEEP_BATCH = obs.histogram(
    "repro_scenarios_sweep_batch_size",
    "Scenarios per SweepEngine.sweep call.",
    buckets=obs.SIZE_BUCKETS,
)

ROUTING_MEMO_CAP = 256
"""Degraded routings kept per engine.  Each entry holds an ``n x n``
distance matrix plus lazy DAG state, and a Session caches its engine for
the lifetime of a baseline — an unbounded memo would grow with every
distinct failure ever queried.  FIFO eviction keeps repeated interactive
queries fast without letting long-lived sessions accumulate memory."""


class _ClassState:
    """Intact baseline state of one traffic class (the derivation parent)."""

    def __init__(self, net: Network, routing: Routing, traffic: TrafficMatrix) -> None:
        self.weights = routing.weights
        self.key = weights_key(self.weights)
        self.routing = routing
        self.demands = traffic.demands
        self.active = np.flatnonzero(self.demands.sum(axis=0) > 0)
        self.index = {int(t): i for i, t in enumerate(self.active)}
        if self.active.size:
            self.rows = routing.destination_rows(
                self.active, self.demands[:, self.active].T
            )
        else:
            self.rows = np.empty((0, net.num_links))
        self.loads = _ordered_row_sum(self.rows, net.num_links)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Evaluation of one scenario within a sweep."""

    scenario: Scenario
    lowered: LoweredScenario
    evaluation: Evaluation

    @property
    def kind(self) -> str:
        """The scenario's class (``"link"``, ``"node"``, ...)."""
        return self.scenario.kind

    @property
    def description(self) -> str:
        return self.lowered.description

    @property
    def disconnected(self) -> bool:
        """Whether the scenario cut off positive demand (see ``lowered``)."""
        return self.lowered.disconnected

    @property
    def lost_demand(self) -> float:
        """Demand volume (Mb/s) the surviving network cannot route."""
        return self.lowered.lost_demand

    @property
    def objective(self) -> LexCost:
        """The evaluation's native lexicographic objective."""
        return self.evaluation.objective


@dataclass(frozen=True)
class ScenarioClassSummary:
    """Worst/mean degradation of one scenario class within a sweep.

    Cost statistics fold the *connected* outcomes only — a scenario that
    cut demand off routes less traffic, so its cost is not comparable —
    while ``disconnected`` counts how many outcomes were flagged.
    """

    kind: str
    scenarios: int
    disconnected: int
    worst_primary: float
    mean_primary: float
    worst_secondary: float
    mean_secondary: float
    worst_max_utilization: float


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one batched scenario sweep."""

    baseline: Evaluation
    outcomes: tuple[ScenarioOutcome, ...]
    stats: dict[str, int]

    @property
    def disconnected_count(self) -> int:
        """Number of outcomes that cut off positive demand."""
        return sum(1 for o in self.outcomes if o.disconnected)

    def by_class(self) -> dict[str, ScenarioClassSummary]:
        """Per-scenario-class worst/mean degradation, keyed by kind."""
        grouped: dict[str, list[ScenarioOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.kind, []).append(outcome)
        summaries = {}
        for kind in sorted(grouped):
            outcomes = grouped[kind]
            connected = [o for o in outcomes if not o.disconnected]
            primaries = [o.objective.primary for o in connected]
            secondaries = [o.objective.secondary for o in connected]
            base = self.baseline.objective
            summaries[kind] = ScenarioClassSummary(
                kind=kind,
                scenarios=len(outcomes),
                disconnected=len(outcomes) - len(connected),
                worst_primary=max(primaries) if primaries else base.primary,
                mean_primary=(
                    float(np.mean(primaries)) if primaries else base.primary
                ),
                worst_secondary=max(secondaries) if secondaries else base.secondary,
                mean_secondary=(
                    float(np.mean(secondaries)) if secondaries else base.secondary
                ),
                worst_max_utilization=max(
                    (o.evaluation.max_utilization for o in connected),
                    default=self.baseline.max_utilization,
                ),
            )
        return summaries


class SweepEngine:
    """Evaluates scenarios against one pinned weight setting, with reuse.

    Args:
        net: The intact network.
        high_weights: Baseline high-priority weights.
        low_weights: Baseline low-priority weights (may equal
            ``high_weights`` — the STR deployment — in which case the
            two classes share one routing).
        high_traffic: Intact high-priority traffic.
        low_traffic: Intact low-priority traffic.
        mode: ``"load"`` or ``"sla"``.
        sla_params: SLA parameters (SLA mode only).

    Raises:
        ValueError: if a weight vector is not a valid integer weight
            setting of ``net`` (see
            :func:`~repro.routing.weights.as_weight_array`).
    """

    def __init__(
        self,
        net: Network,
        high_weights,
        low_weights,
        high_traffic: TrafficMatrix,
        low_traffic: TrafficMatrix,
        *,
        mode: str = LOAD_MODE,
        sla_params: Optional[SlaParams] = None,
    ) -> None:
        if mode not in (LOAD_MODE, SLA_MODE):
            raise ValueError(f"mode must be '{LOAD_MODE}' or '{SLA_MODE}', got {mode!r}")
        self._net = net
        self._high_tm = high_traffic
        self._low_tm = low_traffic
        self.mode = mode
        self.sla_params = sla_params or SlaParams()
        wh = as_weight_array(high_weights, net.num_links)
        wl = as_weight_array(low_weights, net.num_links)
        high_routing = Routing(net, wh)
        low_routing = high_routing if np.array_equal(wh, wl) else Routing(net, wl)
        self._high = _ClassState(net, high_routing, high_traffic)
        self._low = _ClassState(net, low_routing, low_traffic)
        self._projections: dict[tuple[int, ...], TopologyProjection] = {}
        # (failed-links, weights-key) -> the derived/rebuilt degraded routing
        self._routings: dict[tuple[tuple[int, ...], bytes], Routing] = {}
        self.stats = {
            "scenarios": 0,
            "shared_projections": 0,
            "shared_routings": 0,
            "derived_routings": 0,
            "full_routings": 0,
            "reused_rows": 0,
            "recomputed_rows": 0,
        }
        self.baseline: Evaluation = self._cost(
            net, self._high.loads, self._low.loads, high_traffic, high_routing
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The intact network the engine was built over."""
        return self._net

    @property
    def high_traffic(self) -> TrafficMatrix:
        """The intact high-priority traffic."""
        return self._high_tm

    @property
    def low_traffic(self) -> TrafficMatrix:
        """The intact low-priority traffic."""
        return self._low_tm

    def _mirror_stats(self, before: dict) -> None:
        """Mirror the stat deltas since ``before`` into obs counters."""
        for key, value in self.stats.items():
            delta = value - before[key]
            if delta:
                _OBS_SWEEP_EVENTS[key].inc(delta)

    def evaluate(self, scenario: Scenario) -> ScenarioOutcome:
        """Evaluate one scenario (reusing whatever earlier queries built)."""
        before = dict(self.stats)
        outcome = self._evaluate_lowered(scenario, self._lower(scenario))
        self._mirror_stats(before)
        return outcome

    def evaluate_streaming(self, scenario: Scenario) -> ScenarioOutcome:
        """Evaluate one scenario without growing any engine cache.

        Identical outcome to :meth:`evaluate` — derived-routing and
        load-row reuse against the intact parent still apply — but the
        per-scenario :class:`TopologyProjection` and degraded routing
        are transient: existing routing-memo entries are consulted,
        none are inserted.  Space sweeps stream millions of *distinct*
        failure sets through one engine; retaining per-scenario state
        would peak at the memo cap for reuse that combinatorial
        enumeration never exhibits, and would evict the entries a
        long-lived session's interactive queries actually revisit.
        """
        lowered = scenario.lower(
            self._net, self._high_tm, self._low_tm, projections=None
        )
        return self._evaluate_lowered(scenario, lowered, memoize=False)

    def sweep(self, scenarios: Iterable[Scenario]) -> SweepResult:
        """Evaluate every scenario and fold the outcomes into a result.

        The sweep lowers every scenario first and prefetches the
        degraded routings the batch will need, so their
        restricted Dijkstras run blocked
        (:func:`repro.routing.spf.distances_to_subsets_batched`) instead
        of one scipy call per scenario.  Outcomes and stats are
        bit-identical to evaluating the scenarios one by one.
        """
        before = dict(self.stats)
        pairs = [(scenario, self._lower(scenario)) for scenario in scenarios]
        with obs.span("scenarios.sweep", scenarios=len(pairs)):
            _OBS_SWEEP_BATCH.observe(len(pairs))
            self._prefetch_routings(lowered for _, lowered in pairs)
            outcomes = tuple(
                self._evaluate_lowered(scenario, lowered) for scenario, lowered in pairs
            )
        self._mirror_stats(before)
        return SweepResult(
            baseline=self.baseline, outcomes=outcomes, stats=dict(self.stats)
        )

    def sweep_space(self, space, **kwargs):
        """Stream a combinatorial scenario space through this engine.

        Delegates to
        :func:`repro.scenarios.spaces.sweep_scenario_space`; ``space``
        is a :class:`~repro.scenarios.spaces.ScenarioSpace` or a spec
        string (``"space:all-link-2"``), and keyword arguments
        (``prune``, ``percentiles``, ``cvar_alpha``, ...) pass through.
        """
        from repro.scenarios.spaces import sweep_scenario_space

        return sweep_scenario_space(self, space, **kwargs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lower(self, scenario: Scenario) -> LoweredScenario:
        """Lower one scenario, sharing projections and counting the hit."""
        before = len(self._projections)
        lowered = scenario.lower(
            self._net, self._high_tm, self._low_tm, projections=self._projections
        )
        if len(self._projections) == before:
            self.stats["shared_projections"] += 1
        return lowered

    _PREFETCH_CHUNK = 32
    """Degraded routings resolved per blocked-Dijkstra call.  Bounds the
    block-diagonal matrix (``chunk * num_nodes`` rows) while still
    amortizing the scipy call overhead across many scenarios."""

    def _prefetch_routings(self, lowereds: Iterable[LoweredScenario]) -> None:
        """Build the degraded routings a sweep needs with blocked Dijkstra.

        Collects the distinct ``(failed_links, weights_key)`` routing-memo
        misses the batch will incur — in first-need order, so the FIFO
        memo evolves exactly as under sequential evaluation — and derives
        them chunk-wise, one :func:`derive_children` call per class and
        chunk, so their restricted Dijkstras share one blocked solve.  The
        resulting routings and the ``derived_routings``/``full_routings``
        stats are identical to what :meth:`_class_routing` would have
        produced on demand; at most :data:`ROUTING_MEMO_CAP` keys are
        prefetched (more would only evict each other) — any overflow
        falls back to on-demand builds.
        """
        classes = [self._high]
        if self._low.key != self._high.key:
            classes.append(self._low)
        pending: dict[tuple[tuple[int, ...], bytes], TopologyProjection] = {}
        for lowered in lowereds:
            projection = lowered.projection
            if projection.is_identity:
                continue
            for cls in classes:
                key = (projection.failed_links, cls.key)
                if key not in self._routings and key not in pending:
                    pending[key] = projection
            if len(pending) >= ROUTING_MEMO_CAP:
                break
        keys = list(pending)[:ROUTING_MEMO_CAP]
        for start in range(0, len(keys), self._PREFETCH_CHUNK):
            chunk = keys[start : start + self._PREFETCH_CHUNK]
            built = {}
            for cls in classes:
                mine = [key for key in chunk if key[1] == cls.key]
                if mine:
                    routings = self._derive(cls, [pending[key] for key in mine])
                    built.update(zip(mine, routings))
            for key in chunk:
                self._remember(key, built[key])

    def _evaluate_lowered(
        self,
        scenario: Scenario,
        lowered: LoweredScenario,
        memoize: bool = True,
    ) -> ScenarioOutcome:
        self.stats["scenarios"] += 1
        projection = lowered.projection
        high_routing = self._class_routing(self._high, projection, memoize)
        if self._low.key == self._high.key:
            low_routing = high_routing
        else:
            low_routing = self._class_routing(self._low, projection, memoize)
        high_loads = self._class_loads(
            self._high, projection, high_routing, lowered.high_traffic
        )
        low_loads = self._class_loads(
            self._low, projection, low_routing, lowered.low_traffic
        )
        evaluation = self._cost(
            projection.network, high_loads, low_loads,
            lowered.high_traffic, high_routing,
        )
        return ScenarioOutcome(
            scenario=scenario, lowered=lowered, evaluation=evaluation
        )

    def _cost(
        self,
        net: Network,
        high_loads: np.ndarray,
        low_loads: np.ndarray,
        high_traffic: TrafficMatrix,
        high_routing: Routing,
    ) -> Evaluation:
        if self.mode == LOAD_MODE:
            return load_cost_from_loads(net, high_loads, low_loads)
        return sla_cost_from_loads(
            net,
            high_loads,
            low_loads,
            high_traffic,
            high_routing.pair_link_fractions,
            params=self.sla_params,
        )

    def _class_routing(
        self,
        cls: _ClassState,
        projection: TopologyProjection,
        memoize: bool = True,
    ) -> Routing:
        """The degraded routing of one class: shared, memoized, or derived."""
        if projection.is_identity:
            self.stats["shared_routings"] += 1
            return cls.routing
        key = (projection.failed_links, cls.key)
        hit = self._routings.get(key)
        if hit is not None:
            return hit
        (routing,) = self._derive(cls, [projection])
        if memoize:
            self._remember(key, routing)
        return routing

    def _remember(self, key: tuple[tuple[int, ...], bytes], routing: Routing) -> None:
        """Insert into the FIFO routing memo, evicting past the cap."""
        while len(self._routings) >= ROUTING_MEMO_CAP:
            self._routings.pop(next(iter(self._routings)))
        self._routings[key] = routing

    def _derive(
        self, cls: _ClassState, projections: list[TopologyProjection]
    ) -> list[Routing]:
        """Degraded routings of one class, derived from its intact routing.

        Only destinations whose SP DAG used a flow-relevant failed link
        are re-solved; :func:`derive_children` decides the full-SPF
        fallback counted here.  Unaffected destinations reuse their whole
        load row, so the children never need their DAGs.
        """
        children = []
        for projection in projections:
            affected = destinations_using_links(
                self._net,
                cls.routing.distance_matrix,
                cls.weights,
                self._flow_relevant_links(projection),
            )
            full = uses_full_spf(cls.routing, projection.network, affected)
            self.stats["full_routings" if full else "derived_routings"] += 1
            children.append(
                (projection.network, projection.project_weights(cls.weights), affected)
            )
        return derive_children(cls.routing, children)

    def _flow_relevant_links(self, projection: TopologyProjection) -> tuple[int, ...]:
        """Failed links whose removal can change some survivor's load row.

        Out-links of a fully *isolated* node (a node failure) are always
        on that node's own shortest paths, so the plain used-link test
        would flag every destination — yet the node carries no routable
        traffic (its demand pairs are zeroed by lowering), so its own
        path usage moves no load.  Transit by other nodes *through* the
        failed node always uses one of its in-links, which stay in the
        test.  Excluding the out-links is therefore exact for load rows;
        the only distance entries the narrower set leaves unsolved are
        the isolated node's own, which :func:`derive_children` resets to
        their from-scratch values (``inf`` off the diagonal).
        """
        isolated = projection.isolated_nodes()
        if not isolated:
            return projection.failed_links
        iso = set(isolated)
        srcs = self._net.link_sources()
        return tuple(
            l for l in projection.failed_links if int(srcs[l]) not in iso
        )

    def _class_loads(
        self,
        cls: _ClassState,
        projection: TopologyProjection,
        routing: Routing,
        traffic: TrafficMatrix,
    ) -> np.ndarray:
        """Per-link loads of one class under the scenario.

        A destination's intact load row is reused (restricted to the
        surviving links) iff its demand column is unchanged and the
        parent row puts **zero flow on every failed link**.  The flow
        test is exact, not a heuristic: ECMP assigns positive flow to
        every DAG edge reachable from an injecting source, so zero flow
        on the failed links means the destination's entire flow pattern
        avoids them — its flow-carrying nodes keep their distances and
        DAG out-sets, and the degraded row equals the intact one on the
        survivors bit for bit.  (This is strictly sharper than the SP-DAG
        slack test for sparse traffic: a failed link on some *unloaded*
        shortest path disturbs nothing.)  Rows are summed in
        active-destination order, matching both
        :meth:`Routing.link_loads` and the evaluator.
        """
        demands = traffic.demands
        active = np.flatnonzero(demands.sum(axis=0) > 0)
        num_links = routing.network.num_links
        rows = np.empty((active.size, num_links))
        surviving = None if projection.is_identity else projection.surviving_index_array()
        failed = (
            np.asarray(projection.failed_links, dtype=np.int64)
            if projection.failed_links
            else None
        )
        untouched = demands is cls.demands  # no transform, nothing disconnected
        recompute: list[int] = []
        for i, t in enumerate(active):
            t = int(t)
            j = cls.index.get(t)
            if (
                j is not None
                and (failed is None or not cls.rows[j][failed].any())
                and (untouched or np.array_equal(demands[:, t], cls.demands[:, t]))
            ):
                rows[i] = cls.rows[j] if surviving is None else cls.rows[j][surviving]
                self.stats["reused_rows"] += 1
            else:
                recompute.append(i)
        if recompute:
            # One batched kernel call covers every row the reuse test
            # rejected; rows land in active-destination order, so the
            # fixed summation below is unchanged.
            ts = active[recompute]
            rows[recompute] = routing.destination_rows(ts, demands[:, ts].T)
            self.stats["recomputed_rows"] += len(recompute)
        return _ordered_row_sum(rows, num_links)


def sweep_scenarios(
    net: Network,
    high_weights,
    low_weights,
    high_traffic: TrafficMatrix,
    low_traffic: TrafficMatrix,
    scenarios: Iterable[Scenario],
    *,
    mode: str = LOAD_MODE,
    sla_params: Optional[SlaParams] = None,
) -> SweepResult:
    """Evaluate a weight setting under every scenario, sharing state.

    The functional entry point over :class:`SweepEngine`; see the module
    docstring for the reuse structure and the bit-identity contract.
    """
    engine = SweepEngine(
        net,
        high_weights,
        low_weights,
        high_traffic,
        low_traffic,
        mode=mode,
        sla_params=sla_params,
    )
    return engine.sweep(scenarios)
