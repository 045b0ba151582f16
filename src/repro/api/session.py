"""The optimization session: one network + traffic + objective context.

A :class:`Session` bundles everything one optimization/evaluation
context needs — the network, the two traffic matrices, the (cached,
delta-aware) :class:`~repro.core.evaluator.DualTopologyEvaluator`, a
pluggable cost model, and deterministic named RNG streams — and exposes:

* :meth:`Session.optimize`: run any registered strategy by name;
* the incremental what-if queries :meth:`Session.what_if`,
  :meth:`Session.under_scenario` (with :meth:`Session.under_failure` as
  a single-adjacency shim), and :meth:`Session.scaled_traffic`, which
  answer "what changes if ...?" against the session's baseline weight
  setting without rebuilding routing state that cannot change;
* :meth:`Session.sweep`: batched evaluation of a whole
  :class:`~repro.scenarios.ScenarioSet` (link/node/SRLG failures,
  traffic shifts — see :mod:`repro.scenarios`), sharing topology
  projections and incremental-SPF derivations across scenarios.

``what_if`` routes one/two-link weight moves through
:mod:`repro.routing.incremental`, so an interactive query costs a
restricted Dijkstra over the few affected destinations instead of a full
re-evaluation — the same speedup the searches enjoy — while remaining
bit-identical to a from-scratch evaluation.

Thread safety
-------------
A session is **not** thread-safe.  Its evaluator's LRU caches mutate an
``OrderedDict`` on every lookup (recency reordering and hit/miss
counters), the sweep engine appends to projection/routing memos and a
shared ``stats`` dict, and the lazily built baseline/engine slots are
plain attributes — none of it is synchronized.  Callers that share one
session across threads (the :mod:`repro.serve` scheduler, notably) must
hold :attr:`Session.lock` around every evaluator/engine touch; with the
lock held, queries are serialized and therefore produce exactly the
bytes a single-threaded caller would see.  Distinct sessions share no
mutable state and need no coordination.

References:
    [FT00] B. Fortz and M. Thorup, "Internet traffic engineering by
        optimizing OSPF weights", IEEE INFOCOM 2000.
    [RFC4915] P. Psenak et al., "Multi-Topology (MT) Routing in OSPF",
        RFC 4915, 2007 — the deployment vehicle for per-class weight
        vectors that DTR assumes.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.api.cost_models import CostModel, CostModelLike, get_cost_model
from repro.api.queries import (
    KIND_FAILURE,
    KIND_SCENARIO,
    KIND_TRAFFIC,
    KIND_WEIGHTS,
    WhatIfResult,
    utilization_deltas,
)
from repro.core.evaluator import (
    LOAD_MODE,
    DualTopologyEvaluator,
    Evaluation,
)
from repro.costs.load_cost import evaluate_load_cost, load_cost_from_loads
from repro.costs.sla import SlaParams, evaluate_sla_cost, sla_cost_from_loads
from repro.network.failures import FailureScenario
from repro.network.graph import Network
from repro.routing.incremental import WeightDelta
from repro.routing.state import Routing
from repro.routing.weights import as_weight_array, weights_key
from repro.traffic.matrix import TrafficMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.strategies import OptimizationResult
    from repro.eval.experiment import ExperimentConfig
    from repro.scenarios.algebra import Scenario
    from repro.scenarios.batch import ScenarioOutcome, SweepEngine, SweepResult

DeltaLike = Union[WeightDelta, tuple[int, int], dict[int, int]]
"""A weight change: a :class:`WeightDelta`, a ``(link, new_weight)``
pair, or a ``{link: new_weight}`` mapping."""

ScenarioLike = Union[FailureScenario, tuple[int, int]]
"""A failure: a prebuilt scenario or the ``(u, v)`` adjacency to fail."""


class Session:
    """One optimization/evaluation context over a fixed network + traffic.

    Args:
        net: The network.
        high_traffic: High-priority traffic matrix ``T_H``.
        low_traffic: Low-priority traffic matrix ``T_L``.
        cost_model: A registered cost-model name (``"load"``, ``"sla"``,
            ``"fortz"``, ``"joint"``) or a :class:`CostModel` instance;
            selects the evaluator mode and scores what-if queries.
        sla_params: SLA bound/penalty parameters (SLA-mode models only).
        seed: Base seed of the session's named RNG streams.
        cache_size: Evaluator cache entries per layer.
        incremental: Evaluate weight deltas via incremental SPF.
        verify_incremental: Cross-check every derived layer (tests only).

    Scenario queries share state through the sweep engine; the naive
    per-scenario rebuild the serve benchmark and differential tests
    compare against is :class:`repro._reference.ReferenceSession`.
    """

    def __init__(
        self,
        net: Network,
        high_traffic: TrafficMatrix,
        low_traffic: TrafficMatrix,
        *,
        cost_model: CostModelLike = "load",
        sla_params: Optional[SlaParams] = None,
        seed: int = 1,
        cache_size: int = 128,
        incremental: bool = True,
        verify_incremental: bool = False,
        _evaluator: Optional[DualTopologyEvaluator] = None,
    ) -> None:
        self.cost_model: CostModel = get_cost_model(cost_model)
        self.seed = int(seed)
        if _evaluator is not None:
            if _evaluator.mode != self.cost_model.evaluator_mode:
                raise ValueError(
                    f"evaluator mode {_evaluator.mode!r} does not match cost "
                    f"model {self.cost_model.name!r} "
                    f"({self.cost_model.evaluator_mode!r})"
                )
            self.evaluator = _evaluator
        else:
            self.evaluator = DualTopologyEvaluator(
                net,
                high_traffic,
                low_traffic,
                mode=self.cost_model.evaluator_mode,
                sla_params=sla_params,
                cache_size=cache_size,
                incremental=incremental,
                verify_incremental=verify_incremental,
            )
        self._baseline: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._direct_cache: dict[bytes, Evaluation] = {}
        self._sweep_engine_cache: Optional[tuple[bytes, "SweepEngine"]] = None
        self.config: Optional["ExperimentConfig"] = None
        #: Serializes evaluator/engine access when the session is shared
        #: across threads (see the module docstring's thread-safety note).
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: "ExperimentConfig") -> "Session":
        """Build a session from one :class:`ExperimentConfig`.

        The network and (scaled) traffic matrices are derived exactly as
        :func:`repro.eval.experiment.run_comparison` always did: the
        topology from ``(topology, seed)`` and the traffic from the
        deterministic ``(seed, "traffic")`` RNG stream, so a session is a
        pure function of its config.
        """
        from repro.eval.experiment import (
            build_network,
            build_traffic,
            derive_rng,
            make_evaluator,
        )

        net = build_network(config.topology, config.seed)
        high, low, _meta = build_traffic(net, config, derive_rng(config.seed, "traffic"))
        session = cls(
            net,
            high,
            low,
            cost_model=config.mode,
            seed=config.seed,
            _evaluator=make_evaluator(net, high, low, config),
        )
        session.config = config
        return session

    @classmethod
    def from_evaluator(
        cls,
        evaluator: DualTopologyEvaluator,
        seed: int = 1,
        cost_model: Optional[CostModelLike] = None,
    ) -> "Session":
        """Wrap an existing evaluator (the legacy entry points use this).

        The evaluator instance is shared, not copied, so its caches and
        evaluation counters keep working exactly as before.
        """
        return cls(
            evaluator.network,
            evaluator.high_traffic,
            evaluator.low_traffic,
            cost_model=cost_model if cost_model is not None else evaluator.mode,
            seed=seed,
            _evaluator=evaluator,
        )

    # ------------------------------------------------------------------
    # Context accessors
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The network being optimized."""
        return self.evaluator.network

    @property
    def high_traffic(self) -> TrafficMatrix:
        """High-priority traffic matrix."""
        return self.evaluator.high_traffic

    @property
    def low_traffic(self) -> TrafficMatrix:
        """Low-priority traffic matrix."""
        return self.evaluator.low_traffic

    @property
    def sla_params(self) -> SlaParams:
        """SLA parameters in force (defaults when not in SLA mode)."""
        return self.evaluator.sla_params

    def derive_rng(self, stream: str) -> random.Random:
        """A deterministic RNG for one named stream of this session."""
        from repro.eval.experiment import derive_rng

        return derive_rng(self.seed, stream)

    # ------------------------------------------------------------------
    # Baseline weight setting
    # ------------------------------------------------------------------
    def set_weights(
        self,
        high_weights: Sequence[int],
        low_weights: Optional[Sequence[int]] = None,
    ) -> None:
        """Pin the baseline weight setting what-if queries compare against.

        Args:
            high_weights: High-priority weights (both classes when
                ``low_weights`` is omitted — the STR deployment).
            low_weights: Low-priority weights, for a dual setting.

        Raises:
            ValueError: if a vector is not a valid integer weight setting
                (see :func:`~repro.routing.weights.as_weight_array`) —
                fractional weights are rejected, never truncated.
        """
        n = self.network.num_links
        pair = (high_weights, high_weights if low_weights is None else low_weights)
        if any(np.shape(vector) != (n,) for vector in pair):
            raise ValueError(f"expected weight vectors of length {n}")
        self._baseline = (as_weight_array(pair[0], n), as_weight_array(pair[1], n))

    def adopt(self, result: "OptimizationResult") -> None:
        """Adopt an optimization result as the baseline weight setting."""
        self.set_weights(result.high_weights, result.low_weights)

    @property
    def high_weights(self) -> np.ndarray:
        """Baseline high-priority weights."""
        return self._require_baseline()[0]

    @property
    def low_weights(self) -> np.ndarray:
        """Baseline low-priority weights."""
        return self._require_baseline()[1]

    def _require_baseline(self) -> tuple[np.ndarray, np.ndarray]:
        if self._baseline is None:
            raise ValueError(
                "no baseline weight setting: call session.optimize(...) or "
                "session.set_weights(...) first"
            )
        return self._baseline

    # ------------------------------------------------------------------
    # Optimization and evaluation
    # ------------------------------------------------------------------
    def optimize(
        self, strategy: str = "dtr", params=None, **options
    ) -> "OptimizationResult":
        """Run a registered strategy; adopts the result as the baseline.

        See :func:`repro.api.optimize` for the argument contract.
        """
        from repro.api import optimize as api_optimize

        return api_optimize(self, strategy=strategy, params=params, **options)

    def evaluate(self) -> Evaluation:
        """(Cached) full evaluation of the baseline weight setting."""
        wh, wl = self._require_baseline()
        return self.evaluator.evaluate(wh, wl)

    def prepare(self) -> "Session":
        """Warm every lazily built layer of the baseline, then return self.

        Evaluates the baseline weight setting and constructs the
        scenario sweep engine (baseline routings, per-destination load
        rows), so the first query served from a pooled session pays no
        cold-start cost.  The serve layer's warm-session pool calls this
        on every build; idempotent and cheap once warm.
        """
        with self.lock:
            self.evaluate()
            self._scenario_engine()
        return self

    def objective(self):
        """Cost-model objective of the baseline."""
        return self.cost_model.objective(self.evaluate(), self.network)

    # ------------------------------------------------------------------
    # What-if queries
    # ------------------------------------------------------------------
    def what_if(
        self, delta: DeltaLike, topology: Optional[str] = None
    ) -> WhatIfResult:
        """Cost/utilization deltas of a small weight change, incrementally.

        The variant is evaluated through the incremental-SPF delta path:
        only destinations whose shortest-path structure can change under
        the move are recomputed, so a one/two-link query is several times
        faster than a full re-evaluation yet bit-identical to one.

        Args:
            delta: The change — a :class:`WeightDelta`, a
                ``(link, new_weight)`` pair, or ``{link: new_weight}``.
            topology: ``"high"``, ``"low"``, or ``"both"`` (default:
                ``"both"``, i.e. the move applies to each class's vector).

        Returns:
            A :class:`WhatIfResult` with ``kind="weights"``.
        """
        wh, wl = self._require_baseline()
        topology = topology or "both"
        if topology not in ("high", "low", "both"):
            raise ValueError("topology must be 'high', 'low', or 'both'")
        baseline = self.evaluate()  # also primes the evaluator's parent layers

        hints: dict = {}
        new_wh, new_wl = wh, wl
        dh = dl = None
        if topology in ("high", "both"):
            dh = self._coerce_delta(wh, delta)
            new_wh = dh.apply(wh)
            hints.update(high_base=wh, high_delta=dh)
        if topology in ("low", "both"):
            dl = self._coerce_delta(wl, delta)
            new_wl = dl.apply(wl)
            hints.update(low_base=wl, low_delta=dl)
        variant = self.evaluator.evaluate(new_wh, new_wl, **hints)

        high_d, low_d, total_d = utilization_deltas(
            self.network.capacities(), baseline, variant.high_loads, variant.low_loads
        )

        def moves(delta: WeightDelta) -> str:
            return ", ".join(
                f"link {link}: {old} -> {new}" for link, old, new in delta.changes
            ) or "(no-op)"

        if topology == "both" and dh.changes != dl.changes:
            description = (
                f"both weight change high[{moves(dh)}], low[{moves(dl)}]"
            )
        else:
            description = f"{topology} weight change {moves(dh if dh is not None else dl)}"
        return WhatIfResult(
            kind=KIND_WEIGHTS,
            description=description,
            baseline=baseline,
            variant=variant,
            baseline_objective=self.cost_model.objective(baseline, self.network),
            variant_objective=self.cost_model.objective(variant, self.network),
            high_utilization_delta=high_d,
            low_utilization_delta=low_d,
            utilization_delta=total_d,
        )

    def under_failure(self, scenario: Optional[ScenarioLike]) -> WhatIfResult:
        """Cost/utilization impact of one duplex-adjacency failure.

        A delegating shim over the general :meth:`under_scenario`: the
        failure becomes a :class:`~repro.scenarios.LinkFailure` and rides
        the shared scenario engine, so repeated failure queries reuse the
        intact routing state instead of rebuilding it per call.

        Args:
            scenario: A :class:`FailureScenario`, the ``(u, v)``
                adjacency to fail, or ``None`` for the intact network
                (zero deltas; the sweep's baseline row).

        Returns:
            A :class:`WhatIfResult` with ``kind="failure"``; for a real
            failure, ``variant`` is an evaluation over the *degraded*
            network while the utilization deltas are projected back to
            intact link indexing (failed links show their lost load).
        """
        from repro.scenarios.algebra import LinkFailure

        wh, wl = self._require_baseline()
        if scenario is None:
            baseline = self._direct_evaluation(self.network, wh, wl, cache=True)
            high_d, low_d, total_d = utilization_deltas(
                self.network.capacities(), baseline, baseline.high_loads,
                baseline.low_loads,
            )
            return WhatIfResult(
                kind=KIND_FAILURE,
                description="intact network",
                baseline=baseline,
                variant=baseline,
                baseline_objective=self.cost_model.objective(baseline, self.network),
                variant_objective=self.cost_model.objective(baseline, self.network),
                high_utilization_delta=high_d,
                low_utilization_delta=low_d,
                utilization_delta=total_d,
            )
        if isinstance(scenario, FailureScenario):
            u, v = scenario.failed_pair
        else:
            u, v = scenario
        pair = (min(int(u), int(v)), max(int(u), int(v)))
        return self.under_scenario(
            LinkFailure.single(*pair),
            kind=KIND_FAILURE,
            description=f"failure of adjacency {pair}",
        )

    def under_scenario(
        self,
        scenario: Union["Scenario", str],
        *,
        kind: str = KIND_SCENARIO,
        description: Optional[str] = None,
    ) -> WhatIfResult:
        """Cost/utilization impact of one scenario (failure and/or traffic).

        The scenario is lowered to its normalized
        ``(surviving network, projected weights, transformed traffic)``
        form and evaluated through the session's
        :class:`~repro.scenarios.batch.SweepEngine`, which derives the
        degraded routing from the intact baseline via incremental SPF
        where the change is small and shares state across queries.
        Demand pairs the scenario disconnects are excluded from the
        evaluation and surfaced on the result (``disconnected`` /
        ``lost_demand``) instead of raising.

        Args:
            scenario: A :class:`~repro.scenarios.Scenario` or a spec
                string such as ``"node:3"`` or ``"link:0-4+surge:3x2.0"``
                (see :func:`repro.scenarios.parse_scenario`).
            kind: Result kind (``under_failure`` passes ``"failure"``).
            description: Override for the result description.

        Returns:
            A :class:`WhatIfResult` whose ``variant`` is an evaluation
            over the surviving network; utilization deltas are projected
            back to intact link indexing.
        """
        from repro.scenarios.spec import parse_scenario

        if isinstance(scenario, str):
            scenario = parse_scenario(scenario)
        engine = self._scenario_engine()
        outcome = engine.evaluate(scenario)
        return self._scenario_result(outcome, kind=kind, description=description)

    def sweep(self, scenarios) -> "SweepResult":
        """Batched evaluation of many scenarios against the baseline.

        Scenarios that fail the same elements share one topology
        projection and one derived routing, and unaffected
        per-destination load rows are reused outright, so a sweep is
        several times faster than per-scenario re-evaluation while
        remaining bit-identical to it (see
        :mod:`repro.scenarios.batch`).

        Args:
            scenarios: An iterable of scenarios or a
                :class:`~repro.scenarios.ScenarioSet`.

        Returns:
            A :class:`~repro.scenarios.batch.SweepResult`; score its
            evaluations with ``session.cost_model.objective`` when a
            non-default cost model is in force.
        """
        return self._scenario_engine().sweep(scenarios)

    def sweep_space(self, space, **kwargs):
        """Streamed robustness aggregation over a combinatorial space.

        Enumerates the space lazily through the session's sweep engine
        with dominance pruning, folding every outcome into a streaming
        percentile/CVaR/worst-case aggregate — "all 2-link failures" in
        one call without materializing the scenario list (see
        :func:`repro.scenarios.sweep_scenario_space`).

        Args:
            space: A :class:`~repro.scenarios.ScenarioSpace` or a spec
                string such as ``"space:all-link-2"`` (see
                :func:`repro.scenarios.parse_space`).
            **kwargs: Passed through (``prune``, ``percentiles``,
                ``cvar_alpha``, ...).  Unless overridden, scenarios are
                scored through the session's cost model, matching
                :meth:`under_scenario` / :meth:`sweep` scoring.

        Returns:
            A :class:`~repro.scenarios.SpaceSweepResult`.
        """
        engine = self._scenario_engine()
        if "score" not in kwargs:

            def score(evaluation, network):
                objective = self.cost_model.objective(evaluation, network)
                return float(objective.primary), float(objective.secondary)

            kwargs["score"] = score
        return engine.sweep_space(space, **kwargs)

    def _sweep_engine_class(self) -> type["SweepEngine"]:
        """The engine class scenario queries run on (a reference seam)."""
        from repro.scenarios.batch import SweepEngine

        return SweepEngine

    def _scenario_engine(self) -> "SweepEngine":
        """The (cached) sweep engine bound to the current baseline."""
        wh, wl = self._require_baseline()
        key = weights_key(wh) + b"|" + weights_key(wl)
        cached = self._sweep_engine_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        engine = self._sweep_engine_class()(
            self.network,
            wh,
            wl,
            self.high_traffic,
            self.low_traffic,
            mode=self.evaluator.mode,
            sla_params=self.sla_params,
        )
        self._sweep_engine_cache = (key, engine)
        return engine

    def _scenario_result(
        self,
        outcome: "ScenarioOutcome",
        kind: str,
        description: Optional[str] = None,
    ) -> WhatIfResult:
        """Fold one sweep outcome into a what-if result with back-projection."""
        engine = self._scenario_engine()
        baseline = engine.baseline
        lowered = outcome.lowered
        variant = outcome.evaluation
        high_d, low_d, total_d = utilization_deltas(
            self.network.capacities(),
            baseline,
            lowered.project_loads_back(variant.high_loads),
            lowered.project_loads_back(variant.low_loads),
        )
        return WhatIfResult(
            kind=kind,
            description=description or lowered.description,
            baseline=baseline,
            variant=variant,
            baseline_objective=self.cost_model.objective(baseline, self.network),
            variant_objective=self.cost_model.objective(variant, lowered.network),
            high_utilization_delta=high_d,
            low_utilization_delta=low_d,
            utilization_delta=total_d,
            scenario_kind=outcome.scenario.kind,
            disconnected=outcome.disconnected,
            lost_demand=outcome.lost_demand,
        )

    def scaled_traffic(self, factor: float) -> WhatIfResult:
        """Cost/utilization impact of scaling both traffic classes.

        Routing depends only on weights, so no SPF runs at all: the
        baseline's per-link class loads are rescaled and only the O(|E|)
        costing pass (plus, in SLA mode, the per-pair delay fold over the
        cached routing) is recomputed.

        Args:
            factor: Non-negative multiplier on both matrices.

        Returns:
            A :class:`WhatIfResult` with ``kind="traffic"``.
        """
        if factor < 0:
            raise ValueError(f"traffic scale factor must be non-negative, got {factor}")
        wh, _wl = self._require_baseline()
        baseline = self.evaluate()
        net = self.network
        high_loads = baseline.high_loads * factor
        low_loads = baseline.low_loads * factor

        if self.evaluator.mode == LOAD_MODE:
            variant: Evaluation = load_cost_from_loads(net, high_loads, low_loads)
        else:
            variant = sla_cost_from_loads(
                net,
                high_loads,
                low_loads,
                self.high_traffic,
                self.evaluator.high_routing(wh).pair_link_fractions,
                params=self.sla_params,
            )

        high_d, low_d, total_d = utilization_deltas(
            net.capacities(), baseline, high_loads, low_loads
        )
        return WhatIfResult(
            kind=KIND_TRAFFIC,
            description=f"traffic scaled by {factor:g}x",
            baseline=baseline,
            variant=variant,
            baseline_objective=self.cost_model.objective(baseline, net),
            variant_objective=self.cost_model.objective(variant, net),
            high_utilization_delta=high_d,
            low_utilization_delta=low_d,
            utilization_delta=total_d,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_delta(base: np.ndarray, spec: DeltaLike) -> WeightDelta:
        """Normalize a delta spec against one baseline vector."""
        if isinstance(spec, WeightDelta):
            return spec
        if isinstance(spec, dict):
            items = spec.items()
        else:
            try:
                link, new_weight = spec
            except (TypeError, ValueError):
                raise TypeError(
                    "delta must be a WeightDelta, a (link, new_weight) pair, "
                    "or a {link: new_weight} mapping"
                ) from None
            items = [(link, new_weight)]
        new = base.copy()
        for link, new_weight in items:
            link = int(link)
            if not 0 <= link < base.size:
                raise ValueError(
                    f"link index {link} out of range [0, {base.size})"
                )
            new[link] = int(new_weight)
        return WeightDelta.from_weights(base, new)

    def _direct_evaluation(
        self,
        net: Network,
        wh: np.ndarray,
        wl: np.ndarray,
        cache: bool = False,
    ) -> Evaluation:
        """From-scratch evaluation via plain routings (failure queries).

        Both the intact baseline and every degraded variant use this
        path, keeping a failure sweep's ratios free of cross-path
        floating-point noise.
        """
        if cache:
            key = weights_key(wh) + b"|" + weights_key(wl)
            hit = self._direct_cache.get(key)
            if hit is not None:
                return hit
        high_routing = Routing(net, wh)
        low_routing = high_routing if np.array_equal(wh, wl) else Routing(net, wl)
        if self.evaluator.mode == LOAD_MODE:
            evaluation: Evaluation = evaluate_load_cost(
                net, high_routing, low_routing, self.high_traffic, self.low_traffic
            )
        else:
            evaluation = evaluate_sla_cost(
                net,
                high_routing,
                low_routing,
                self.high_traffic,
                self.low_traffic,
                params=self.sla_params,
            )
        if cache:
            self._direct_cache.clear()  # single-slot: a new baseline evicts the old
            self._direct_cache[key] = evaluation
        return evaluation
