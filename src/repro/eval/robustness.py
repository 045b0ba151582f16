"""Robustness of weight settings under degraded scenarios.

A weight setting tuned for the intact network keeps being used after a
failure — OSPF simply recomputes shortest paths over the survivors.
This module evaluates how STR and DTR weight settings degrade across
scenario sweeps, the robustness criterion of Nucci et al. [5] and a
natural companion to the paper's MTR deployment argument.

Two sweep shapes are provided:

* :func:`failure_sweep_session` — the classic single-adjacency failure
  sweep, riding :meth:`repro.api.Session.sweep` (the batched scenario
  engine) instead of one query per failure.  Failures that disconnect
  demand are **not skipped**: each outcome carries an explicit
  ``disconnected`` flag and the demand volume lost, and cost statistics
  fold the connected outcomes only.
* :func:`scenario_sweep_session` — the general form: any mix of
  scenario classes (link, node, SRLG, traffic surge, ...) with
  worst/mean degradation reported *per scenario class*.

:func:`deployment_sessions` pins one comparison's STR and DTR settings,
the two deployments every campaign and figure sweep compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.lexicographic import LexCost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session
    from repro.eval.experiment import ComparisonResult
    from repro.network.graph import Network
    from repro.scenarios.algebra import Scenario
    from repro.scenarios.batch import SweepResult
    from repro.scenarios.spaces import SpaceSweepResult


@dataclass(frozen=True)
class FailureOutcome:
    """Cost of one weight setting under one failure scenario.

    ``disconnected`` outcomes were evaluated over the routable demand
    remainder (``lost_demand`` Mb/s excluded); their costs are reported
    but kept out of the worst/mean statistics, where they would compare
    a smaller workload against the full baseline.
    """

    failed_pair: tuple[int, int]
    phi_high: float
    phi_low: float
    max_utilization: float
    disconnected: bool = False
    lost_demand: float = 0.0

    @property
    def objective(self) -> LexCost:
        """Lexicographic cost under this failure."""
        return LexCost(self.phi_high, self.phi_low)


@dataclass(frozen=True)
class RobustnessReport:
    """Aggregate of a full single-failure sweep for one weight setting.

    Attributes:
        baseline: Cost on the intact network.
        outcomes: Per-failure costs — every adjacency, including those
            whose failure disconnects demand (flagged, not dropped).
    """

    baseline: FailureOutcome
    outcomes: tuple[FailureOutcome, ...]

    @property
    def disconnected_count(self) -> int:
        """Failures that cut off positive demand (flagged outcomes)."""
        return sum(1 for o in self.outcomes if o.disconnected)

    @property
    def skipped_disconnecting(self) -> int:
        """Deprecated alias for :attr:`disconnected_count`.

        Disconnecting failures used to be silently dropped from the
        sweep; they are now evaluated and flagged.  The old name remains
        for stored-record and caller compatibility.
        """
        return self.disconnected_count

    def _connected(self) -> list[FailureOutcome]:
        return [o for o in self.outcomes if not o.disconnected]

    @property
    def worst_phi_low(self) -> float:
        """Worst low-priority cost across connected failures."""
        values = [o.phi_low for o in self._connected()]
        return max(values) if values else self.baseline.phi_low

    @property
    def worst_phi_high(self) -> float:
        """Worst high-priority cost across connected failures."""
        values = [o.phi_high for o in self._connected()]
        return max(values) if values else self.baseline.phi_high

    @property
    def mean_phi_low(self) -> float:
        """Mean low-priority cost across connected failures."""
        values = [o.phi_low for o in self._connected()]
        return float(np.mean(values)) if values else self.baseline.phi_low

    @property
    def mean_phi_high(self) -> float:
        """Mean high-priority cost across connected failures."""
        values = [o.phi_high for o in self._connected()]
        return float(np.mean(values)) if values else self.baseline.phi_high

    def degradation_factor(self) -> float:
        """Worst-case over baseline low-priority cost ratio."""
        if self.baseline.phi_low <= 0:
            return 1.0
        return self.worst_phi_low / self.baseline.phi_low


def deployment_sessions(
    net: "Network", result: "ComparisonResult"
) -> Iterator[tuple[str, "Session"]]:
    """Load-mode sessions pinned to one comparison's two weight settings.

    Yields ``("str", session)`` and then ``("dtr", session)``, each over
    ``net`` and the comparison's traffic: the STR and DTR deployments a
    robustness sweep compares, their weights kept as deployed.
    """
    from repro.api.session import Session

    for label, high_w, low_w in (
        ("str", result.str_result.weights, result.str_result.weights),
        ("dtr", result.dtr_result.high_weights, result.dtr_result.low_weights),
    ):
        session = Session(net, result.high_traffic, result.low_traffic, cost_model="load")
        session.set_weights(high_w, low_w)
        yield label, session


def failure_sweep_session(session: "Session") -> RobustnessReport:
    """Evaluate a session's baseline weights under every single failure.

    Weight vectors are *not* re-optimized per failure: survivors keep
    their weights, exactly as deployed OSPF/MT-OSPF would.  The baseline
    setting is whatever the session adopted (an ``optimize`` result or
    an explicit ``set_weights``).  The whole sweep runs as one batched
    :meth:`~repro.api.Session.sweep`, so topology projections and
    incremental-SPF derivations are shared across failures.

    Args:
        session: A session with a pinned baseline weight setting.

    Returns:
        A :class:`RobustnessReport` with the baseline and *all* failure
        outcomes (disconnecting ones flagged), ordered by adjacency.
    """
    from repro.scenarios.algebra import LinkFailure

    net = session.network
    scenarios = [LinkFailure.single(u, v) for u, v in net.duplex_pairs()]
    result = session.sweep(scenarios)
    base_objective = session.cost_model.objective(result.baseline, net)
    baseline = FailureOutcome(
        failed_pair=(-1, -1),
        phi_high=base_objective.primary,
        phi_low=base_objective.secondary,
        max_utilization=result.baseline.max_utilization,
    )
    outcomes = []
    for outcome in result.outcomes:
        objective = session.cost_model.objective(
            outcome.evaluation, outcome.lowered.network
        )
        outcomes.append(
            FailureOutcome(
                failed_pair=outcome.scenario.pairs[0],
                phi_high=objective.primary,
                phi_low=objective.secondary,
                max_utilization=outcome.evaluation.max_utilization,
                disconnected=outcome.disconnected,
                lost_demand=outcome.lost_demand,
            )
        )
    return RobustnessReport(baseline=baseline, outcomes=tuple(outcomes))


# ----------------------------------------------------------------------
# General scenario sweeps (per-class degradation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioRobustnessReport:
    """Degradation of one weight setting across a mixed scenario sweep.

    Attributes:
        baseline_primary: Primary objective component on the intact
            network (``Phi_H`` in load mode, ``Lambda`` in SLA mode).
        baseline_secondary: Secondary component (``Phi_L``).
        classes: Per-scenario-class summaries, scored through the same
            cost model as the baseline (so degradation factors compare
            like with like even under the fortz/joint models).
        sweep: The underlying batched sweep result.
    """

    baseline_primary: float
    baseline_secondary: float
    classes: dict[str, "ScenarioClassSummary"]
    sweep: "SweepResult"

    @property
    def outcomes(self):
        return self.sweep.outcomes

    def by_class(self):
        """Per-scenario-class worst/mean summaries, keyed by kind."""
        return self.classes

    def degradation_by_class(self) -> dict[str, float]:
        """Worst secondary-cost degradation factor per scenario class."""
        if self.baseline_secondary <= 0:
            return {kind: 1.0 for kind in self.by_class()}
        return {
            kind: summary.worst_secondary / self.baseline_secondary
            for kind, summary in self.by_class().items()
        }

    def format(self) -> str:
        """A per-class degradation table (figures and CLI reports)."""
        lines = [
            f"scenario sweep — {len(self.outcomes)} scenarios, "
            f"baseline <{self.baseline_primary:.4g}, {self.baseline_secondary:.4g}>"
        ]
        for kind, s in self.by_class().items():
            lines.append(
                f"  {kind:8} n={s.scenarios:<4} disconnected={s.disconnected:<3} "
                f"worst_secondary={s.worst_secondary:.4g} "
                f"mean_secondary={s.mean_secondary:.4g} "
                f"worst_util={s.worst_max_utilization:.3f}"
            )
        return "\n".join(lines)


def scenario_sweep_session(
    session: "Session", scenarios: Iterable["Scenario"]
) -> ScenarioRobustnessReport:
    """Sweep arbitrary scenarios and fold per-class degradation metrics.

    Baseline and per-class statistics are all scored through the
    session's cost model — never the evaluations' native objectives —
    so worst/mean/degradation figures stay internally consistent under
    every registered model.

    Args:
        session: A session with a pinned baseline weight setting.
        scenarios: Scenarios (or a :class:`~repro.scenarios.ScenarioSet`)
            to evaluate; mix classes freely.
    """
    from repro.scenarios.batch import ScenarioClassSummary

    result = session.sweep(scenarios)
    base = session.cost_model.objective(result.baseline, session.network)

    grouped: dict[str, list] = {}
    for outcome in result.outcomes:
        grouped.setdefault(outcome.kind, []).append(outcome)
    classes = {}
    for kind in sorted(grouped):
        outcomes = grouped[kind]
        connected = [o for o in outcomes if not o.disconnected]
        scored = [
            session.cost_model.objective(o.evaluation, o.lowered.network)
            for o in connected
        ]
        primaries = [s.primary for s in scored]
        secondaries = [s.secondary for s in scored]
        classes[kind] = ScenarioClassSummary(
            kind=kind,
            scenarios=len(outcomes),
            disconnected=len(outcomes) - len(connected),
            worst_primary=max(primaries) if primaries else base.primary,
            mean_primary=float(np.mean(primaries)) if primaries else base.primary,
            worst_secondary=max(secondaries) if secondaries else base.secondary,
            mean_secondary=(
                float(np.mean(secondaries)) if secondaries else base.secondary
            ),
            worst_max_utilization=max(
                (o.evaluation.max_utilization for o in connected),
                default=result.baseline.max_utilization,
            ),
        )
    return ScenarioRobustnessReport(
        baseline_primary=base.primary,
        baseline_secondary=base.secondary,
        classes=classes,
        sweep=result,
    )


# ----------------------------------------------------------------------
# Combinatorial space sweeps (streamed aggregation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpaceRobustnessReport:
    """Degradation of one weight setting across a combinatorial space.

    The space-sweep counterpart of :class:`ScenarioRobustnessReport`:
    instead of per-outcome rows it carries the streamed
    percentile/CVaR/worst-case aggregate — the space ("all 2-link
    failures") is never materialized.  Scored through the session's
    cost model like every other robustness report.
    """

    result: "SpaceSweepResult"

    @property
    def space(self) -> str:
        return self.result.space

    @property
    def aggregate(self):
        return self.result.aggregate

    def degradation_factor(self) -> float:
        """Worst secondary cost over the baseline secondary cost."""
        if self.result.baseline_secondary <= 0:
            return 1.0
        return (
            self.result.aggregate.secondary.worst
            / self.result.baseline_secondary
        )

    def format(self) -> str:
        """A compact aggregate table (CLI reports)."""
        r = self.result
        lines = [
            f"space sweep {r.space} — {r.scenarios} scenarios "
            f"({r.evaluated} evaluated, {r.pruned} pruned, "
            f"{r.disconnected} disconnected), "
            f"baseline <{r.baseline_primary:.4g}, {r.baseline_secondary:.4g}>"
        ]
        for label, metric in (
            ("primary", r.aggregate.primary),
            ("secondary", r.aggregate.secondary),
            ("max_util", r.aggregate.max_utilization),
        ):
            pct = " ".join(
                f"p{level:g}={value:.4g}" for level, value in metric.percentiles
            )
            lines.append(
                f"  {label:9} worst={metric.worst:.4g} mean={metric.mean:.4g} "
                f"{pct} cvar={metric.cvar:.4g}"
            )
        return "\n".join(lines)


def space_sweep_session(
    session: "Session", space, **kwargs
) -> SpaceRobustnessReport:
    """Stream a combinatorial scenario space and fold robustness metrics.

    Args:
        session: A session with a pinned baseline weight setting.
        space: A :class:`~repro.scenarios.ScenarioSpace` or a spec string
            such as ``"space:all-link-2"``.
        **kwargs: Passed to :meth:`repro.api.Session.sweep_space`
            (``prune``, ``percentiles``, ``cvar_alpha``, ...).
    """
    return SpaceRobustnessReport(result=session.sweep_space(space, **kwargs))
