"""STR search under the joint scalar cost ``J = alpha * Phi_H + Phi_L``.

Section 3.3.1 argues that collapsing the two class objectives into one
weighted sum is fragile: too small an ``alpha`` produces priority
inversions, too large an ``alpha`` adds nothing over the lexicographic
formulation, and no single value works across configurations.  This
module makes that argument quantitative at full network scale: it runs
the same local search as the ``"str"`` strategy but driven by ``J``, and
provides a sweep utility that measures, per alpha, the achieved class
costs and whether a priority inversion occurred relative to the
lexicographic solution.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.evaluator import LOAD_MODE, DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.perturbation import perturb_weights
from repro.core.progress import ProgressFn, ProgressTicker
from repro.core.result import OptimizationResult, TracePoint
from repro.core.search_params import SearchParams
from repro.costs.load_cost import LoadCostEvaluation
from repro.routing.weights import as_weight_array, random_weights


def _joint_search(
    evaluator: DualTopologyEvaluator,
    alpha: float,
    params: Optional[SearchParams],
    rng: random.Random,
    initial_weights: Optional[Sequence[int]] = None,
    progress: Optional[ProgressFn] = None,
) -> OptimizationResult:
    """Search a single weight vector minimizing ``J = alpha*Phi_H + Phi_L``.

    The implementation behind the registered ``"joint"`` strategy.

    Args:
        evaluator: A *load-mode* evaluator (the joint cost is defined on
            the load-based class costs).
        alpha: Non-negative trade-off multiplier.
        params: Search budgets; library defaults if ``None``.
        rng: Source of randomness.
        initial_weights: Starting point; random weights if omitted.
        progress: Optional heartbeat callback, called as
            ``progress("joint", iteration, total)`` every
            ``params.progress_interval`` iterations and once at
            termination.

    Returns:
        An :class:`OptimizationResult` whose objective is the best
        setting's ``<Phi_H, Phi_L>`` and whose ``metadata`` holds
        ``alpha`` and the best ``joint_cost``; its cost trace records
        ``(J, 0.0)`` at each improvement.

    Raises:
        ValueError: if the evaluator is not in load mode, alpha < 0, or
            the starting point is invalid (fractional weights are
            rejected, never truncated).
    """
    t0 = time.perf_counter()
    start_evals = evaluator.evaluations
    if evaluator.mode != LOAD_MODE:
        raise ValueError("joint-cost search requires a load-mode evaluator")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    params = params or SearchParams()
    num_links = evaluator.network.num_links

    if initial_weights is None:
        current = random_weights(num_links, rng, params.min_weight, params.max_weight)
    else:
        current = as_weight_array(initial_weights, num_links)

    def joint(evaluation: LoadCostEvaluation) -> float:
        return alpha * evaluation.phi_high + evaluation.phi_low

    sampler = NeighborhoodSampler(params, rng)
    evaluation = evaluator.evaluate_str(current)
    best_weights = current.copy()
    best_joint = joint(evaluation)
    best_evaluation = evaluation
    history = [(0, best_joint)]
    stale = 0
    ticker = ProgressTicker(progress, params.progress_interval)
    total_iterations = params.total_iterations()

    for iteration in range(1, total_iterations + 1):
        ticker.tick("joint", iteration, total_iterations)
        per_link = alpha * evaluation.per_link_high + evaluation.per_link_low
        order = list(np.argsort(-per_link, kind="stable"))
        improved = False
        deltas = sampler.single_change_deltas(current, order)
        children, candidates = evaluator.evaluate_moves(
            current, current, [(delta, delta) for delta in deltas]
        )
        for (neighbor, _), candidate in zip(children, candidates):
            if joint(candidate) < joint(evaluation):
                current, evaluation = neighbor, candidate
                improved = True
        if improved and joint(evaluation) < best_joint:
            best_joint = joint(evaluation)
            best_weights = current.copy()
            best_evaluation = evaluation
            history.append((iteration, best_joint))
            stale = 0
        else:
            stale += 1
        if stale >= params.diversification_interval:
            current = perturb_weights(
                current,
                params.perturb_high_fraction,
                rng,
                params.min_weight,
                params.max_weight,
            )
            evaluation = evaluator.evaluate_str(current)
            stale = 0

    ticker.finish("joint", total_iterations)
    return OptimizationResult(
        strategy="joint",
        high_weights=best_weights,
        low_weights=best_weights,
        objective=LexCost(best_evaluation.phi_high, best_evaluation.phi_low),
        evaluation=evaluator.evaluate_str(best_weights),
        cost_trace=tuple(TracePoint("joint", it, j, 0.0) for it, j in history),
        evaluations=evaluator.evaluations - start_evals,
        wall_time_s=time.perf_counter() - t0,
        metadata={"alpha": alpha, "joint_cost": best_joint},
    )


@dataclass(frozen=True)
class AlphaSweepPoint:
    """One alpha of :func:`alpha_sweep`."""

    alpha: float
    phi_high: float
    phi_low: float
    priority_inversion: bool


def alpha_sweep(
    evaluator: DualTopologyEvaluator,
    alphas: Iterable[float],
    reference_phi_high: float,
    params: Optional[SearchParams] = None,
    seed: int = 1,
    inversion_tolerance: float = 0.02,
) -> list[AlphaSweepPoint]:
    """Optimize ``J`` for each alpha and flag priority inversions.

    A priority inversion is declared when the joint optimum's high-priority
    cost exceeds the lexicographic reference ``reference_phi_high`` by more
    than ``inversion_tolerance`` (relative), i.e. the joint cost traded away
    high-priority performance that the lexicographic objective protects.

    Args:
        evaluator: Load-mode evaluator.
        alphas: Alpha values to sweep.
        reference_phi_high: ``Phi_H`` of the lexicographic STR solution.
        params: Search budgets shared by all alphas.
        seed: Base seed; alpha index ``i`` uses ``seed + i``.
        inversion_tolerance: Relative slack before declaring inversion.

    Returns:
        One :class:`AlphaSweepPoint` per alpha, in input order.
    """
    points = []
    for i, alpha in enumerate(alphas):
        result = _joint_search(
            evaluator, float(alpha), params=params, rng=random.Random(seed + i)
        )
        phi_high = result.objective.primary
        inversion = phi_high > reference_phi_high * (1.0 + inversion_tolerance)
        points.append(
            AlphaSweepPoint(
                alpha=float(alpha),
                phi_high=phi_high,
                phi_low=result.objective.secondary,
                priority_inversion=inversion,
            )
        )
    return points
