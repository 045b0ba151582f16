"""Single-topology (STR) weight search and its epsilon-relaxed variant.

The baseline follows the "single weight change" local search of
Fortz-Thorup [2]: candidate moves change a single link weight, links being
chosen with the same cost-rank bias as the DTR neighborhood, and the
search diversifies after ``M`` stale iterations.

The relaxed variant (paper Sections 3.3.2 and 5.3.1) additionally records,
for each requested ``epsilon``, the best low-priority cost among weight
settings whose high-priority cost stays within ``(1 + epsilon)`` of the
best high-priority cost seen so far.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.evaluator import DualTopologyEvaluator, Evaluation
from repro.core.neighborhood import NeighborhoodSampler, descending_high_link_order
from repro.core.perturbation import perturb_weights
from repro.core.progress import ProgressFn, ProgressTicker
from repro.core.result import OptimizationResult, RelaxedSolution, TracePoint
from repro.core.search_params import SearchParams
from repro.routing.weights import as_weight_array, random_weights


def _str_search(
    evaluator: DualTopologyEvaluator,
    params: Optional[SearchParams],
    rng: random.Random,
    initial_weights: Optional[Sequence[int]] = None,
    relaxation_epsilons: Iterable[float] = (),
    progress: Optional[ProgressFn] = None,
) -> OptimizationResult:
    """Search for a single weight vector minimizing the lexicographic objective.

    The implementation behind the registered ``"str"`` strategy: the
    single-weight-change local search of Fortz & Thorup [FT00] run for
    the combined budget of the three DTR routines, so STR and DTR receive
    comparable computational effort.

    Args:
        evaluator: Cost evaluator (load or SLA mode).
        params: Search budgets; library defaults if ``None``.
        rng: Source of randomness.
        initial_weights: Starting point; random weights if omitted.
        relaxation_epsilons: Epsilons for which relaxed solutions are tracked.
        progress: Optional heartbeat callback, called as
            ``progress("str", iteration, total)`` every
            ``params.progress_interval`` iterations and once when the
            search terminates.

    Returns:
        An :class:`OptimizationResult` whose ``relaxed`` maps each
        epsilon that admitted a solution to its best relaxed solution.

    Raises:
        ValueError: on a negative epsilon or an invalid starting point
            (fractional weights are rejected, never truncated).
    """
    t0 = time.perf_counter()
    params = params or SearchParams()
    num_links = evaluator.network.num_links
    epsilons = sorted(set(float(e) for e in relaxation_epsilons))
    if any(e < 0 for e in epsilons):
        raise ValueError("relaxation epsilons must be non-negative")

    if initial_weights is None:
        current = random_weights(num_links, rng, params.min_weight, params.max_weight)
    else:
        current = as_weight_array(initial_weights, num_links)

    sampler = NeighborhoodSampler(params, rng)
    start_evals = evaluator.evaluations

    evaluation = evaluator.evaluate_str(current)
    best_weights = current.copy()
    best_objective = evaluation.objective
    best_primary = best_objective.primary
    history = [(0, best_objective)]
    relaxed: dict[float, RelaxedSolution] = {}

    def consider_relaxed(weights: np.ndarray, candidate: Evaluation) -> None:
        primary = candidate.objective.primary
        for eps in epsilons:
            if primary > (1.0 + eps) * best_primary:
                continue
            incumbent = relaxed.get(eps)
            if incumbent is None or candidate.phi_low < incumbent.phi_low:
                relaxed[eps] = RelaxedSolution(
                    epsilon=eps,
                    weights=weights.copy(),
                    primary_cost=primary,
                    phi_low=candidate.phi_low,
                )

    consider_relaxed(current, evaluation)
    stale = 0
    ticker = ProgressTicker(progress, params.progress_interval)
    total_iterations = params.total_iterations()
    for iteration in range(1, total_iterations + 1):
        ticker.tick("str", iteration, total_iterations)
        order = descending_high_link_order(evaluation)
        improved = False
        deltas = sampler.single_change_deltas(current, order)
        children, candidates = evaluator.evaluate_moves(
            current, current, [(delta, delta) for delta in deltas]
        )
        for (neighbor, _), candidate in zip(children, candidates):
            consider_relaxed(neighbor, candidate)
            if candidate.objective < evaluation.objective:
                current, evaluation = neighbor, candidate
                improved = True
        if improved and evaluation.objective < best_objective:
            best_weights = current.copy()
            best_objective = evaluation.objective
            best_primary = min(best_primary, best_objective.primary)
            history.append((iteration, best_objective))
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
            consider_relaxed(current, evaluation)
            stale = 0

    ticker.finish("str", total_iterations)
    return OptimizationResult(
        strategy="str",
        high_weights=best_weights,
        low_weights=best_weights,
        objective=best_objective,
        evaluation=evaluator.evaluate_str(best_weights),
        cost_trace=tuple(
            TracePoint("str", it, cost.primary, cost.secondary) for it, cost in history
        ),
        evaluations=evaluator.evaluations - start_evals,
        wall_time_s=time.perf_counter() - t0,
        metadata={
            "iterations": total_iterations,
            "relaxation_epsilons": sorted(relaxed),
        },
        relaxed=relaxed,
    )
