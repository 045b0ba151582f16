"""Simulated-annealing baseline for STR weight search.

The weight-setting literature the paper cites spans local search [2],
genetic [3], and memetic [4] algorithms.  This module provides a
simulated-annealing optimizer over the same solution space (integer
weights in ``[1, 30]``, lexicographic objective) as an independent
baseline for the paper's rank-biased local search — used by the ablation
benchmarks to show the heuristic's structure earns its keep under equal
evaluation budgets.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.evaluator import DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.core.progress import ProgressFn, ProgressTicker
from repro.core.result import OptimizationResult, TracePoint
from repro.core.search_params import SearchParams
from repro.routing.incremental import WeightDelta
from repro.routing.weights import as_weight_array, random_weights


@dataclass(frozen=True)
class AnnealingParams:
    """Simulated-annealing schedule.

    Attributes:
        iterations: Proposal count.
        initial_temperature: Starting temperature, in units of *relative*
            secondary-cost increase (primary-cost increases are always
            rejected to respect the lexicographic precedence).
        cooling: Geometric cooling factor per iteration.
        moves_per_proposal: Links mutated per proposal.
    """

    iterations: int = 1400
    initial_temperature: float = 0.3
    cooling: float = 0.997
    moves_per_proposal: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.moves_per_proposal < 1:
            raise ValueError("moves_per_proposal must be >= 1")


def _acceptance_probability(
    current: LexCost, candidate: LexCost, temperature: float
) -> float:
    """Lexicographic Metropolis rule.

    Improvements are always accepted.  A candidate that worsens only the
    secondary cost is accepted with probability
    ``exp(-relative_increase / T)``.  A candidate that worsens the primary
    cost is always rejected, preserving the class precedence.
    """
    if candidate <= current:
        return 1.0
    if candidate.primary > current.primary:
        return 0.0
    base = max(current.secondary, 1e-12)
    increase = (candidate.secondary - current.secondary) / base
    return math.exp(-increase / max(temperature, 1e-12))


def _anneal_search(
    evaluator: DualTopologyEvaluator,
    params: Optional[AnnealingParams],
    search_params: Optional[SearchParams],
    rng: random.Random,
    initial_weights: Optional[Sequence[int]] = None,
    progress: Optional[ProgressFn] = None,
) -> OptimizationResult:
    """Simulated-annealing search for a single (STR) weight vector.

    The implementation behind the registered ``"anneal"`` strategy.

    Args:
        evaluator: Cost evaluator (load or SLA mode).
        params: Annealing schedule; defaults roughly match the evaluation
            budget of the default :class:`SearchParams` local search.
        search_params: Supplies the weight range and progress interval;
            defaults if ``None``.
        rng: Source of randomness.
        initial_weights: Starting point; random weights if omitted.
        progress: Optional heartbeat callback, called as
            ``progress("anneal", iteration, total)`` every
            ``search_params.progress_interval`` iterations and once at
            termination.

    Returns:
        An :class:`OptimizationResult` with the best (not final) state;
        ``metadata`` holds the acceptance counts and the schedule.

    Raises:
        ValueError: on an invalid starting point (fractional weights are
            rejected, never truncated).
    """
    t0 = time.perf_counter()
    start_evals = evaluator.evaluations
    params = params or AnnealingParams()
    search_params = search_params or SearchParams()
    num_links = evaluator.network.num_links

    if initial_weights is None:
        current = random_weights(
            num_links, rng, search_params.min_weight, search_params.max_weight
        )
    else:
        current = as_weight_array(initial_weights, num_links)

    current_eval = evaluator.evaluate_str(current)
    best = current.copy()
    best_objective = current_eval.objective
    history = [(0, best_objective)]
    temperature = params.initial_temperature
    accepted = 0
    rejected = 0
    ticker = ProgressTicker(progress, search_params.progress_interval)

    for iteration in range(1, params.iterations + 1):
        ticker.tick("anneal", iteration, params.iterations)
        candidate = current.copy()
        for _ in range(params.moves_per_proposal):
            link = rng.randrange(num_links)
            candidate[link] = rng.randint(
                search_params.min_weight, search_params.max_weight
            )
        delta = WeightDelta.from_weights(current, candidate)
        _, (candidate_eval,) = evaluator.evaluate_moves(current, current, [(delta, delta)])
        probability = _acceptance_probability(
            current_eval.objective, candidate_eval.objective, temperature
        )
        if rng.random() < probability:
            current, current_eval = candidate, candidate_eval
            accepted += 1
            if current_eval.objective < best_objective:
                best = current.copy()
                best_objective = current_eval.objective
                history.append((iteration, best_objective))
        else:
            rejected += 1
        temperature *= params.cooling

    ticker.finish("anneal", params.iterations)
    return OptimizationResult(
        strategy="anneal",
        high_weights=best,
        low_weights=best,
        objective=best_objective,
        evaluation=evaluator.evaluate_str(best),
        cost_trace=tuple(
            TracePoint("anneal", it, cost.primary, cost.secondary)
            for it, cost in history
        ),
        evaluations=evaluator.evaluations - start_evals,
        wall_time_s=time.perf_counter() - t0,
        metadata={
            "accepted": accepted,
            "rejected": rejected,
            "iterations": params.iterations,
            "initial_temperature": params.initial_temperature,
            "cooling": params.cooling,
        },
    )
