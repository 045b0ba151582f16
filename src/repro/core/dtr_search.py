"""DTR link-weight search: the paper's Algorithm 1 with FindH/FindL (Algorithm 2).

Routine 1 optimizes the high-priority weights ``W_H`` under the full
lexicographic objective with the low-priority weights held fixed.
Routine 2 freezes the best ``W_H`` and optimizes ``W_L`` by the
low-priority cost alone (``W_L`` cannot affect the high-priority class).
Routine 3 refines both vectors together in a small neighborhood of the
incumbent, alternating FindH and FindL steps.  Each routine diversifies by
randomly perturbing a fraction of weights after ``M`` stale iterations.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

import numpy as np

from repro.core.evaluator import DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.core.neighborhood import NeighborhoodSampler, descending_high_link_order
from repro.core.perturbation import perturb_weights
from repro.core.progress import ProgressFn, ProgressTicker
from repro.core.result import OptimizationResult, TracePoint
from repro.core.search_params import SearchParams
from repro.routing.weights import as_weight_array, random_weights

PHASE_HIGH = "high"
PHASE_LOW = "low"
PHASE_REFINE = "refine"


class _DtrSearch:
    """One run of Algorithm 1."""

    def __init__(
        self,
        evaluator: DualTopologyEvaluator,
        params: SearchParams,
        rng: random.Random,
        initial_high: np.ndarray,
        initial_low: np.ndarray,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.evaluator = evaluator
        self.params = params
        self.rng = rng
        self.ticker = ProgressTicker(progress, params.progress_interval)
        self.sampler = NeighborhoodSampler(params, rng)
        self.wh = initial_high.copy()
        self.wl = initial_low.copy()
        self.best_wh = initial_high.copy()
        self.best_wl = initial_low.copy()
        self.best_objective = evaluator.evaluate(self.wh, self.wl).objective
        self.history: list[tuple[str, int, LexCost]] = [
            (PHASE_HIGH, 0, self.best_objective)
        ]

    def _tick(self, phase: str, iteration: int, total: int) -> None:
        """Invoke the progress callback on heartbeat iterations."""
        self.ticker.tick(phase, iteration, total)

    # -- Algorithm 2 -----------------------------------------------------
    def find_step(self, which: str) -> None:
        """One FindH (``which='high'``) or FindL (``which='low'``) move.

        Replaces the current solution with the best neighbor if that
        neighbor improves it; otherwise the current solution is kept.  All
        ``m`` neighbors are evaluated in one batch call.
        """
        evaluation = self.evaluator.evaluate(self.wh, self.wl)
        if which == PHASE_HIGH:
            order = descending_high_link_order(evaluation)
            current, metric = self.wh, evaluation.objective
        else:
            keys = evaluation.low_link_sort_keys()
            order = list(np.argsort(-np.asarray(keys), kind="stable"))
            current, metric = self.wl, evaluation.phi_low

        deltas = self.sampler.neighbor_deltas(current, order)
        moves = [(d, None) if which == PHASE_HIGH else (None, d) for d in deltas]
        children, candidates = self.evaluator.evaluate_moves(self.wh, self.wl, moves)
        best_child = None
        best_metric = metric
        for child, candidate in zip(children, candidates):
            candidate_metric = candidate.objective if which == PHASE_HIGH else candidate.phi_low
            if candidate_metric < best_metric:
                best_metric = candidate_metric
                best_child = child
        if best_child is not None:
            self.wh, self.wl = best_child

    # -- Algorithm 1 routines ---------------------------------------------
    def routine_high(self) -> None:
        """Routine 1: optimize ``W_H`` with ``W_L`` fixed (lines 3-12)."""
        stale = 0
        for iteration in range(1, self.params.iterations_high + 1):
            self._tick(PHASE_HIGH, iteration, self.params.iterations_high)
            self.find_step(PHASE_HIGH)
            objective = self.evaluator.evaluate(self.wh, self.wl).objective
            if objective < self.best_objective:
                self.best_objective = objective
                self.best_wh = self.wh.copy()
                self.best_wl = self.wl.copy()
                self.history.append((PHASE_HIGH, iteration, objective))
                stale = 0
            else:
                stale += 1
            if stale >= self.params.diversification_interval:
                self.wh = self._perturb(self.wh, self.params.perturb_high_fraction)
                stale = 0
        self.ticker.finish(PHASE_HIGH, self.params.iterations_high)

    def routine_low(self) -> None:
        """Routine 2: freeze ``W_H*``, optimize ``W_L`` by ``Phi_L`` (lines 13-24)."""
        self.wh = self.best_wh.copy()
        self.wl = self.best_wl.copy()
        best_phi_low = self.evaluator.evaluate(self.wh, self.wl).phi_low
        stale = 0
        for iteration in range(1, self.params.iterations_low + 1):
            self._tick(PHASE_LOW, iteration, self.params.iterations_low)
            self.find_step(PHASE_LOW)
            evaluation = self.evaluator.evaluate(self.wh, self.wl)
            if evaluation.phi_low < best_phi_low:
                best_phi_low = evaluation.phi_low
                self.best_wl = self.wl.copy()
                self.best_objective = evaluation.objective
                self.history.append((PHASE_LOW, iteration, evaluation.objective))
                stale = 0
            else:
                stale += 1
            if stale >= self.params.diversification_interval:
                self.wl = self._perturb(self.wl, self.params.perturb_low_fraction)
                stale = 0
        self.ticker.finish(PHASE_LOW, self.params.iterations_low)

    def routine_refine(self) -> None:
        """Routine 3: joint refinement around the incumbent (lines 25-38)."""
        self.wh = self.best_wh.copy()
        self.wl = self.best_wl.copy()
        stale = 0
        for iteration in range(1, self.params.iterations_refine + 1):
            self._tick(PHASE_REFINE, iteration, self.params.iterations_refine)
            self.find_step(PHASE_HIGH)
            self.find_step(PHASE_LOW)
            objective = self.evaluator.evaluate(self.wh, self.wl).objective
            if objective < self.best_objective:
                self.best_objective = objective
                self.best_wh = self.wh.copy()
                self.best_wl = self.wl.copy()
                self.history.append((PHASE_REFINE, iteration, objective))
                stale = 0
            else:
                stale += 1
            if stale >= self.params.diversification_interval:
                self.wh = self._perturb(self.best_wh, self.params.perturb_refine_fraction)
                self.wl = self._perturb(self.best_wl, self.params.perturb_refine_fraction)
                stale = 0
        self.ticker.finish(PHASE_REFINE, self.params.iterations_refine)

    def _perturb(self, weights: np.ndarray, fraction: float) -> np.ndarray:
        return perturb_weights(
            weights, fraction, self.rng, self.params.min_weight, self.params.max_weight
        )


def _dtr_search(
    evaluator: DualTopologyEvaluator,
    params: Optional[SearchParams],
    rng: random.Random,
    initial_high: Optional[Sequence[int]] = None,
    initial_low: Optional[Sequence[int]] = None,
    progress: Optional[ProgressFn] = None,
) -> OptimizationResult:
    """Search for a dual weight setting minimizing the lexicographic objective.

    The implementation behind the registered ``"dtr"`` strategy (the
    paper's Algorithms 1-2).

    Args:
        evaluator: Cost evaluator (load or SLA mode).
        params: Search budgets; library defaults if ``None``.
        rng: Source of randomness.
        initial_high: Starting high-priority weights; random if omitted.
            Seeding both vectors with an STR solution guarantees DTR never
            ends lexicographically worse than that solution.
        initial_low: Starting low-priority weights; defaults to
            ``initial_high`` when that is given, otherwise random.
        progress: Optional heartbeat callback, called as
            ``progress(phase, iteration, total)`` with phase one of
            ``"high"`` / ``"low"`` / ``"refine"`` every
            ``params.progress_interval`` iterations.

    Returns:
        An :class:`OptimizationResult` whose ``metadata["seeded"]`` says
        whether ``initial_high`` was given.

    Raises:
        ValueError: on an invalid starting point (fractional weights are
            rejected, never truncated).
    """
    t0 = time.perf_counter()
    params = params or SearchParams()
    num_links = evaluator.network.num_links

    if initial_high is None:
        wh0 = random_weights(num_links, rng, params.min_weight, params.max_weight)
    else:
        wh0 = as_weight_array(initial_high, num_links)
    if initial_low is None:
        wl0 = wh0.copy() if initial_high is not None else random_weights(
            num_links, rng, params.min_weight, params.max_weight
        )
    else:
        wl0 = as_weight_array(initial_low, num_links)

    start_evals = evaluator.evaluations
    search = _DtrSearch(evaluator, params, rng, wh0, wl0, progress=progress)
    search.routine_high()
    search.routine_low()
    search.routine_refine()

    return OptimizationResult(
        strategy="dtr",
        high_weights=search.best_wh,
        low_weights=search.best_wl,
        objective=search.best_objective,
        evaluation=evaluator.evaluate(search.best_wh, search.best_wl),
        cost_trace=tuple(
            TracePoint(phase, it, cost.primary, cost.secondary)
            for phase, it, cost in search.history
        ),
        evaluations=evaluator.evaluations - start_evals,
        wall_time_s=time.perf_counter() - t0,
        metadata={"seeded": initial_high is not None},
    )
