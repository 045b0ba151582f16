"""Multi-topology traffic slicing (Balon & Leduc [6]) for the low class.

The paper's related work proposes approximating optimal traffic
engineering by dividing the traffic matrix into slices, each routed on its
own topology: more slices, better approximation.  This module applies that
idea inside the paper's service-differentiation setting — the
high-priority class keeps its dedicated topology (optimized first,
lexicographically), while the low-priority matrix is split into ``k``
slices routed on ``k`` independent weight vectors, optimized by coordinate
descent with the FindL neighborhood.  ``k = 1`` degenerates to DTR.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.evaluator import DualTopologyEvaluator, LOAD_MODE
from repro.core.lexicographic import LexCost
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.perturbation import perturb_weights
from repro.core.search_params import SearchParams
from repro.costs.fortz import fortz_cost_vector
from repro.costs.pricing import price_high
from repro.determinism import default_rng
from repro.lru import LruCache
from repro.routing.state import Routing
from repro.routing.weights import as_weight_array, weights_key
from repro.traffic.matrix import TrafficMatrix


def slice_traffic_matrix(
    tm: TrafficMatrix, num_slices: int, rng: Optional[random.Random] = None
) -> list[TrafficMatrix]:
    """Split a matrix into volume-balanced slices of whole SD pairs.

    Pairs are sorted by decreasing volume and greedily assigned to the
    currently lightest slice (longest-processing-time balancing), with
    random tie order for same-volume pairs.

    Args:
        tm: Matrix to slice.
        num_slices: Number of slices ``k`` (>= 1).
        rng: Source of randomness; a fresh unseeded one is created if omitted.

    Returns:
        ``k`` matrices summing (exactly) to ``tm``.
    """
    if num_slices < 1:
        raise ValueError(f"num_slices must be >= 1, got {num_slices}")
    rng = rng or default_rng("core/slicing")
    pairs = list(tm.pairs())
    rng.shuffle(pairs)
    pairs.sort(key=lambda e: -e[2])
    buckets = [np.zeros((tm.num_nodes, tm.num_nodes)) for _ in range(num_slices)]
    volumes = [0.0] * num_slices
    for s, t, rate in pairs:
        idx = min(range(num_slices), key=lambda i: volumes[i])
        buckets[idx][s, t] += rate
        volumes[idx] += rate
    return [TrafficMatrix(bucket) for bucket in buckets]


@dataclass
class SlicedResult:
    """Outcome of a sliced-MTR optimization.

    Attributes:
        high_weights: Weight vector of the high-priority topology.
        slice_weights: One weight vector per low-priority slice.
        slices: The sliced low-priority matrices.
        objective: Final lexicographic cost ``<Phi_H, Phi_L>``.
        history: ``(round, Phi_L)`` recorded at each improvement.
    """

    high_weights: np.ndarray
    slice_weights: list[np.ndarray]
    slices: list[TrafficMatrix]
    objective: LexCost
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def num_topologies(self) -> int:
        """Total topologies in use (1 high + k slices)."""
        return 1 + len(self.slice_weights)


def optimize_sliced_low(
    evaluator: DualTopologyEvaluator,
    high_weights: Sequence[int],
    num_slices: int,
    params: Optional[SearchParams] = None,
    rng: Optional[random.Random] = None,
    rounds: Optional[int] = None,
) -> SlicedResult:
    """Optimize ``k`` low-priority slice topologies below a fixed high topology.

    Coordinate descent: each round sweeps the slices in order; for each
    slice a FindL-style step perturbs that slice's weights against the
    residual capacities left by the high class, holding the other slices'
    loads fixed.

    Args:
        evaluator: A *load-mode* evaluator carrying the traffic matrices.
        high_weights: High-priority weights (typically a DTR result).
        num_slices: Number of low-priority slices ``k``.
        params: Search knobs; the per-slice step budget is
            ``iterations_low`` split across slices and rounds.
        rng: Source of randomness; a fresh unseeded one is created if omitted.
        rounds: Coordinate-descent rounds; derived from the budget if omitted.

    Returns:
        A :class:`SlicedResult`.

    Raises:
        ValueError: if the evaluator is not in load mode, or
            ``high_weights`` is not a valid integer weight setting (see
            :func:`~repro.routing.weights.as_weight_array`).
    """
    if evaluator.mode != LOAD_MODE:
        raise ValueError("sliced optimization requires a load-mode evaluator")
    params = params or SearchParams()
    rng = rng or default_rng("core/slicing")
    net = evaluator.network
    # Validate, never truncate: an int64 cast would run 2.5 as 2.
    high_weights = as_weight_array(high_weights, net.num_links)

    high_loads = evaluator.high_routing(high_weights).link_loads(evaluator.high_traffic)
    high = price_high(net, high_loads, LOAD_MODE)
    residual = high.residual
    phi_high = float(high.per_link.sum())

    slices = slice_traffic_matrix(evaluator.low_traffic, num_slices, rng)
    load_cache: LruCache[tuple[int, bytes], np.ndarray] = LruCache(512)
    slice_weights = [high_weights.copy() for _ in range(num_slices)]
    sampler = NeighborhoodSampler(params, rng)

    def slice_loads(index: int, weights: np.ndarray) -> np.ndarray:
        key = (index, weights_key(np.asarray(weights, dtype=np.int64)))
        loads = load_cache.get(key)
        if loads is None:
            loads = Routing(net, weights).link_loads(slices[index])
            load_cache.put(key, loads)
        return loads

    def total_low_loads() -> np.ndarray:
        loads = np.zeros(net.num_links)
        for idx, weights in enumerate(slice_weights):
            loads += slice_loads(idx, weights)
        return loads

    def phi_low_of(loads: np.ndarray) -> float:
        return float(fortz_cost_vector(loads, residual).sum())

    best_phi_low = phi_low_of(total_low_loads())
    best_slice_weights = [w.copy() for w in slice_weights]
    history = [(0, best_phi_low)]
    if rounds is None:
        rounds = max(1, params.iterations_low // max(1, num_slices))

    stale = 0
    for round_idx in range(1, rounds + 1):
        for idx in range(num_slices):
            others = total_low_loads() - slice_loads(idx, slice_weights[idx])
            current_loads = slice_loads(idx, slice_weights[idx])
            per_link = fortz_cost_vector(others + current_loads, residual)
            order = list(np.argsort(-per_link, kind="stable"))
            best_neighbor = None
            best_value = phi_low_of(others + current_loads)
            for neighbor in sampler.neighbors(slice_weights[idx], order):
                candidate = phi_low_of(others + slice_loads(idx, neighbor))
                if candidate < best_value:
                    best_value = candidate
                    best_neighbor = neighbor
            if best_neighbor is not None:
                slice_weights[idx] = best_neighbor
        phi_low = phi_low_of(total_low_loads())
        if phi_low < best_phi_low:
            best_phi_low = phi_low
            best_slice_weights = [w.copy() for w in slice_weights]
            history.append((round_idx, phi_low))
            stale = 0
        else:
            stale += 1
        if stale >= params.diversification_interval:
            victim = rng.randrange(num_slices)
            slice_weights[victim] = perturb_weights(
                slice_weights[victim],
                params.perturb_low_fraction,
                rng,
                params.min_weight,
                params.max_weight,
            )
            stale = 0

    return SlicedResult(
        high_weights=high_weights,
        slice_weights=best_slice_weights,
        slices=slices,
        objective=LexCost(phi_high, best_phi_low),
        history=history,
    )
