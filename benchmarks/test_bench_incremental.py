"""Microbenchmark: incremental-SPF vs full evaluation of weight deltas.

The local searches spend almost all their time evaluating neighbors that
differ from an already-evaluated parent in a single link weight.  This
benchmark times exactly that workload on a 100-node power-law topology —
the family where the incremental advantage scales best, since a single
move touches a shrinking fraction of destinations as the network grows —
and asserts the incremental engine's contract: a speedup over
from-scratch evaluation, with bit-identical results.

The floor is calibrated against the *vectorized* from-scratch path
(`repro.routing.soa`), which compressed this ratio when it landed: the
scalar-era gap was ~4-7x, but the struct-of-arrays kernels sped up full
evaluation by ~5x while the incremental move keeps a per-move floor the
kernels cannot amortize (the restricted Dijkstra call plus the
fixed numpy-dispatch cost of building a small-subset schedule).  Both
paths got faster in absolute terms — the incremental move itself ~3x —
so the lower ratio is a faster engine, not a slower delta path.
"""

from __future__ import annotations

import gc
import os
import random
import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, emit_bench
from repro._reference import RebuildEvaluator
from repro.core.evaluator import DualTopologyEvaluator
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.network.topology_powerlaw import powerlaw_topology
from repro.routing.incremental import WeightDelta
from repro.routing.weights import random_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NUM_NODES = 100
NUM_MOVES = 100
# The engine's contract is >=1.8x over the vectorized full path (measured
# ~2.1-2.7x on the 100-node instance; see the module docstring for why the
# scalar-era ~4-7x ratio compressed); noisy shared CI runners can override
# the floor via REPRO_BENCH_MIN_SPEEDUP.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.8"))
# End-to-end searches hit the LRU caches for most evaluations, so the
# delta path's edge only shows on misses; with the vectorized full path
# the measured short-search gain is ~1.2-1.3x.  Gate above break-even.
MIN_SEARCH_SPEEDUP = min(1.08, MIN_SPEEDUP)


def _workload():
    """The search's actual move distribution: single +-{1,2,4,8} weight steps."""
    from repro.core.search_params import SearchParams

    rng = random.Random(BENCH_SEED)
    net = powerlaw_topology(num_nodes=NUM_NODES, attachment=3, rng=rng)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high_traffic = random_high_priority(low, 0.1, 0.3, rng)
    high, low = scale_to_utilization(net, high_traffic.matrix, low, 0.6)
    base = random_weights(net.num_links, rng)
    steps = SearchParams().weight_steps
    deltas, seen = [], set()
    while len(deltas) < NUM_MOVES:
        link = rng.randrange(net.num_links)
        step = rng.choice(steps) * rng.choice((-1, 1))
        new_w = min(30, max(1, int(base[link]) + step))
        if new_w == base[link] or (link, new_w) in seen:
            continue
        seen.add((link, new_w))
        deltas.append(WeightDelta.single(link, int(base[link]), new_w))
    return net, high, low, base, deltas


def _time_pass(run_move, net, high, low, base, deltas):
    """One timed pass over all moves on a fresh evaluator (caches cold)."""
    cache = 2 * NUM_MOVES + 8  # no evictions: time computation, not caching
    evaluator = DualTopologyEvaluator(net, high, low, cache_size=cache)
    evaluator.evaluate_str(base)
    gc.collect()
    gc.disable()  # GC pauses are noise the speedup ratio must not absorb
    try:
        start = time.perf_counter()
        objectives = [run_move(evaluator, delta) for delta in deltas]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, objectives, evaluator


def test_incremental_speedup_on_single_weight_moves():
    net, high, low, base, deltas = _workload()

    def incremental_move(evaluator, delta):
        return evaluator.evaluate_moves(base, base, [(delta, delta)])[1][0].objective

    def full_move(evaluator, delta):
        return evaluator.evaluate_str(delta.apply(base)).objective

    repeats = 2  # best-of-N damps scheduler noise; work per pass is identical
    incremental_s, full_s = float("inf"), float("inf")
    for _ in range(repeats):
        elapsed, incremental_objectives, evaluator = _time_pass(
            incremental_move, net, high, low, base, deltas
        )
        incremental_s = min(incremental_s, elapsed)
        stats = evaluator.cache_stats()
        assert stats["high_incremental"] == NUM_MOVES
        assert stats["low_incremental"] == NUM_MOVES
        elapsed, full_objectives, _ = _time_pass(
            full_move, net, high, low, base, deltas
        )
        full_s = min(full_s, elapsed)
        assert incremental_objectives == full_objectives

    speedup = full_s / incremental_s
    emit_bench(
        "incremental",
        "single_weight_moves",
        {
            "full_ms_per_eval": full_s / NUM_MOVES * 1e3,
            "incremental_ms_per_eval": incremental_s / NUM_MOVES * 1e3,
            "speedup": speedup,
            "num_nodes": net.num_nodes,
            "num_links": net.num_links,
            "num_moves": NUM_MOVES,
        },
    )
    print()
    print(f"single-weight-delta evaluation, powerlaw ({net.num_nodes} nodes, {net.num_links} links), {NUM_MOVES} moves")
    print(f"  full:        {full_s / NUM_MOVES * 1e3:8.3f} ms/eval")
    print(f"  incremental: {incremental_s / NUM_MOVES * 1e3:8.3f} ms/eval")
    print(f"  speedup:     {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)")
    print()
    assert speedup >= MIN_SPEEDUP, (
        f"incremental evaluation only {speedup:.2f}x faster than full "
        f"(required >= {MIN_SPEEDUP}x)"
    )


def test_incremental_speedup_within_str_search():
    """End-to-end check: a short STR search runs faster with the delta path."""
    from repro.api import Session, optimize
    from repro.core.search_params import SearchParams

    config = ExperimentConfig(topology="powerlaw")
    rng = random.Random(BENCH_SEED)
    net = build_network("powerlaw", BENCH_SEED)
    high, low, _meta = build_traffic(net, config, rng)
    params = SearchParams(
        iterations_high=12, iterations_low=8, iterations_refine=5, neighborhood_size=5
    )
    timings = {}
    results = {}
    for label, evaluator_class in (
        ("incremental", DualTopologyEvaluator), ("full", RebuildEvaluator)
    ):
        evaluator = evaluator_class(net, high, low)
        start = time.perf_counter()
        results[label] = optimize(
            Session.from_evaluator(evaluator), "str", params,
            rng=random.Random(BENCH_SEED),
        )
        timings[label] = time.perf_counter() - start

    assert results["incremental"].objective == results["full"].objective
    np.testing.assert_array_equal(
        results["incremental"].weights, results["full"].weights
    )
    speedup = timings["full"] / timings["incremental"]
    emit_bench(
        "incremental",
        "str_search",
        {
            "full_s": timings["full"],
            "incremental_s": timings["incremental"],
            "speedup": speedup,
            "iterations": params.total_iterations(),
        },
    )
    print()
    print(f"STR search ({params.total_iterations()} iterations): "
          f"full {timings['full']:.2f}s, incremental {timings['incremental']:.2f}s, "
          f"speedup {speedup:.2f}x")
    print()
    assert speedup >= MIN_SEARCH_SPEEDUP, (
        f"STR search speedup {speedup:.2f}x below {MIN_SEARCH_SPEEDUP}x"
    )
