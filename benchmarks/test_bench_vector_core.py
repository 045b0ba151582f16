"""Microbenchmark: struct-of-arrays numeric core vs the scalar loop.

Full evaluations dominate everything the incremental path cannot reuse:
cold-cache searches, sweep baselines, and every derived layer's rebuilt
cross-check.  This benchmark times from-scratch evaluations of distinct
weight settings on a 200-node power-law topology with the vectorized
kernels and with the scalar loop of :mod:`repro._reference`, asserts the
results are bit-identical, and gates the tentpole contract: at least a
5x evaluator speedup.

Both paths share the scipy Dijkstra solve (the vectorized path cannot
speed up what is already C), so the evaluator-level speedup is an
Amdahl-bounded view of the kernels themselves — the kernel-level section
below isolates the accumulation where the ratio is far higher.
"""

from __future__ import annotations

import gc
import os
import random
import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, emit_bench
from repro._reference import ScalarEvaluator, ScalarRouting
from repro.core.evaluator import SLA_MODE, DualTopologyEvaluator
from repro.network.topology_powerlaw import powerlaw_topology
from repro.routing.state import Routing
from repro.routing.weights import random_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NUM_NODES = 200
NUM_EVALS = 10
# The contract is >=5x (measured above that on the 200-node instance);
# noisy shared CI runners can override the floor.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


def _workload(num_nodes=None, num_evals=None):
    num_nodes = NUM_NODES if num_nodes is None else num_nodes
    num_evals = NUM_EVALS if num_evals is None else num_evals
    rng = random.Random(BENCH_SEED)
    net = powerlaw_topology(num_nodes=num_nodes, attachment=3, rng=rng)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high_traffic = random_high_priority(low, 0.1, 0.3, rng)
    high, low = scale_to_utilization(net, high_traffic.matrix, low, 0.6)
    settings = [random_weights(net.num_links, rng) for _ in range(num_evals)]
    return net, high, low, settings


def _time_pass(net, high, low, settings, vectorized, mode="load"):
    """One timed pass of from-scratch evaluations (caches never hit)."""
    evaluator_class = DualTopologyEvaluator if vectorized else ScalarEvaluator
    evaluator = evaluator_class(net, high, low, mode=mode, incremental=False)
    gc.collect()
    gc.disable()  # GC pauses are noise the speedup ratio must not absorb
    try:
        start = time.perf_counter()
        evaluations = [evaluator.evaluate_str(w) for w in settings]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, evaluations


def test_vectorized_full_evaluation_speedup():
    net, high, low, settings = _workload()
    # Alternating best-of passes, repeated until the ratio of running
    # minima stabilizes: load epochs on a shared runner hit both paths
    # of a pair, and the converged minima estimate the unloaded times
    # the >=5x contract is about (a fixed repeat count would bake one
    # noisy pass into the ratio).
    vector_s, scalar_s = float("inf"), float("inf")
    speedup = 0.0
    for rep in range(7):
        elapsed, vector_evals = _time_pass(net, high, low, settings, True)
        vector_s = min(vector_s, elapsed)
        elapsed, scalar_evals = _time_pass(net, high, low, settings, False)
        scalar_s = min(scalar_s, elapsed)
        for vec, ref in zip(vector_evals, scalar_evals):
            assert vec.objective == ref.objective
            np.testing.assert_array_equal(vec.high_loads, ref.high_loads)
            np.testing.assert_array_equal(vec.low_loads, ref.low_loads)
        converged = rep >= 2 and abs(scalar_s / vector_s - speedup) <= 0.02 * speedup
        speedup = scalar_s / vector_s
        if converged:
            break
    emit_bench(
        "vector_core",
        "full_eval",
        {
            "scalar_ms_per_eval": scalar_s / NUM_EVALS * 1e3,
            "vectorized_ms_per_eval": vector_s / NUM_EVALS * 1e3,
            "speedup": speedup,
            "num_nodes": net.num_nodes,
            "num_links": net.num_links,
            "num_evals": NUM_EVALS,
        },
    )
    print()
    print(
        f"from-scratch evaluation, powerlaw ({net.num_nodes} nodes, "
        f"{net.num_links} links), {NUM_EVALS} weight settings"
    )
    print(f"  scalar:     {scalar_s / NUM_EVALS * 1e3:8.3f} ms/eval")
    print(f"  vectorized: {vector_s / NUM_EVALS * 1e3:8.3f} ms/eval")
    print(f"  speedup:    {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)")
    print()
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized evaluation only {speedup:.2f}x faster than scalar "
        f"(required >= {MIN_SPEEDUP}x)"
    )


def test_vectorized_destination_rows_kernel_speedup():
    """Kernel-level view: all-destination load rows in one batched pass."""
    net, high, low, _settings = _workload()
    rng = random.Random(BENCH_SEED + 1)
    weights = random_weights(net.num_links, rng)
    demands = high.demands + low.demands
    active = np.flatnonzero(demands.sum(axis=0) > 0)
    inj = demands[:, active].T
    timings = {}
    rows = {}
    for label, vectorized in (("vectorized", True), ("scalar", False)):
        best = float("inf")
        for _ in range(3):
            routing = (Routing if vectorized else ScalarRouting)(net, weights)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                rows[label] = routing.destination_rows(active, inj)
                best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
        timings[label] = best
    np.testing.assert_array_equal(rows["vectorized"], rows["scalar"])
    speedup = timings["scalar"] / timings["vectorized"]
    emit_bench(
        "vector_core",
        "destination_rows",
        {
            "scalar_ms": timings["scalar"] * 1e3,
            "vectorized_ms": timings["vectorized"] * 1e3,
            "speedup": speedup,
            "num_destinations": int(active.size),
        },
    )
    print()
    print(
        f"destination_rows kernel ({active.size} destinations): "
        f"scalar {timings['scalar'] * 1e3:.2f} ms, "
        f"vectorized {timings['vectorized'] * 1e3:.2f} ms, "
        f"speedup {speedup:.2f}x"
    )
    print()
    assert speedup >= MIN_SPEEDUP


def test_vectorized_sla_evaluation_matches_and_speeds_up():
    """SLA mode rides the batched pair-fraction kernel; results identical."""
    net, high, low, settings = _workload()
    subset = settings[: max(4, NUM_EVALS // 4)]
    vec_s, vec_evals = _time_pass(net, high, low, subset, True, mode=SLA_MODE)
    ref_s, ref_evals = _time_pass(net, high, low, subset, False, mode=SLA_MODE)
    for vec, ref in zip(vec_evals, ref_evals):
        assert vec.objective == ref.objective
        assert vec.penalty == ref.penalty
        assert vec.pair_delays_ms == ref.pair_delays_ms
    speedup = ref_s / vec_s
    emit_bench(
        "vector_core",
        "sla_eval",
        {
            "scalar_ms_per_eval": ref_s / len(subset) * 1e3,
            "vectorized_ms_per_eval": vec_s / len(subset) * 1e3,
            "speedup": speedup,
            "num_evals": len(subset),
        },
    )
    print()
    print(
        f"SLA-mode evaluation ({len(subset)} settings): "
        f"scalar {ref_s / len(subset) * 1e3:.2f} ms/eval, "
        f"vectorized {vec_s / len(subset) * 1e3:.2f} ms/eval, "
        f"speedup {speedup:.2f}x"
    )
    print()
    # SLA evaluation shares the load-mode kernels plus the pair-fraction
    # batching; anything at or above break-even here is a regression
    # guard, the hard >=5x gate lives on the load-mode sections.
    assert speedup >= 1.0