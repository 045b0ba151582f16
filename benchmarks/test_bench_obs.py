"""Microbenchmark: telemetry overhead on the instrumented evaluator.

The observability tentpole's perf contract: with metrics globally
enabled (the default), the instrumented evaluator hot path — counters,
layer-latency histograms, the span check — costs at most a few percent
over ``obs.set_enabled(False)``, whose mutations reduce to one attribute
check.  This benchmark times from-scratch evaluations with telemetry on
and off, asserts the evaluations themselves are bit-identical, and gates
the overhead ratio.
"""

from __future__ import annotations

import gc
import os
import random
import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, emit_bench
from repro import obs
from repro.core.evaluator import DualTopologyEvaluator
from repro.network.topology_powerlaw import powerlaw_topology
from repro.routing.weights import random_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NUM_NODES = 200
NUM_EVALS = 10
# Contract: <=5% evaluator overhead with instruments enabled.  Shared CI
# runners can loosen the gate the same way the speedup floors are.
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "0.05"))


def _workload():
    rng = random.Random(BENCH_SEED)
    net = powerlaw_topology(num_nodes=NUM_NODES, attachment=3, rng=rng)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high_traffic = random_high_priority(low, 0.1, 0.3, rng)
    high, low = scale_to_utilization(net, high_traffic.matrix, low, 0.6)
    settings = [random_weights(net.num_links, rng) for _ in range(NUM_EVALS)]
    return net, high, low, settings


def _time_pass(net, high, low, settings, telemetry_on):
    """One timed pass of from-scratch evaluations (caches never hit)."""
    obs.set_enabled(telemetry_on)
    evaluator = DualTopologyEvaluator(net, high, low)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        evaluations = [evaluator.evaluate_str(w) for w in settings]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
        obs.set_enabled(True)
    return elapsed, evaluations


def test_enabled_telemetry_overhead_within_budget():
    net, high, low, settings = _workload()
    # Alternating best-of passes, repeated until the ratio of running
    # minima stabilizes (same discipline as the vector-core bench): load
    # epochs on a shared runner hit both sides of a pair, and converged
    # minima estimate the unloaded times the overhead gate is about.
    # The side measured first swaps every rep so a cold first pass
    # (page cache, allocator state after a long suite) cannot
    # systematically penalize one side, and a stable ratio only ends
    # the loop once it is inside the budget — while it is failing, the
    # running minima get every remaining rep to shake the noise out.
    on_s, off_s = float("inf"), float("inf")
    overhead = float("inf")
    try:
        for rep in range(9):
            if rep % 2 == 0:
                elapsed, on_evals = _time_pass(net, high, low, settings, True)
                on_s = min(on_s, elapsed)
                elapsed, off_evals = _time_pass(net, high, low, settings, False)
                off_s = min(off_s, elapsed)
            else:
                elapsed, off_evals = _time_pass(net, high, low, settings, False)
                off_s = min(off_s, elapsed)
                elapsed, on_evals = _time_pass(net, high, low, settings, True)
                on_s = min(on_s, elapsed)
            for lit, dark in zip(on_evals, off_evals):
                assert lit.objective == dark.objective
                np.testing.assert_array_equal(lit.high_loads, dark.high_loads)
                np.testing.assert_array_equal(lit.low_loads, dark.low_loads)
            ratio = on_s / off_s
            converged = rep >= 2 and abs(ratio - overhead) <= 0.005
            overhead = ratio
            if converged and overhead <= 1.0 + MAX_OVERHEAD:
                break
    finally:
        obs.set_enabled(True)
    emit_bench(
        "obs",
        "evaluator_overhead",
        {
            "enabled_ms_per_eval": on_s / NUM_EVALS * 1e3,
            "disabled_ms_per_eval": off_s / NUM_EVALS * 1e3,
            "overhead_ratio": overhead,
            "num_nodes": net.num_nodes,
            "num_evals": NUM_EVALS,
        },
    )
    print()
    print(
        f"instrumented evaluation, powerlaw ({net.num_nodes} nodes), "
        f"{NUM_EVALS} weight settings"
    )
    print(f"  telemetry on:  {on_s / NUM_EVALS * 1e3:8.3f} ms/eval")
    print(f"  telemetry off: {off_s / NUM_EVALS * 1e3:8.3f} ms/eval")
    print(f"  overhead:      {(overhead - 1) * 100:8.2f}% (budget <= {MAX_OVERHEAD:.0%})")
    print()
    assert overhead <= 1.0 + MAX_OVERHEAD, (
        f"telemetry overhead {(overhead - 1) * 100:.2f}% exceeds the "
        f"{MAX_OVERHEAD:.0%} budget"
    )


def test_traced_evaluation_stays_bit_identical(tmp_path):
    """Spans on (tracer installed): results unchanged, trace non-empty."""
    net, high, low, settings = _workload()
    subset = settings[:3]
    _elapsed, dark = _time_pass(net, high, low, subset, False)
    obs.enable_tracing(tmp_path / "bench-spans.jsonl")
    try:
        traced_s, lit = _time_pass(net, high, low, subset, True)
    finally:
        obs.disable_tracing()
    for a, b in zip(lit, dark):
        assert a.objective == b.objective
    assert (tmp_path / "bench-spans.jsonl").read_text().strip()
    emit_bench(
        "obs",
        "traced_eval",
        {"traced_ms_per_eval": traced_s / len(subset) * 1e3},
    )
