"""Benchmark: dominance-pruned streamed space sweep vs naive enumeration.

The scenario-space contract (ISSUE 6 acceptance): streaming the
all-2-adjacency-failure space of a 50-node stub-heavy network through
:func:`~repro.scenarios.sweep_scenario_space` must cover **>= 5x** the
effective scenarios/sec of naive unpruned enumeration (every scenario
evaluated from scratch, no dominance pruning, no engine reuse), and its
peak memory must be independent of the space size — the sweep keeps the
streaming aggregate and the pruner's antichain, never the space.

The topology mirrors a real access/aggregation edge: a random core plus
many single-homed stub routers.  Every stub adjacency is a bridge, so
most 2-failure combinations provably disconnect demand and the pruner
skips them from reachability probes alone; the evaluated remainder rides
the batched engine's derived routings.  Both levers are load-bearing:
engine reuse alone is ~1.3x here (2-link failures touch most
destinations), so the required margin comes from pruning.
"""

from __future__ import annotations

import gc
import os
import random
import time
import tracemalloc

from benchmarks.conftest import BENCH_SEED, emit_bench
from repro._reference import NaiveSweepEngine
from repro.network.graph import Network
from repro.network.topology_random import random_topology
from repro.routing.weights import random_weights
from repro.scenarios import AllLinkFailures, SweepEngine, sweep_scenario_space
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NUM_CORE = 15
NUM_CORE_DIRECTED_LINKS = 40
NUM_STUBS = 35
NAIVE_SAMPLE = 32
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
MAX_PEAK_RATIO = 4.0
MAX_PEAK_BYTES = 32 << 20


def _workload():
    """50-node stub-heavy network: random core + single-homed stubs."""
    rng = random.Random(BENCH_SEED)
    core = random_topology(
        num_nodes=NUM_CORE, num_directed_links=NUM_CORE_DIRECTED_LINKS, rng=rng
    )
    net = Network(NUM_CORE + NUM_STUBS, name="bench-edge")
    for u, v in core.duplex_pairs():
        net.add_duplex_link(u, v)
    for i in range(NUM_STUBS):
        net.add_duplex_link(NUM_CORE + i, rng.randrange(NUM_CORE))
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high_traffic = random_high_priority(low, 0.1, 0.3, rng)
    high, low = scale_to_utilization(net, high_traffic.matrix, low, 0.6)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    return net, high, low, wh, wl


def test_space_sweep_effective_throughput():
    net, high, low, wh, wl = _workload()
    space = AllLinkFailures(k=2)
    num_scenarios = space.size(net)

    engine = SweepEngine(net, wh, wl, high, low)
    engine.baseline  # build cost outside the timed region
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = sweep_scenario_space(engine, space, prune=True)
        streamed_s = time.perf_counter() - start
    finally:
        gc.enable()

    # Naive baseline: unpruned enumeration, every scenario rebuilt from
    # scratch (NaiveSweepEngine disables all derivation/reuse).  Evaluating
    # all ~1500 scenarios that way takes minutes, so time a random
    # sample and extrapolate — per-scenario cost is flat by construction.
    naive = NaiveSweepEngine(net, wh, wl, high, low)
    naive.baseline
    sample = random.Random(BENCH_SEED + 1).sample(
        list(space.scenarios(net)), NAIVE_SAMPLE
    )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for scenario in sample:
            naive.evaluate_streaming(scenario)
        naive_per_s = (time.perf_counter() - start) / len(sample)
    finally:
        gc.enable()

    assert result.scenarios == num_scenarios
    assert result.evaluated + result.pruned == result.scenarios
    assert result.pruned > 0

    effective_per_s = num_scenarios / streamed_s
    naive_rate = 1.0 / naive_per_s
    speedup = effective_per_s / naive_rate
    emit_bench(
        "spaces",
        "space_sweep",
        {
            "num_nodes": net.num_nodes,
            "num_links": net.num_links,
            "scenarios": result.scenarios,
            "evaluated": result.evaluated,
            "pruned": result.pruned,
            "disconnected": result.disconnected,
            "streamed_s": streamed_s,
            "effective_per_s": effective_per_s,
            "naive_ms_per_scenario": naive_per_s * 1e3,
            "speedup": speedup,
        },
    )
    print()
    print(
        f"all-link-2 space sweep, stub-heavy edge ({net.num_nodes} nodes, "
        f"{net.num_links} links): {result.scenarios} scenarios, "
        f"{result.evaluated} evaluated, {result.pruned} pruned"
    )
    print(f"  streamed+pruned: {streamed_s:8.2f} s "
          f"({effective_per_s:7.1f} effective scenarios/s)")
    print(f"  naive rebuild:   {naive_per_s * 1e3:8.3f} ms/scenario "
          f"({naive_rate:7.1f} scenarios/s)")
    print(f"  speedup:         {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)")
    print()
    assert speedup >= MIN_SPEEDUP, (
        f"pruned streamed sweep only {speedup:.2f}x the effective rate of "
        f"naive unpruned enumeration (required >= {MIN_SPEEDUP}x)"
    )


def test_space_sweep_memory_independent_of_space_size():
    """Peak allocation is per-scenario transients, not the space.

    ``all-link-2`` enumerates 27x the scenarios of ``all-link-1`` on
    this network; if the sweep retained outcomes, routings, or the
    scenario list, its peak would scale with that factor.  It keeps only
    the streaming aggregate and the pruner's antichain, so the peaks of
    the two sweeps must be within a small constant of each other — and
    both far below the materialized footprint.
    """
    net, high, low, wh, wl = _workload()

    def peak_of(space):
        engine = SweepEngine(net, wh, wl, high, low)
        engine.baseline
        gc.collect()
        tracemalloc.start()
        result = sweep_scenario_space(engine, space, prune=True)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, result

    small_peak, small = peak_of(AllLinkFailures(k=1))
    large_peak, large = peak_of(AllLinkFailures(k=2))
    space_ratio = large.scenarios / small.scenarios
    peak_ratio = large_peak / small_peak
    emit_bench(
        "spaces",
        "memory",
        {
            "small_scenarios": small.scenarios,
            "large_scenarios": large.scenarios,
            "small_peak_kib": small_peak / 1024,
            "large_peak_kib": large_peak / 1024,
            "space_ratio": space_ratio,
            "peak_ratio": peak_ratio,
        },
    )
    print()
    print(
        f"peak traced memory: all-link-1 ({small.scenarios} scenarios) "
        f"{small_peak / 1024:.0f} KiB, all-link-2 ({large.scenarios} "
        f"scenarios) {large_peak / 1024:.0f} KiB"
    )
    print(f"  space grew {space_ratio:.1f}x, peak grew {peak_ratio:.2f}x "
          f"(allowed <= {MAX_PEAK_RATIO}x)")
    print()
    assert peak_ratio <= MAX_PEAK_RATIO, (
        f"peak memory grew {peak_ratio:.2f}x across a {space_ratio:.1f}x "
        f"larger space (allowed <= {MAX_PEAK_RATIO}x)"
    )
    assert large_peak <= MAX_PEAK_BYTES
