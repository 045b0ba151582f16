"""How many topologies do you need? STR vs DTR vs k-slice MTR.

Extension of the paper's Section 2 discussion of Balon & Leduc [6]:
keeping the high-priority topology fixed, the low-priority matrix is
split into k slices each with its own topology.  DTR is the k = 1 point;
more slices buy further low-priority improvements at k times the
configuration state.
"""

import random

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.core.slicing import optimize_sliced_low
from repro.eval.ascii_plot import format_table
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

SLICE_COUNTS = (1, 2, 4)


def test_topology_count_ablation(benchmark):
    config = ExperimentConfig(topology="isp", seed=BENCH_SEED)
    net = build_network(config.topology, config.seed)
    high, low, _ = build_traffic(net, config, random.Random(BENCH_SEED))
    evaluator = DualTopologyEvaluator(net, high, low, mode="load")
    params = SearchParams.scaled(max(BENCH_SCALE, 0.04))
    rng = random.Random(BENCH_SEED)
    session = Session.from_evaluator(evaluator)
    str_result = optimize(session, "str", params, rng=rng)
    dtr_result = optimize(
        session, "dtr", params, rng=rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )

    def run():
        rows = [("STR (1 topo)", str_result.evaluation.phi_low)]
        rows.append(("DTR (2 topo)", dtr_result.evaluation.phi_low))
        for k in SLICE_COUNTS:
            sliced = optimize_sliced_low(
                evaluator,
                dtr_result.high_weights,
                num_slices=k,
                params=params,
                rng=random.Random(BENCH_SEED),
            )
            rows.append((f"{k}-slice low ({k + 1} topo)", sliced.objective.secondary))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["scheme", "Phi_L"], rows))
    phi_lows = dict(rows)
    assert phi_lows["DTR (2 topo)"] <= phi_lows["STR (1 topo)"] + 1e-9
