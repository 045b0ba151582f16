"""Failure-robustness sweep: STR vs DTR weight settings under link failures.

Extension experiment (motivated by the related work [5, 7-9]): optimize
STR and DTR on the intact ISP backbone, then evaluate both weight
settings — unchanged, as OSPF would — under every single-adjacency
failure.  Reported: baseline, mean, and worst-case class costs.
"""

import random

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.eval.robustness import failure_sweep_session
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def test_failure_robustness(benchmark):
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

    def sweep(result):
        fixed = Session(net, high, low, cost_model="load")
        fixed.set_weights(result.high_weights, result.low_weights)
        return failure_sweep_session(fixed)

    def sweep_both():
        return sweep(str_result), sweep(dtr_result)

    str_report, dtr_report = benchmark.pedantic(sweep_both, rounds=1, iterations=1)
    print()
    print("single-adjacency failure sweep (ISP backbone, 35 scenarios)")
    print(f"{'':14} {'baseline PhiL':>14} {'mean PhiL':>12} {'worst PhiL':>12} {'worst/base':>10}")
    for name, report in (("STR", str_report), ("DTR", dtr_report)):
        print(
            f"{name:14} {report.baseline.phi_low:14.3e} {report.mean_phi_low:12.3e} "
            f"{report.worst_phi_low:12.3e} {report.degradation_factor():10.2f}"
        )
    assert len(str_report.outcomes) == 35
    assert dtr_report.baseline.phi_low <= str_report.baseline.phi_low + 1e-9
