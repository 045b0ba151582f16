"""Traffic-drift robustness of optimized weight settings.

Extension experiment: weights tuned at one load level keep being used as
traffic drifts ±20 % (re-optimizing on every shift is exactly the DTR
overhead the paper cautions about).  Reports how the class costs of the
fixed STR and DTR settings evolve across the drift sweep.
"""

import random

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.eval.ascii_plot import format_table
from repro.eval.drift import drift_sweep_session
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

SCALES = (0.8, 0.9, 1.0, 1.1, 1.2)


def test_traffic_drift(benchmark):
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
        return drift_sweep_session(fixed, SCALES)

    def run():
        return sweep(str_result), sweep(dtr_result)

    str_report, dtr_report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    rows = []
    for s, d in zip(str_report.points, dtr_report.points):
        ratio = s.phi_low / max(d.phi_low, 1e-9)
        rows.append((s.scale, s.phi_low, d.phi_low, ratio))
    print(format_table(["traffic scale", "STR Phi_L", "DTR Phi_L", "R_L"], rows))
    at_nominal = dtr_report.point_at(1.0)
    assert at_nominal.phi_low <= str_report.point_at(1.0).phi_low + 1e-9
    assert at_nominal.phi_high <= str_report.point_at(1.0).phi_high + 1e-9
    print(
        f"Phi_L growth across the sweep: STR {str_report.low_cost_growth():.1f}x, "
        f"DTR {dtr_report.low_cost_growth():.1f}x"
    )
