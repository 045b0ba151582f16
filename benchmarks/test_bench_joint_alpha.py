"""Joint-cost alpha sweep: how often J = alpha*Phi_H + Phi_L inverts priority.

Quantifies Section 3.3.1 at network scale: for each alpha, optimize the
joint cost on the ISP backbone and compare the achieved Phi_H against the
lexicographic STR reference.  Small alphas buy low-priority improvements
by degrading the high-priority class; very large alphas replicate the
lexicographic solution.
"""

import random

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.joint_search import alpha_sweep
from repro.core.search_params import SearchParams
from repro.eval.ascii_plot import format_table
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

ALPHAS = (0.0, 0.5, 2.0, 10.0, 100.0, 10_000.0)


def test_alpha_sweep(benchmark):
    config = ExperimentConfig(topology="isp", seed=BENCH_SEED)
    net = build_network(config.topology, config.seed)
    high, low, _ = build_traffic(net, config, random.Random(BENCH_SEED))
    evaluator = DualTopologyEvaluator(net, high, low, mode="load")
    params = SearchParams.scaled(max(BENCH_SCALE, 0.04))
    str_result = optimize(
        Session.from_evaluator(evaluator), "str", params, rng=random.Random(BENCH_SEED)
    )

    def run():
        return alpha_sweep(
            evaluator,
            ALPHAS,
            reference_phi_high=str_result.evaluation.phi_high,
            params=params,
            seed=BENCH_SEED,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        f"lexicographic reference: Phi_H={str_result.evaluation.phi_high:.1f} "
        f"Phi_L={str_result.evaluation.phi_low:.3e}"
    )
    print(
        format_table(
            ["alpha", "Phi_H", "Phi_L", "inversion"],
            [(p.alpha, p.phi_high, p.phi_low, p.priority_inversion) for p in points],
        )
    )
    inversions = [p.priority_inversion for p in points]
    print(f"inversions at alphas: {[a for a, i in zip(ALPHAS, inversions) if i]}")
    assert len(points) == len(ALPHAS)
