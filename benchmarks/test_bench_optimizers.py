"""Optimizer comparison: the paper's local search vs simulated annealing.

Under (approximately) equal evaluation budgets, compares the STR
solutions found by the rank-biased local search (paper Algorithm 1's
building blocks) and by the simulated-annealing baseline, plus the DTR
search on top of each.  Also reports convergence statistics.
"""

import random

from repro.api import Session, optimize
from repro.core.annealing import AnnealingParams
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.core.search_params import SearchParams
from repro.eval.ascii_plot import format_table
from repro.eval.convergence import trace_from_history
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def test_local_search_vs_annealing(benchmark):
    config = ExperimentConfig(topology="isp", seed=BENCH_SEED)
    net = build_network(config.topology, config.seed)
    high, low, _ = build_traffic(net, config, random.Random(BENCH_SEED))
    session = Session.from_evaluator(DualTopologyEvaluator(net, high, low, mode="load"))
    params = SearchParams.scaled(max(BENCH_SCALE, 0.04))

    def run():
        rng = random.Random(BENCH_SEED)
        local = optimize(session, "str", params, rng=rng)
        budget = AnnealingParams(iterations=max(local.evaluations, 100))
        annealed = optimize(
            session, "anneal", params, annealing_params=budget,
            rng=random.Random(BENCH_SEED),
        )
        return local, annealed

    local, annealed = benchmark.pedantic(run, rounds=1, iterations=1)
    history = [(p.iteration, LexCost(p.primary, p.secondary)) for p in local.cost_trace]
    local_trace = trace_from_history(history, params.total_iterations())
    print()
    print(
        format_table(
            ["optimizer", "Phi_H", "Phi_L", "improvements"],
            [
                (
                    "local search",
                    local.evaluation.phi_high,
                    local.evaluation.phi_low,
                    local_trace.improvement_count(),
                ),
                (
                    "annealing",
                    annealed.evaluation.phi_high,
                    annealed.evaluation.phi_low,
                    len(annealed.cost_trace) - 1,
                ),
            ],
        )
    )
    assert local.objective.is_finite()
    assert annealed.objective.is_finite()


def test_dtr_on_top_of_each_seed(benchmark):
    config = ExperimentConfig(topology="isp", seed=BENCH_SEED)
    net = build_network(config.topology, config.seed)
    high, low, _ = build_traffic(net, config, random.Random(BENCH_SEED))
    session = Session.from_evaluator(DualTopologyEvaluator(net, high, low, mode="load"))
    params = SearchParams.scaled(max(BENCH_SCALE, 0.04))

    def run():
        rng = random.Random(BENCH_SEED)
        local = optimize(session, "str", params, rng=rng)
        annealed = optimize(
            session,
            "anneal",
            params,
            annealing_params=AnnealingParams(iterations=max(local.evaluations, 100)),
            rng=random.Random(BENCH_SEED),
        )
        results = {}
        for label, seed_weights in (("local", local.weights), ("annealed", annealed.weights)):
            results[label] = optimize(
                session,
                "dtr",
                params,
                rng=random.Random(BENCH_SEED),
                initial_high=seed_weights,
                initial_low=seed_weights,
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["DTR seeded by", "Phi_H", "Phi_L"],
            [
                (label, r.evaluation.phi_high, r.evaluation.phi_low)
                for label, r in results.items()
            ],
        )
    )
    for result in results.values():
        assert result.objective.is_finite()
