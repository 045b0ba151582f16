"""Ablations of the DTR search design choices (paper Sections 4 and 5.1.3).

Covers the knobs DESIGN.md calls out: the rank-bias exponent tau, the
neighborhood size m, and diversification.  Each ablation runs the DTR
search with one knob changed under the same budget and reports the final
lexicographic objective, plus a check of the paper's Eq. 3 approximation
``H/(C-H) ~ Phi_H/C``.
"""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.costs.fortz import fortz_cost
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def _session() -> Session:
    config = ExperimentConfig(topology="isp", seed=BENCH_SEED)
    net = build_network(config.topology, config.seed)
    high, low, _ = build_traffic(net, config, random.Random(BENCH_SEED))
    return Session.from_evaluator(DualTopologyEvaluator(net, high, low, mode="load"))


def _params(**overrides) -> SearchParams:
    import dataclasses

    base = SearchParams.scaled(max(BENCH_SCALE, 0.04))
    return dataclasses.replace(base, **overrides)


@pytest.mark.parametrize("tau", [0.0, 1.5, 6.0])
def test_ablation_tau(benchmark, tau):
    """tau=1.5 balances exploring all links vs focusing on extremes."""
    session = _session()

    def run():
        return optimize(session, "dtr", _params(tau=tau), rng=random.Random(BENCH_SEED))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ntau={tau}: objective={result.objective}")
    assert result.objective.is_finite()


@pytest.mark.parametrize("m", [1, 5, 10])
def test_ablation_neighborhood_size(benchmark, m):
    """m=5 neighbors per iteration is the paper's setting."""
    session = _session()

    def run():
        return optimize(
            session, "dtr", _params(neighborhood_size=m), rng=random.Random(BENCH_SEED)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nm={m}: objective={result.objective} evaluations={result.evaluations}")
    assert result.objective.is_finite()


@pytest.mark.parametrize("interval", [5, 50, 10_000])
def test_ablation_diversification(benchmark, interval):
    """interval=10000 effectively disables diversification."""
    session = _session()

    def run():
        return optimize(
            session,
            "dtr",
            _params(diversification_interval=interval),
            rng=random.Random(BENCH_SEED),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nM={interval}: objective={result.objective}")
    assert result.objective.is_finite()


def test_eq3_approximation_error(benchmark):
    """Quantify the paper's Phi_H/C ~ H/(C-H) substitution in Eq. 3 [18]."""

    def run():
        capacity = 500.0
        rows = []
        for utilization in np.arange(0.05, 0.96, 0.05):
            load = utilization * capacity
            exact = load / (capacity - load)
            approx = fortz_cost(load, capacity) / capacity
            rows.append((utilization, exact, approx))
        return rows

    rows = benchmark(run)
    print("\nutil   H/(C-H)   Phi/C")
    for utilization, exact, approx in rows:
        print(f"{utilization:4.2f}  {exact:8.3f}  {approx:8.3f}")
    mid = [abs(a - e) / e for u, e, a in rows if 0.3 <= u <= 0.9]
    assert max(mid) < 1.5
