"""Tests for the STR baseline search."""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.routing.weights import unit_weights

FAST = SearchParams(
    iterations_high=15, iterations_low=15, iterations_refine=20, diversification_interval=8
)


@pytest.fixture
def evaluator(isp_net, small_traffic):
    high, low = small_traffic
    return DualTopologyEvaluator(isp_net, high, low, mode="load")


@pytest.fixture
def session(evaluator):
    return Session.from_evaluator(evaluator)


def test_improves_over_initial(session):
    rng = random.Random(1)
    initial = unit_weights(session.network.num_links)
    result = optimize(session, "str", FAST, rng=rng, initial_weights=initial)
    assert result.objective <= session.evaluator.evaluate_str(initial).objective


def test_result_consistency(session):
    result = optimize(session, "str", FAST, rng=random.Random(2))
    assert result.evaluation.objective == result.objective
    recomputed = session.evaluator.evaluate_str(result.weights)
    assert recomputed.objective == result.objective


def test_weights_in_range(session):
    result = optimize(session, "str", FAST, rng=random.Random(3))
    assert np.all(result.weights >= 1)
    assert np.all(result.weights <= 30)


def test_history_monotone(session):
    result = optimize(session, "str", FAST, rng=random.Random(4))
    objectives = [(p.primary, p.secondary) for p in result.cost_trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] == result.objective.values


def test_iterations_and_evaluations_counted(session):
    result = optimize(session, "str", FAST, rng=random.Random(5))
    assert result.metadata["iterations"] == FAST.total_iterations()
    assert result.evaluations > 0


def test_deterministic_given_seed(session):
    a = optimize(session, "str", FAST, rng=random.Random(42))
    b = optimize(session, "str", FAST, rng=random.Random(42))
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.weights, b.weights)


def test_relaxed_solutions_tracked(session):
    result = optimize(
        session, "str", FAST, rng=random.Random(6), relaxation_epsilons=(0.05, 0.30)
    )
    assert set(result.relaxed) == {0.05, 0.30}
    strict_primary = result.objective.primary
    for eps, solution in result.relaxed.items():
        assert solution.epsilon == eps
        assert solution.phi_low <= result.evaluation.phi_low + 1e-9


def test_relaxed_low_cost_improves_with_epsilon(session):
    """A larger epsilon admits more solutions, so Phi_L can only improve."""
    result = optimize(
        session, "str", FAST, rng=random.Random(7), relaxation_epsilons=(0.05, 0.30)
    )
    assert result.relaxed[0.30].phi_low <= result.relaxed[0.05].phi_low + 1e-9


def test_negative_epsilon_rejected(session):
    with pytest.raises(ValueError, match="non-negative"):
        optimize(
            session, "str", FAST, rng=random.Random(8), relaxation_epsilons=(-0.1,)
        )


def test_sla_mode(isp_net, small_traffic):
    high, low = small_traffic
    evaluator = DualTopologyEvaluator(isp_net, high, low, mode="sla")
    result = optimize(
        Session.from_evaluator(evaluator), "str", FAST, rng=random.Random(9)
    )
    assert result.objective.primary >= 0
    assert result.evaluation.violations >= 0


class TestProgressHook:
    def test_heartbeats_observed(self, session):
        params = SearchParams(
            iterations_high=10, iterations_low=10, iterations_refine=10,
            diversification_interval=8, progress_interval=7,
        )
        beats = []
        optimize(
            session, "str", params, rng=random.Random(4),
            progress=lambda phase, i, total: beats.append((phase, i, total)),
        )
        total = params.total_iterations()
        assert beats == [("str", 7, total), ("str", 14, total), ("str", 21, total),
                         ("str", 28, total), ("str", 30, total)]

    def test_callback_does_not_change_trajectory(self, session):
        plain = optimize(session, "str", FAST, rng=random.Random(5))
        observed = optimize(
            session, "str", FAST, rng=random.Random(5), progress=lambda *a: None
        )
        assert plain.objective == observed.objective
        np.testing.assert_array_equal(plain.weights, observed.weights)
