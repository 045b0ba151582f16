"""Tests for the DTR search (paper Algorithm 1)."""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.dtr_search import PHASE_HIGH, PHASE_LOW, PHASE_REFINE
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
    initial = unit_weights(session.network.num_links)
    result = optimize(
        session, "dtr", FAST, rng=random.Random(1),
        initial_high=initial, initial_low=initial,
    )
    assert result.objective <= session.evaluator.evaluate(initial, initial).objective


def test_result_consistency(session):
    result = optimize(session, "dtr", FAST, rng=random.Random(2))
    recomputed = session.evaluator.evaluate(result.high_weights, result.low_weights)
    assert recomputed.objective == result.objective
    assert result.evaluation.objective == result.objective


def test_weights_in_range(session):
    result = optimize(session, "dtr", FAST, rng=random.Random(3))
    for weights in (result.high_weights, result.low_weights):
        assert np.all(weights >= 1)
        assert np.all(weights <= 30)


def test_never_worse_than_str_seed(session):
    """Seeding DTR with the STR optimum guarantees R_H, R_L >= 1."""
    rng = random.Random(4)
    str_result = optimize(session, "str", FAST, rng=rng)
    dtr_result = optimize(
        session,
        "dtr",
        FAST,
        rng=rng,
        initial_high=str_result.weights,
        initial_low=str_result.weights,
    )
    assert dtr_result.objective <= str_result.objective
    assert dtr_result.high_weights.dtype == np.int64


def test_dual_weights_typically_diverge(session):
    """The point of DTR: the two topologies end up different."""
    result = optimize(session, "dtr", FAST, rng=random.Random(5))
    assert not np.array_equal(result.high_weights, result.low_weights)


def test_history_phases_ordered(session):
    result = optimize(session, "dtr", FAST, rng=random.Random(6))
    phase_order = {PHASE_HIGH: 0, PHASE_LOW: 1, PHASE_REFINE: 2}
    phases = [phase_order[point.phase] for point in result.cost_trace]
    assert phases == sorted(phases)


def test_history_objectives_monotone(session):
    result = optimize(session, "dtr", FAST, rng=random.Random(7))
    objectives = [(p.primary, p.secondary) for p in result.cost_trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_deterministic_given_seed(session):
    a = optimize(session, "dtr", FAST, rng=random.Random(42))
    b = optimize(session, "dtr", FAST, rng=random.Random(42))
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.high_weights, b.high_weights)
    np.testing.assert_array_equal(a.low_weights, b.low_weights)


def test_initial_low_defaults_to_initial_high(session):
    initial = unit_weights(session.network.num_links)
    result = optimize(session, "dtr", FAST, rng=random.Random(8), initial_high=initial)
    assert result.objective <= session.evaluator.evaluate(initial, initial).objective


def test_evaluations_counted(session):
    result = optimize(session, "dtr", FAST, rng=random.Random(9))
    assert result.evaluations > FAST.total_iterations()


def test_zero_iteration_budget(session):
    params = SearchParams(
        iterations_high=0, iterations_low=0, iterations_refine=0
    )
    initial = unit_weights(session.network.num_links)
    result = optimize(
        session, "dtr", params, rng=random.Random(10),
        initial_high=initial, initial_low=initial,
    )
    np.testing.assert_array_equal(result.high_weights, initial)
    np.testing.assert_array_equal(result.low_weights, initial)


def test_sla_mode(isp_net, small_traffic):
    high, low = small_traffic
    session = Session.from_evaluator(
        DualTopologyEvaluator(isp_net, high, low, mode="sla")
    )
    rng = random.Random(11)
    str_result = optimize(session, "str", FAST, rng=rng)
    result = optimize(
        session, "dtr", FAST, rng=rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )
    assert result.objective <= str_result.objective


class TestProgressHook:
    def test_heartbeats_cover_all_phases(self, session):
        params = SearchParams(
            iterations_high=10, iterations_low=10, iterations_refine=10,
            diversification_interval=8, progress_interval=5,
        )
        beats = []
        optimize(
            session, "dtr", params, rng=random.Random(6),
            progress=lambda phase, i, total: beats.append((phase, i, total)),
        )
        assert {b[0] for b in beats} == {PHASE_HIGH, PHASE_LOW, PHASE_REFINE}
        assert all(i <= total for _, i, total in beats)

    def test_callback_does_not_change_trajectory(self, session):
        plain = optimize(session, "dtr", FAST, rng=random.Random(7))
        observed = optimize(
            session, "dtr", FAST, rng=random.Random(7), progress=lambda *a: None
        )
        assert plain.objective == observed.objective
        np.testing.assert_array_equal(plain.high_weights, observed.high_weights)
        np.testing.assert_array_equal(plain.low_weights, observed.low_weights)
