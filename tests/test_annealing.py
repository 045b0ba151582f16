"""Tests for the simulated-annealing baseline."""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.annealing import AnnealingParams, _acceptance_probability
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.routing.weights import unit_weights

FAST = AnnealingParams(iterations=200, initial_temperature=0.3, cooling=0.99)


@pytest.fixture
def evaluator(isp_net, small_traffic):
    high, low = small_traffic
    return DualTopologyEvaluator(isp_net, high, low, mode="load")


@pytest.fixture
def session(evaluator):
    return Session.from_evaluator(evaluator)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingParams(iterations=0)
        with pytest.raises(ValueError):
            AnnealingParams(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingParams(cooling=1.0)
        with pytest.raises(ValueError):
            AnnealingParams(moves_per_proposal=0)


class TestAcceptance:
    def test_improvement_always_accepted(self):
        assert _acceptance_probability(LexCost(2.0, 5.0), LexCost(1.0, 9.0), 0.01) == 1.0
        assert _acceptance_probability(LexCost(2.0, 5.0), LexCost(2.0, 4.0), 0.01) == 1.0

    def test_primary_degradation_always_rejected(self):
        """The lexicographic Metropolis rule protects the high class."""
        assert _acceptance_probability(LexCost(2.0, 5.0), LexCost(3.0, 0.0), 1e9) == 0.0

    def test_secondary_degradation_probabilistic(self):
        p = _acceptance_probability(LexCost(2.0, 100.0), LexCost(2.0, 110.0), 0.2)
        assert 0.0 < p < 1.0

    def test_colder_means_pickier(self):
        current, candidate = LexCost(2.0, 100.0), LexCost(2.0, 130.0)
        hot = _acceptance_probability(current, candidate, 1.0)
        cold = _acceptance_probability(current, candidate, 0.01)
        assert cold < hot


class TestAnnealStr:
    def test_improves_over_initial(self, session):
        initial = unit_weights(session.network.num_links)
        result = optimize(
            session, "anneal", annealing_params=FAST, rng=random.Random(1),
            initial_weights=initial,
        )
        assert result.objective <= session.evaluator.evaluate_str(initial).objective

    def test_result_consistency(self, session):
        result = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(2))
        assert session.evaluator.evaluate_str(result.weights).objective == result.objective
        assert result.evaluation.objective == result.objective

    def test_counters(self, session):
        result = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(3))
        assert (
            result.metadata["accepted"] + result.metadata["rejected"] == FAST.iterations
        )

    def test_history_monotone(self, session):
        result = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(4))
        objectives = [(p.primary, p.secondary) for p in result.cost_trace]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_weights_in_range(self, session):
        result = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(5))
        assert np.all(result.weights >= 1)
        assert np.all(result.weights <= 30)

    def test_deterministic(self, session):
        a = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(42))
        b = optimize(session, "anneal", annealing_params=FAST, rng=random.Random(42))
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_primary_never_degraded_vs_initial(self, session):
        """Accepted states can only match or improve the primary cost."""
        initial = unit_weights(session.network.num_links)
        start = session.evaluator.evaluate_str(initial)
        result = optimize(
            session, "anneal", annealing_params=FAST, rng=random.Random(6),
            initial_weights=initial,
        )
        assert result.evaluation.phi_high <= start.phi_high + 1e-9
