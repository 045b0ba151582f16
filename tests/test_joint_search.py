"""Tests for the joint-cost STR search (paper Section 3.3.1 at scale)."""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.joint_search import alpha_sweep
from repro.core.search_params import SearchParams
from repro.determinism import default_rng
from repro.routing.weights import unit_weights

FAST = SearchParams(
    iterations_high=12, iterations_low=12, iterations_refine=16, diversification_interval=8
)


@pytest.fixture
def evaluator(isp_net, small_traffic):
    high, low = small_traffic
    return DualTopologyEvaluator(isp_net, high, low, mode="load")


@pytest.fixture
def session(evaluator):
    return Session.from_evaluator(evaluator)


def test_requires_load_mode(isp_net, small_traffic):
    high, low = small_traffic
    sla_eval = DualTopologyEvaluator(isp_net, high, low, mode="sla")
    with pytest.raises(ValueError, match="load-mode"):
        optimize(
            Session.from_evaluator(sla_eval), "joint",
            alpha=10.0, rng=default_rng("core/joint_search"),
        )


def test_negative_alpha_rejected(session):
    with pytest.raises(ValueError, match="non-negative"):
        optimize(session, "joint", alpha=-1.0, rng=default_rng("core/joint_search"))


def test_improves_over_initial(session):
    initial = unit_weights(session.network.num_links)
    result = optimize(
        session, "joint", FAST, alpha=10.0, rng=random.Random(1), initial_weights=initial
    )
    start = session.evaluator.evaluate_str(initial)
    assert result.metadata["joint_cost"] <= 10.0 * start.phi_high + start.phi_low


def test_result_consistency(session):
    result = optimize(session, "joint", FAST, alpha=5.0, rng=random.Random(2))
    phi_high, phi_low = result.objective.values
    evaluation = session.evaluator.evaluate_str(result.weights)
    assert phi_high == pytest.approx(evaluation.phi_high)
    assert phi_low == pytest.approx(evaluation.phi_low)
    assert result.metadata["joint_cost"] == pytest.approx(5.0 * phi_high + phi_low)
    assert result.objective.primary == pytest.approx(phi_high)


def test_history_monotone(session):
    result = optimize(session, "joint", FAST, alpha=5.0, rng=random.Random(3))
    values = [point.primary for point in result.cost_trace]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_alpha_zero_ignores_high_priority(session):
    """alpha=0 optimizes Phi_L alone; high priority can be sacrificed."""
    result = optimize(session, "joint", FAST, alpha=0.0, rng=random.Random(4))
    assert result.metadata["joint_cost"] == pytest.approx(result.objective.secondary)


def test_alpha_sweep_flags_inversions(evaluator):
    str_result = optimize(
        Session.from_evaluator(evaluator), "str", FAST, rng=random.Random(5)
    )
    points = alpha_sweep(
        evaluator,
        alphas=(0.0, 1e6),
        reference_phi_high=str_result.evaluation.phi_high,
        params=FAST,
        seed=5,
    )
    assert len(points) == 2
    assert points[0].alpha == 0.0
    huge_alpha = points[1]
    assert not huge_alpha.priority_inversion or huge_alpha.phi_high <= (
        str_result.evaluation.phi_high * 1.5
    )


def test_triangle_alpha_30_inverts_priority(triangle):
    """Paper Section 3.3.1: alpha=30 on the triangle trades away Phi_H."""
    from repro.traffic.matrix import TrafficMatrix

    high = TrafficMatrix.from_pairs(3, [(0, 2, 1 / 3)])
    low = TrafficMatrix.from_pairs(3, [(0, 2, 2 / 3)])
    session = Session.from_evaluator(
        DualTopologyEvaluator(triangle, high, low, mode="load")
    )
    params = SearchParams(
        iterations_high=150,
        iterations_low=150,
        iterations_refine=150,
        diversification_interval=20,
    )
    initial = unit_weights(triangle.num_links)
    result30 = optimize(
        session, "joint", params, alpha=30.0, rng=random.Random(6), initial_weights=initial
    )
    result35 = optimize(
        session, "joint", params, alpha=35.0, rng=random.Random(6), initial_weights=initial
    )
    assert result30.metadata["joint_cost"] == pytest.approx(30 / 2 + 4 / 3)
    assert result35.metadata["joint_cost"] == pytest.approx(35 / 3 + 64 / 9)
    assert result30.objective.primary > 1 / 3 + 1e-9
    assert result35.objective.primary == pytest.approx(1 / 3)


def test_deterministic(session):
    a = optimize(session, "joint", FAST, alpha=3.0, rng=random.Random(42))
    b = optimize(session, "joint", FAST, alpha=3.0, rng=random.Random(42))
    assert a.metadata["joint_cost"] == b.metadata["joint_cost"]
    np.testing.assert_array_equal(a.weights, b.weights)
