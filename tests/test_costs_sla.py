"""Tests for the SLA-based cost (paper Eqs. 3-5)."""

import random

import numpy as np
import pytest

from repro.core.evaluator import SLA_MODE, DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.costs.fortz import fortz_cost_vector
from repro.costs.sla import (
    PACKET_SIZE_BITS,
    SlaParams,
    evaluate_sla_cost,
    link_delays_ms,
)
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.routing.state import Routing
from repro.routing.weights import unit_weights
from repro.traffic.matrix import TrafficMatrix


class TestSlaParams:
    def test_paper_defaults(self):
        params = SlaParams()
        assert params.theta_ms == 25.0
        assert params.penalty_const == 100.0
        assert params.penalty_per_ms == 1.0
        assert params.packet_size_bits == PACKET_SIZE_BITS

    def test_penalty_zero_within_bound(self):
        params = SlaParams(theta_ms=25.0)
        assert params.pair_penalty(24.999) == 0.0
        assert params.pair_penalty(25.0) == 0.0

    def test_penalty_structure(self):
        """Eq. 4: a + b * excess."""
        params = SlaParams(theta_ms=25.0, penalty_const=100.0, penalty_per_ms=1.0)
        assert params.pair_penalty(30.0) == pytest.approx(105.0)
        assert params.pair_penalty(25.0 + 1e-9) == pytest.approx(100.0)

    def test_relaxed(self):
        relaxed = SlaParams(theta_ms=25.0).relaxed(0.2)
        assert relaxed.theta_ms == pytest.approx(30.0)
        with pytest.raises(ValueError):
            SlaParams().relaxed(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlaParams(theta_ms=0.0)
        with pytest.raises(ValueError):
            SlaParams(penalty_const=-1.0)
        with pytest.raises(ValueError):
            SlaParams(packet_size_bits=0.0)


class TestLinkDelays:
    def test_idle_link_delay_is_transmission_plus_propagation(self, line4):
        loads = np.zeros(line4.num_links)
        costs = np.zeros(line4.num_links)
        delays = link_delays_ms(line4, loads, costs)
        transmission_ms = PACKET_SIZE_BITS / (100.0 * 1e6) * 1e3
        np.testing.assert_allclose(delays, transmission_ms + 2.0)

    def test_loaded_link_has_higher_delay(self, line4):
        loads = np.zeros(line4.num_links)
        idle = link_delays_ms(line4, loads, np.zeros(line4.num_links))
        busy_cost = fortz_cost_vector(np.full(line4.num_links, 95.0), line4.capacities())
        busy = link_delays_ms(line4, np.full(line4.num_links, 95.0), busy_cost)
        assert np.all(busy > idle)

    def test_eq3_formula(self, line4):
        """D_l = s/C * (Phi_{H,l}/C + 1) + p_l with explicit numbers."""
        cost = np.full(line4.num_links, 50.0)
        loads = np.full(line4.num_links, 50.0)
        delays = link_delays_ms(line4, loads, cost)
        s_over_c_ms = PACKET_SIZE_BITS / (100.0 * 1e6) * 1e3
        expected = s_over_c_ms * (50.0 / 100.0 + 1.0) + 2.0
        np.testing.assert_allclose(delays, expected)


class TestEvaluateSlaCost:
    def make(self, net, theta_ms=25.0, rate=10.0):
        high = TrafficMatrix.from_pairs(net.num_nodes, [(0, 3, rate)])
        low = TrafficMatrix.from_pairs(net.num_nodes, [(3, 0, rate)])
        routing = Routing(net, unit_weights(net.num_links))
        return evaluate_sla_cost(
            net, routing, routing, high, low, SlaParams(theta_ms=theta_ms)
        )

    def test_no_violation_with_loose_bound(self, line4):
        result = self.make(line4, theta_ms=100.0)
        assert result.penalty == 0.0
        assert result.violations == 0
        assert result.objective.primary == 0.0

    def test_violation_with_tight_bound(self, line4):
        result = self.make(line4, theta_ms=3.0)
        assert result.violations == 1
        xi = result.pair_delays_ms[(0, 3)]
        assert result.penalty == pytest.approx(100.0 + (xi - 3.0))

    def test_pair_delay_is_sum_of_link_delays(self, line4):
        result = self.make(line4, theta_ms=100.0)
        path_links = [
            line4.link_between(0, 1).index,
            line4.link_between(1, 2).index,
            line4.link_between(2, 3).index,
        ]
        expected = sum(result.link_delays[i] for i in path_links)
        assert result.pair_delays_ms[(0, 3)] == pytest.approx(expected)

    def test_ecmp_pair_delay_averages_paths(self, diamond):
        high = TrafficMatrix.from_pairs(4, [(0, 3, 1.0)])
        low = TrafficMatrix.zeros(4)
        routing = Routing(diamond, unit_weights(diamond.num_links))
        result = evaluate_sla_cost(diamond, routing, routing, high, low)
        upper = (
            result.link_delays[diamond.link_between(0, 1).index]
            + result.link_delays[diamond.link_between(1, 3).index]
        )
        lower = (
            result.link_delays[diamond.link_between(0, 2).index]
            + result.link_delays[diamond.link_between(2, 3).index]
        )
        assert result.pair_delays_ms[(0, 3)] == pytest.approx((upper + lower) / 2)

    def test_objective_shape(self, line4):
        result = self.make(line4, theta_ms=3.0)
        assert result.objective == LexCost(result.penalty, result.phi_low)

    def test_sort_keys(self, line4):
        result = self.make(line4)
        keys = result.high_link_sort_keys()
        assert len(keys) == line4.num_links
        assert all(isinstance(k, LexCost) for k in keys)
        assert result.low_link_sort_keys().shape == (line4.num_links,)

    def test_worst_delay(self, line4):
        result = self.make(line4, theta_ms=100.0)
        assert result.worst_delay_ms == pytest.approx(result.pair_delays_ms[(0, 3)])

    def test_low_priority_cost_uses_residual(self, line4):
        """Saturating a link with high-priority traffic must inflate Phi_L."""
        lightly = self.make(line4, theta_ms=100.0, rate=10.0)
        heavily = self.make(line4, theta_ms=100.0, rate=99.0)
        assert heavily.phi_low > lightly.phi_low * 10


def test_violations_count_pairs_over_bound_with_zero_penalty():
    """A pair over theta is a violation even when its penalty is 0.

    Regression: violations counted ``pair_penalty(xi) > 0``, so with
    ``a = b = 0`` every pair over the bound read as compliant.
    """
    config = ExperimentConfig(topology="random", mode=SLA_MODE)
    net = build_network("random", 1)
    high, low, _meta = build_traffic(net, config, random.Random(1))
    params = SlaParams(theta_ms=1e-3, penalty_const=0.0, penalty_per_ms=0.0)
    w = unit_weights(net.num_links)
    routing = Routing(net, w)
    direct = evaluate_sla_cost(net, routing, routing, high, low, params)
    evaluator = DualTopologyEvaluator(net, high, low, mode=SLA_MODE, sla_params=params)
    for result in (direct, evaluator.evaluate_str(w)):
        assert min(result.pair_delays_ms.values()) > params.theta_ms
        assert result.violations == high.pair_count() > 0
        assert result.penalty == 0.0
