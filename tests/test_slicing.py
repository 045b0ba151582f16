"""Tests for multi-topology traffic slicing (Balon-Leduc MTR TE)."""

import random

import numpy as np
import pytest

from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.core.slicing import SlicedResult, optimize_sliced_low, slice_traffic_matrix
from repro.routing.weights import unit_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.matrix import TrafficMatrix

FAST = SearchParams(
    iterations_high=10, iterations_low=30, iterations_refine=10, diversification_interval=10
)


class TestSliceTrafficMatrix:
    def test_slices_sum_to_original(self):
        tm = gravity_traffic_matrix(10, random.Random(1))
        slices = slice_traffic_matrix(tm, 4, random.Random(2))
        assert len(slices) == 4
        total = slices[0]
        for part in slices[1:]:
            total = total + part
        np.testing.assert_allclose(total.demands, tm.demands)

    def test_pairs_not_split_across_slices(self):
        tm = gravity_traffic_matrix(8, random.Random(3))
        slices = slice_traffic_matrix(tm, 3, random.Random(4))
        for s, t, rate in tm.pairs():
            holders = [sl for sl in slices if sl.rate(s, t) > 0]
            assert len(holders) == 1
            assert holders[0].rate(s, t) == pytest.approx(rate)

    def test_volume_balanced(self):
        tm = gravity_traffic_matrix(12, random.Random(5))
        slices = slice_traffic_matrix(tm, 3, random.Random(6))
        volumes = [sl.total() for sl in slices]
        assert max(volumes) / min(volumes) < 1.3

    def test_single_slice_is_identity(self):
        tm = gravity_traffic_matrix(6, random.Random(7))
        (only,) = slice_traffic_matrix(tm, 1, random.Random(8))
        assert only == tm

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            slice_traffic_matrix(TrafficMatrix.zeros(4), 0)


class TestOptimizeSlicedLow:
    @pytest.fixture
    def evaluator(self, isp_net, small_traffic):
        high, low = small_traffic
        return DualTopologyEvaluator(isp_net, high, low, mode="load")

    def test_requires_load_mode(self, isp_net, small_traffic):
        high, low = small_traffic
        sla_eval = DualTopologyEvaluator(isp_net, high, low, mode="sla")
        with pytest.raises(ValueError, match="load-mode"):
            optimize_sliced_low(sla_eval, unit_weights(isp_net.num_links), 2)

    def test_result_shape(self, evaluator):
        wh = unit_weights(evaluator.network.num_links)
        result = optimize_sliced_low(
            evaluator, wh, num_slices=2, params=FAST, rng=random.Random(1)
        )
        assert isinstance(result, SlicedResult)
        assert result.num_topologies == 3
        assert len(result.slice_weights) == 2
        assert len(result.slices) == 2

    def test_phi_high_matches_high_weights(self, evaluator):
        wh = unit_weights(evaluator.network.num_links)
        result = optimize_sliced_low(
            evaluator, wh, num_slices=2, params=FAST, rng=random.Random(2)
        )
        reference = evaluator.evaluate(wh, wh)
        assert result.objective.primary == pytest.approx(reference.phi_high)

    def test_improves_over_shared_weights(self, evaluator):
        """Slicing must not end worse than routing all low traffic on w_H."""
        wh = unit_weights(evaluator.network.num_links)
        start = evaluator.evaluate(wh, wh)
        result = optimize_sliced_low(
            evaluator, wh, num_slices=2, params=FAST, rng=random.Random(3)
        )
        assert result.objective.secondary <= start.phi_low + 1e-9

    def test_history_monotone(self, evaluator):
        wh = unit_weights(evaluator.network.num_links)
        result = optimize_sliced_low(
            evaluator, wh, num_slices=3, params=FAST, rng=random.Random(4)
        )
        values = [v for _, v in result.history]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert result.history[-1][1] == pytest.approx(result.objective.secondary)

    def test_best_weights_reproduce_best_cost(self, evaluator):
        """Replaying the returned slice weights yields the reported Phi_L."""
        from repro.costs.fortz import fortz_cost_vector
        from repro.costs.residual import residual_capacities
        from repro.routing.state import Routing

        net = evaluator.network
        wh = unit_weights(net.num_links)
        result = optimize_sliced_low(
            evaluator, wh, num_slices=2, params=FAST, rng=random.Random(5)
        )
        high_loads = Routing(net, wh).link_loads(evaluator.high_traffic)
        residual = residual_capacities(net.capacities(), high_loads)
        low_loads = np.zeros(net.num_links)
        for weights, part in zip(result.slice_weights, result.slices):
            low_loads += Routing(net, weights).link_loads(part)
        phi_low = float(fortz_cost_vector(low_loads, residual).sum())
        assert phi_low == pytest.approx(result.objective.secondary)

    def test_fractional_high_weights_rejected(self, evaluator):
        """``[2.5] * n`` raises instead of running (and reporting) ``[2] * n``."""
        n = evaluator.network.num_links
        with pytest.raises(ValueError, match="integer"):
            optimize_sliced_low(
                evaluator, [2.5] * n, 2, params=FAST, rng=random.Random(6)
            )
        assert evaluator.cache_stats()["high_misses"] == 0  # never keyed as [2] * n

    def test_deterministic(self, evaluator):
        wh = unit_weights(evaluator.network.num_links)
        a = optimize_sliced_low(evaluator, wh, 2, params=FAST, rng=random.Random(42))
        b = optimize_sliced_low(evaluator, wh, 2, params=FAST, rng=random.Random(42))
        assert a.objective == b.objective
