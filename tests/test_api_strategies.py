"""Tests: all four strategies behind ``repro.api.optimize``."""

import numpy as np
import pytest

from repro.api import OptimizationResult, Session, TracePoint, optimize
from repro.core.search_params import SearchParams

FAST = SearchParams(
    iterations_high=6,
    iterations_low=6,
    iterations_refine=6,
    diversification_interval=5,
    neighborhood_size=3,
)


@pytest.fixture
def make_session(isp_net, small_traffic):
    """Fresh sessions on demand (separate evaluators, no cache cross-talk)."""
    high, low = small_traffic

    def build(cost_model="load") -> Session:
        return Session(isp_net, high, low, cost_model=cost_model, seed=11)

    return build


class TestAllStrategiesRun:
    @pytest.mark.parametrize("name", ["str", "dtr", "joint", "anneal"])
    def test_runs_and_returns_common_result(self, make_session, name):
        session = make_session()
        options = {"alpha": 1.0} if name == "joint" else {}
        result = optimize(session, strategy=name, params=FAST, **options)
        assert isinstance(result, OptimizationResult)
        assert result.strategy == name
        assert result.high_weights.shape == (session.network.num_links,)
        assert result.low_weights.shape == (session.network.num_links,)
        assert result.objective.primary >= 0
        assert result.evaluations > 0
        assert result.wall_time_s > 0
        assert result.cost_trace and all(
            isinstance(p, TracePoint) for p in result.cost_trace
        )
        assert result.relaxed == {}  # no relaxation epsilons requested
        # the session adopted the result as its what-if baseline
        np.testing.assert_array_equal(session.high_weights, result.high_weights)

    @pytest.mark.parametrize(
        "name, start",
        [
            ("str", "initial_weights"),
            ("dtr", "initial_high"),
            ("dtr", "initial_low"),
            ("joint", "initial_weights"),
            ("anneal", "initial_weights"),
        ],
    )
    def test_fractional_starting_weights_rejected(self, make_session, name, start):
        """A fractional start is an error, never truncated to an int64 start."""
        session = make_session()
        fractional = [2.5] * session.network.num_links
        with pytest.raises(ValueError, match="integers"):
            optimize(session, strategy=name, params=FAST, **{start: fractional})

    def test_only_dtr_is_dual(self, make_session):
        session = make_session()
        for name in ("str", "joint", "anneal"):
            result = optimize(session, strategy=name, params=FAST)
            assert not result.dual
            np.testing.assert_array_equal(result.weights, result.high_weights)

    def test_dual_result_guards_weights_accessor(self, make_session):
        session = make_session()
        result = optimize(session, strategy="dtr", params=FAST)
        if result.dual:
            with pytest.raises(ValueError, match="high_weights"):
                result.weights

    def test_routing_accessor(self, make_session):
        session = make_session()
        result = optimize(session, strategy="str", params=FAST)
        high_routing, low_routing = result.routing(session)
        np.testing.assert_array_equal(high_routing.weights, result.high_weights)
        np.testing.assert_array_equal(low_routing.weights, result.low_weights)

    def test_joint_requires_load_mode(self, make_session):
        session = make_session(cost_model="sla")
        with pytest.raises(ValueError, match="load-mode"):
            optimize(session, strategy="joint", params=FAST, alpha=1.0)

    def test_joint_alpha_defaults_to_cost_model(self, isp_net, small_traffic):
        high, low = small_traffic
        session = Session(isp_net, high, low, cost_model="joint")
        # JointCostModel(alpha=1.0) by name; verify the strategy picks it up
        result = optimize(session, strategy="joint", params=FAST)
        assert result.metadata["alpha"] == 1.0


class TestDefaultRngStream:
    def test_omitted_rng_uses_session_search_stream(self, make_session):
        """Without an explicit rng, results are reproducible per session seed."""
        a = optimize(make_session(), strategy="str", params=FAST)
        b = optimize(make_session(), strategy="str", params=FAST)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.objective == b.objective
