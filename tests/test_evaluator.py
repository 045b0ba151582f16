"""Tests for the cached dual-topology evaluator."""

import random

import numpy as np
import pytest

from repro.core.evaluator import DualTopologyEvaluator
from repro.costs.load_cost import LoadCostEvaluation, evaluate_load_cost
from repro.costs.sla import SlaCostEvaluation, SlaParams, evaluate_sla_cost
from repro.routing.state import Routing
from repro.routing.weights import random_weights, unit_weights
from repro.traffic.matrix import TrafficMatrix


@pytest.fixture
def setup(isp_net, small_traffic):
    high, low = small_traffic
    return isp_net, high, low


def test_mode_validation(setup):
    net, high, low = setup
    with pytest.raises(ValueError, match="mode"):
        DualTopologyEvaluator(net, high, low, mode="latency")


def test_size_validation(isp_net):
    wrong = TrafficMatrix.zeros(5)
    with pytest.raises(ValueError, match="does not match"):
        DualTopologyEvaluator(isp_net, wrong, wrong)


def test_load_mode_matches_direct_evaluation(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low, mode="load")
    rng = random.Random(5)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    via_evaluator = evaluator.evaluate(wh, wl)
    direct = evaluate_load_cost(net, Routing(net, wh), Routing(net, wl), high, low)
    assert isinstance(via_evaluator, LoadCostEvaluation)
    assert via_evaluator.phi_high == pytest.approx(direct.phi_high)
    assert via_evaluator.phi_low == pytest.approx(direct.phi_low)
    np.testing.assert_allclose(via_evaluator.utilization, direct.utilization)


def test_sla_mode_matches_direct_evaluation(setup):
    net, high, low = setup
    params = SlaParams(theta_ms=30.0)
    evaluator = DualTopologyEvaluator(net, high, low, mode="sla", sla_params=params)
    rng = random.Random(6)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    via_evaluator = evaluator.evaluate(wh, wl)
    direct = evaluate_sla_cost(net, Routing(net, wh), Routing(net, wl), high, low, params)
    assert isinstance(via_evaluator, SlaCostEvaluation)
    assert via_evaluator.penalty == pytest.approx(direct.penalty)
    assert via_evaluator.violations == direct.violations
    assert via_evaluator.phi_low == pytest.approx(direct.phi_low)
    assert via_evaluator.pair_delays_ms == pytest.approx(direct.pair_delays_ms)


def test_evaluate_str_equals_same_weights(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    w = unit_weights(net.num_links)
    assert evaluator.evaluate_str(w).objective == evaluator.evaluate(w, w).objective


def test_caching_identical_calls(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    w = unit_weights(net.num_links)
    first = evaluator.evaluate(w, w)
    second = evaluator.evaluate(w, w)
    assert first is second
    stats = evaluator.cache_stats()
    assert stats["full_hits"] >= 1
    assert stats["high_misses"] == 1
    assert stats["low_misses"] == 1


def test_high_layer_reused_when_only_low_changes(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    wh = unit_weights(net.num_links)
    rng = random.Random(7)
    for _ in range(5):
        evaluator.evaluate(wh, random_weights(net.num_links, rng))
    stats = evaluator.cache_stats()
    assert stats["high_misses"] == 1
    assert stats["high_hits"] == 4


def test_low_layer_reused_when_only_high_changes(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    wl = unit_weights(net.num_links)
    rng = random.Random(8)
    for _ in range(5):
        evaluator.evaluate(random_weights(net.num_links, rng), wl)
    stats = evaluator.cache_stats()
    assert stats["low_misses"] == 1
    assert stats["low_hits"] == 4


def test_evaluation_counter(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    w = unit_weights(net.num_links)
    evaluator.evaluate(w, w)
    evaluator.evaluate(w, w)
    assert evaluator.evaluations == 2


def test_routing_accessors(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    w = unit_weights(net.num_links)
    assert evaluator.high_routing(w).distance(0, 1) >= 1
    assert evaluator.low_routing(w) is evaluator.low_routing(w)


def test_properties(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low)
    assert evaluator.network is net
    assert evaluator.high_traffic is high
    assert evaluator.low_traffic is low


def test_cache_eviction(setup):
    net, high, low = setup
    evaluator = DualTopologyEvaluator(net, high, low, cache_size=2)
    rng = random.Random(9)
    for _ in range(10):
        w = random_weights(net.num_links, rng)
        evaluator.evaluate(w, w)
    stats = evaluator.cache_stats()
    assert stats["high_misses"] == 10


# ----------------------------------------------------------------------
# A returned evaluation cannot reach the evaluator's caches
# ----------------------------------------------------------------------
def _isp_session(mode):
    """An ISP session at 50% utilization and three weight vectors."""
    from repro.api import Session
    from repro.eval.experiment import ExperimentConfig

    def session():
        return Session.from_config(
            ExperimentConfig(topology="isp", mode=mode, target_utilization=0.5, seed=1)
        )

    s = session()
    rng = random.Random(1)
    wh, wl, wl2 = (random_weights(s.network.num_links, rng) for _ in range(3))
    return s, session, wh, wl, wl2


def test_evaluation_arrays_are_read_only():
    """Writing into a returned evaluation used to rewrite the cached high
    layer: the next evaluation sharing it read ``Phi_H = 0``."""
    import dataclasses

    s, session, wh, wl, wl2 = _isp_session("load")
    s.set_weights(wh, wl)
    e = s.evaluate()
    for field in dataclasses.fields(e):
        value = getattr(e, field.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[:] = 0
    layer = s.evaluator._high_cache.peek(np.asarray(wh, dtype=np.int64).tobytes())
    for array in (layer.dest_rows, layer.loads, layer.price.residual, layer.price.per_link):
        assert not array.flags.writeable
    fresh = session()
    assert s.evaluator.evaluate(wh, wl2).objective == fresh.evaluator.evaluate(wh, wl2).objective


def test_pair_delays_are_read_only():
    """Clearing a returned evaluation's pair delays used to empty the cached
    ones: the next evaluation read 0 pairs and a worst delay of 0.0."""
    s, session, wh, wl, _wl2 = _isp_session("sla")
    s.set_weights(wh, wl)
    e = s.evaluate()
    pairs = dict(e.pair_delays_ms)
    for mutate in (
        lambda d: d.clear(),
        lambda d: d.pop(next(iter(d))),
        lambda d: d.update({(0, 1): 0.0}),
        lambda d: d.__setitem__(next(iter(d)), 0.0),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate(e.pair_delays_ms)
    again = s.evaluate()
    assert again.pair_delays_ms == pairs and len(pairs) == 24
    fresh = session()
    fresh.set_weights(wh, wl)
    assert again.worst_delay_ms == fresh.evaluate().worst_delay_ms > 0.0
