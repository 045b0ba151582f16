"""Tests for network-wide exact priority-delay estimates."""

import random

import numpy as np
import pytest

from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.queueing.network_delay import (
    SATURATED_DELAY_MS,
    link_class_delays,
    network_delay_report,
    pair_delay_ms,
)
from repro.routing.state import Routing
from repro.routing.weights import random_weights, unit_weights
from repro.traffic.matrix import TrafficMatrix


def test_idle_network_delays(line4):
    zeros = np.zeros(line4.num_links)
    delays = link_class_delays(line4, zeros, zeros)
    service_ms = 12000.0 / (100.0 * 1e6) * 1e3
    np.testing.assert_allclose(delays.high_ms, service_ms + 2.0)
    np.testing.assert_allclose(delays.low_ms, service_ms + 2.0)
    assert len(delays.saturated_links()) == 0


def test_low_class_always_slower(line4):
    high = np.full(line4.num_links, 30.0)
    low = np.full(line4.num_links, 30.0)
    delays = link_class_delays(line4, high, low)
    assert np.all(delays.low_ms >= delays.high_ms)


def test_high_class_ignores_low_load(line4):
    high = np.full(line4.num_links, 30.0)
    delays_light = link_class_delays(line4, high, np.zeros(line4.num_links))
    delays_heavy = link_class_delays(line4, high, np.full(line4.num_links, 60.0))
    np.testing.assert_allclose(delays_light.high_ms, delays_heavy.high_ms)
    assert np.all(delays_heavy.low_ms > delays_light.low_ms)


def test_saturation_detected(line4):
    high = np.full(line4.num_links, 60.0)
    low = np.full(line4.num_links, 50.0)
    delays = link_class_delays(line4, high, low)
    assert np.all(delays.low_ms >= SATURATED_DELAY_MS)
    assert len(delays.saturated_links()) == line4.num_links
    assert np.all(delays.high_ms < SATURATED_DELAY_MS)


def test_high_saturation(line4):
    high = np.full(line4.num_links, 120.0)
    delays = link_class_delays(line4, high, np.zeros(line4.num_links))
    assert np.all(delays.high_ms >= SATURATED_DELAY_MS)


def test_shape_validation(line4):
    with pytest.raises(ValueError, match="link count"):
        link_class_delays(line4, np.zeros(3), np.zeros(line4.num_links))


def test_matches_mm1_formula(line4):
    """rho_H=0.4, rho_L=0.3 on a 100 Mb/s link: check against closed form."""
    high = np.full(line4.num_links, 40.0)
    low = np.full(line4.num_links, 30.0)
    delays = link_class_delays(line4, high, low)
    service_ms = 12000.0 / (100.0 * 1e6) * 1e3
    expected_high = service_ms / 0.6 + 2.0
    expected_low = service_ms / (0.6 * 0.3) + 2.0
    np.testing.assert_allclose(delays.high_ms, expected_high)
    np.testing.assert_allclose(delays.low_ms, expected_low)


def test_pair_delay(line4):
    routing = Routing(line4, unit_weights(line4.num_links))
    link_ms = np.arange(1.0, line4.num_links + 1)
    xi = pair_delay_ms(routing, link_ms, 0, 3)
    path_links = [
        line4.link_between(0, 1).index,
        line4.link_between(1, 2).index,
        line4.link_between(2, 3).index,
    ]
    assert xi == pytest.approx(sum(link_ms[i] for i in path_links))


def test_network_delay_report(line4):
    routing = Routing(line4, unit_weights(line4.num_links))
    high = TrafficMatrix.from_pairs(4, [(0, 3, 20.0)])
    low = TrafficMatrix.from_pairs(4, [(3, 0, 40.0), (1, 3, 10.0)])
    report = network_delay_report(line4, routing, routing, high, low)
    assert report.high_pairs == 1
    assert report.low_pairs == 2
    assert report.mean_low_ms >= report.mean_high_ms * 0.5
    assert report.worst_high_ms >= report.mean_high_ms - 1e-9
    assert report.worst_low_ms >= report.mean_low_ms - 1e-9


def test_report_empty_class(line4):
    routing = Routing(line4, unit_weights(line4.num_links))
    empty = TrafficMatrix.zeros(4)
    low = TrafficMatrix.from_pairs(4, [(0, 3, 10.0)])
    report = network_delay_report(line4, routing, routing, empty, low)
    assert report.high_pairs == 0
    assert report.mean_high_ms == 0.0


def test_report_matches_per_pair_oracle():
    """One reverse pass per class equals the per-pair fraction oracle."""
    net = build_network("powerlaw", 4)
    rng = random.Random(4)
    high, low, _meta = build_traffic(net, ExperimentConfig(topology="powerlaw"), rng)
    high_routing = Routing(net, random_weights(net.num_links, rng))
    low_routing = Routing(net, random_weights(net.num_links, rng))
    report = network_delay_report(net, high_routing, low_routing, high, low)
    delays = link_class_delays(
        net, high_routing.link_loads(high), low_routing.link_loads(low)
    )
    for routing, traffic, link_ms, mean, worst, count in (
        (high_routing, high, delays.high_ms, report.mean_high_ms,
         report.worst_high_ms, report.high_pairs),
        (low_routing, low, delays.low_ms, report.mean_low_ms,
         report.worst_low_ms, report.low_pairs),
    ):
        xi = np.array([pair_delay_ms(routing, link_ms, s, t) for s, t, _ in traffic.pairs()])
        rates = np.array([rate for _s, _t, rate in traffic.pairs()])
        assert count == xi.size == traffic.pair_count()
        np.testing.assert_allclose(mean, (xi * rates).sum() / rates.sum(), rtol=1e-12)
        np.testing.assert_allclose(worst, xi.max(), rtol=1e-12)
