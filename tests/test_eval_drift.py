"""Tests for traffic-drift robustness."""

import random

import pytest

from repro.api import Session
from repro.eval.drift import DEFAULT_SCALES, drift_sweep_session
from repro.routing.weights import random_weights, unit_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization


@pytest.fixture(scope="module")
def setup():
    from repro.network.topology_isp import isp_topology

    net = isp_topology()
    rng = random.Random(17)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.1, fraction=0.3, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.6)
    return net, high_tm, low_tm


def _session(setup, high_weights=None, low_weights=None):
    """A load-mode session on ``setup`` (hop-count weights by default)."""
    net, high_tm, low_tm = setup
    session = Session(net, high_tm, low_tm, cost_model="load")
    if high_weights is None:
        high_weights = unit_weights(net.num_links)
    session.set_weights(high_weights, low_weights)
    return session


def test_sweep_points_in_order(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = drift_sweep_session(_session(setup, w, w), scales=(0.8, 1.0, 1.2))
    assert [p.scale for p in report.points] == [0.8, 1.0, 1.2]


def test_costs_monotone_in_scale(setup):
    """More traffic on fixed weights can only cost more."""
    net, high_tm, low_tm = setup
    w = random_weights(net.num_links, random.Random(1))
    report = drift_sweep_session(_session(setup, w, w), scales=(0.7, 1.0, 1.3))
    phi_lows = [p.phi_low for p in report.points]
    phi_highs = [p.phi_high for p in report.points]
    assert phi_lows == sorted(phi_lows)
    assert phi_highs == sorted(phi_highs)
    utils = [p.max_utilization for p in report.points]
    assert utils == sorted(utils)


def test_point_at(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = drift_sweep_session(_session(setup, w, w), scales=(1.0, 1.1))
    assert report.point_at(1.1).scale == 1.1
    with pytest.raises(KeyError):
        report.point_at(0.5)


def test_low_cost_growth(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = drift_sweep_session(_session(setup, w, w), scales=(0.8, 1.2))
    assert report.low_cost_growth() >= 1.0


def test_dual_weights(setup):
    net, high_tm, low_tm = setup
    rng = random.Random(2)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    report = drift_sweep_session(_session(setup, wh, wl), scales=(1.0,))
    assert report.points[0].phi_low > 0


def test_validation(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    with pytest.raises(ValueError, match="at least one"):
        drift_sweep_session(_session(setup, w, w), scales=())
    with pytest.raises(ValueError, match="positive"):
        drift_sweep_session(_session(setup, w, w), scales=(0.0,))


def test_session_sweep_rides_the_scenario_engine(setup):
    """A drift sweep goes through Session.sweep, not a private evaluator."""
    session = _session(setup)
    report = drift_sweep_session(session, scales=(1.0, 1.1))
    # Scale 1.0 is the identity scenario: it must reproduce the baseline.
    baseline = session.evaluate()
    point = report.point_at(1.0)
    assert point.phi_high == baseline.phi_high
    assert point.phi_low == baseline.phi_low
    assert point.max_utilization == baseline.max_utilization


def test_session_default_scales(setup):
    report = drift_sweep_session(_session(setup))
    assert [p.scale for p in report.points] == list(DEFAULT_SCALES)


def test_session_validation(setup):
    with pytest.raises(ValueError, match="at least one"):
        drift_sweep_session(_session(setup), scales=())
    with pytest.raises(ValueError, match="positive"):
        drift_sweep_session(_session(setup), scales=(-1.0,))
