"""Tests for the single-failure robustness sweep."""

import random

import pytest

from repro.api import Session
from repro.eval.robustness import failure_sweep_session
from repro.routing.weights import random_weights, unit_weights
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization


@pytest.fixture(scope="module")
def setup():
    from repro.network.topology_isp import isp_topology

    net = isp_topology()
    rng = random.Random(31)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.1, fraction=0.3, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.5)
    return net, high_tm, low_tm


def _session(net, high_weights, low_weights, high_traffic, low_traffic):
    """A load-mode session whose baseline is the given weight setting."""
    session = Session(net, high_traffic, low_traffic, cost_model="load")
    session.set_weights(high_weights, low_weights)
    return session


def test_sweep_covers_all_adjacencies(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = failure_sweep_session(_session(net, w, w, high_tm, low_tm))
    assert len(report.outcomes) == 35
    assert report.skipped_disconnecting == 0
    assert report.baseline.failed_pair == (-1, -1)


def test_failures_never_improve_worst_case(setup):
    """Losing capacity cannot reduce the worst-case cost below baseline."""
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = failure_sweep_session(_session(net, w, w, high_tm, low_tm))
    assert report.worst_phi_low >= report.baseline.phi_low - 1e-9
    assert report.worst_phi_high >= report.baseline.phi_high - 1e-9
    assert report.degradation_factor() >= 1.0 - 1e-12


def test_mean_bounded_by_worst(setup):
    net, high_tm, low_tm = setup
    w = random_weights(net.num_links, random.Random(1))
    report = failure_sweep_session(_session(net, w, w, high_tm, low_tm))
    assert report.mean_phi_low <= report.worst_phi_low + 1e-9
    assert report.mean_phi_high <= report.worst_phi_high + 1e-9


def test_dual_weights_evaluated_independently(setup):
    net, high_tm, low_tm = setup
    rng = random.Random(2)
    wh = random_weights(net.num_links, rng)
    wl = random_weights(net.num_links, rng)
    dual_report = failure_sweep_session(_session(net, wh, wl, high_tm, low_tm))
    str_report = failure_sweep_session(_session(net, wh, wh, high_tm, low_tm))
    assert dual_report.baseline.phi_high == pytest.approx(str_report.baseline.phi_high)
    assert dual_report.baseline.phi_low != pytest.approx(str_report.baseline.phi_low)


def test_outcomes_sorted_by_pair(setup):
    net, high_tm, low_tm = setup
    w = unit_weights(net.num_links)
    report = failure_sweep_session(_session(net, w, w, high_tm, low_tm))
    pairs = [o.failed_pair for o in report.outcomes]
    assert pairs == sorted(pairs)


def test_disconnecting_failures_surfaced_not_skipped(line4):
    """Disconnecting failures are evaluated and flagged, never dropped."""
    from repro.traffic.matrix import TrafficMatrix

    high = TrafficMatrix.from_pairs(4, [(0, 3, 1.0)])
    low = TrafficMatrix.from_pairs(4, [(3, 0, 2.0)])
    w = unit_weights(line4.num_links)
    report = failure_sweep_session(_session(line4, w, w, high, low))
    # Every adjacency of a chain disconnects the 0<->3 demand: all three
    # outcomes are present, flagged, and account for the lost volume.
    assert len(report.outcomes) == 3
    assert report.disconnected_count == 3
    assert report.skipped_disconnecting == 3  # deprecated alias
    for outcome in report.outcomes:
        assert outcome.disconnected
        assert outcome.lost_demand == pytest.approx(3.0)
    # Flagged outcomes stay out of the cost statistics, which fall back
    # to the baseline when no connected outcome exists.
    assert report.worst_phi_low == report.baseline.phi_low
    assert report.degradation_factor() == 1.0


def test_partial_disconnection_flags_only_cut_pairs(line4):
    """A failure that cuts one pair but not another flags only the former."""
    from repro.traffic.matrix import TrafficMatrix

    high = TrafficMatrix.from_pairs(4, [(0, 1, 1.0)])
    low = TrafficMatrix.from_pairs(4, [(2, 3, 2.0), (0, 1, 0.5)])
    w = unit_weights(line4.num_links)
    report = failure_sweep_session(_session(line4, w, w, high, low))
    by_pair = {o.failed_pair: o for o in report.outcomes}
    # Failing 2-3 cuts only the (2, 3) demand; the (0, 1) pair keeps its
    # direct link, and the evaluation covers that routable remainder.
    assert by_pair[(2, 3)].disconnected
    assert by_pair[(2, 3)].lost_demand == pytest.approx(2.0)
    assert by_pair[(2, 3)].phi_low > 0  # evaluated over the remainder
    # Failing the middle adjacency 1-2 cuts nothing: both demand pairs
    # ride single surviving links.
    assert not by_pair[(1, 2)].disconnected
    assert by_pair[(1, 2)].lost_demand == 0.0
    assert report.disconnected_count == 2  # failing 0-1 also cuts (0, 1)
