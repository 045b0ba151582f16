"""Mean ECMP path delays by reverse-level DAG dynamic programming.

:meth:`Routing.path_delays` computes ``E_t(v)``, the mean delay of the
even-split flow from ``v`` to ``t``, for every node at once.  Three
contracts are pinned here:

* the vectorized reverse pass equals the scalar loop of
  :class:`repro._reference.ScalarRouting` *bit for bit* (every node sums
  its out-links from ``0.0`` in ascending link order either way);
* it agrees with the single-pair oracle ``pair_link_fractions(s, t) @ D``
  to ``rtol=1e-12`` (only the summation order differs);
* on the paper's SLA configurations the two give identical violation
  counts, and no pair sits close enough to ``theta`` for the last-bit
  difference to flip one.

Degraded networks leave isolated nodes behind, where a stale finite
distance would divide 0 by 0; CI runs this file with RuntimeWarnings as
errors.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro._reference import ScalarRouting
from repro.core.evaluator import SLA_MODE, DualTopologyEvaluator
from repro.costs.sla import traffic_pair_delays
from repro.eval.experiment import ExperimentConfig, build_network, build_traffic
from repro.network.graph import Network
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.routing.incremental import derive_children, destinations_using_links
from repro.routing.spf import RoutingError
from repro.routing.state import Routing
from repro.routing.weights import random_weights, unit_weights
from repro.scenarios.projection import TopologyProjection
from repro.traffic.matrix import TrafficMatrix

RTOL = 1e-12
THETA_MARGIN = 1e-9
TOPOLOGIES = ("isp", "random", "powerlaw")


def _instances():
    """(network, weights) pairs across all three topology families."""
    out = []
    for seed, build in (
        (7, lambda r: random_topology(rng=r)),
        (11, lambda r: powerlaw_topology(rng=r)),
        (3, lambda r: isp_topology()),
    ):
        net = build(random.Random(seed))
        out.append((net, random_weights(net.num_links, random.Random(seed + 1))))
        out.append((net, unit_weights(net.num_links)))
    return out


def _link_delays(net, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 20.0, size=net.num_links)


def _isolating_projection(net, node):
    """A projection failing every link at ``node``, leaving it isolated."""
    failed = [l.index for l in net.links if node in (l.src, l.dst)]
    return TopologyProjection(net, failed)


# ----------------------------------------------------------------------
# Vectorized reverse pass vs the scalar loop
# ----------------------------------------------------------------------
def test_path_delays_bitwise_equal_scalar():
    for i, (net, weights) in enumerate(_instances()):
        delays = _link_delays(net, i)
        dests = list(range(net.num_nodes))
        vec = Routing(net, weights).path_delays(dests, delays)
        ref = ScalarRouting(net, weights).path_delays(dests, delays)
        assert vec.shape == (net.num_nodes, net.num_nodes)
        np.testing.assert_array_equal(vec, ref)
        np.testing.assert_array_equal(np.diag(vec), np.zeros(net.num_nodes))


def test_path_delays_independent_of_batching():
    """A row's values do not depend on the rows sharing its schedule."""
    net, weights = _instances()[2]
    delays = _link_delays(net)
    routing = Routing(net, weights)
    everything = routing.path_delays(range(net.num_nodes), delays)
    subset = [9, 2, 9, 17]
    np.testing.assert_array_equal(
        Routing(net, weights).path_delays(subset, delays), everything[subset]
    )
    for t in subset:
        np.testing.assert_array_equal(
            Routing(net, weights).path_delays([t], delays)[0], everything[t]
        )


def test_path_delays_degraded_network_bitwise_equal_scalar():
    """An isolated node reads inf toward every destination, on a fresh and
    on a derived degraded routing, in both implementations."""
    net, weights = _instances()[0]
    delays = _link_delays(net, 3)
    node = 5
    projection = _isolating_projection(net, node)
    sub = projection.network
    sub_weights = projection.project_weights(weights)
    sub_delays = delays[projection.surviving_index_array()]
    dests = list(range(net.num_nodes))
    results = []
    for routing_class in (Routing, ScalarRouting):
        fresh = routing_class(sub, sub_weights)
        parent = routing_class(net, weights)
        parent.destination_rows(dests, np.ones((len(dests), net.num_nodes)))
        affected = destinations_using_links(
            net, parent.distance_matrix, weights, list(projection.failed_links)
        )
        (derived,) = derive_children(parent, [(sub, sub_weights, affected)])
        for routing in (fresh, derived):
            results.append(routing.path_delays(dests, sub_delays))
    for out in results[1:]:
        np.testing.assert_array_equal(out, results[0])
    out = results[0]
    others = [v for v in dests if v != node]
    assert np.all(np.isinf(out[node, others]))  # nobody reaches the node
    assert np.all(np.isinf(out[others, node]))  # the node reaches nobody
    assert out[node, node] == 0.0
    assert np.all(np.isfinite(out[np.ix_(others, others)]))


def test_path_delays_empty_destination_list():
    net, weights = _instances()[0]
    delays = _link_delays(net)
    for routing_class in (Routing, ScalarRouting):
        out = routing_class(net, weights).path_delays([], delays)
        assert out.shape == (0, net.num_nodes)


# ----------------------------------------------------------------------
# The single-pair oracle
# ----------------------------------------------------------------------
def test_path_delays_match_single_pair_oracle():
    net, weights = _instances()[1]
    routing = Routing(net, weights)
    delays = _link_delays(net, 1)
    dst = 4
    sources = [s for s in range(net.num_nodes) if s != dst][:10]
    row = routing.path_delays([dst], delays)[0]
    assert row.shape == (net.num_nodes,)
    assert row[dst] == 0.0
    for s in sources:
        oracle = routing.pair_link_fractions(s, dst) @ delays
        np.testing.assert_allclose(row[s], oracle, rtol=RTOL)


def test_path_delays_validation():
    net, weights = _instances()[0]
    for routing_class in (Routing, ScalarRouting):
        routing = routing_class(net, weights)
        with pytest.raises(ValueError, match="shape"):
            routing.path_delays([3], np.ones(net.num_links + 1))


def test_unreachable_pair_raises_routing_error():
    net = Network(3)
    net.add_duplex_link(0, 1)
    net.add_link(1, 2)  # node 2 cannot reach anything
    delays = np.ones(net.num_links)
    demand = TrafficMatrix.from_pairs(3, [(1, 0, 1.0), (2, 0, 1.0)])
    for routing_class in (Routing, ScalarRouting):
        routing = routing_class(net, unit_weights(net.num_links))
        assert routing.path_delays([0], delays)[0].tolist() == [0.0, 1.0, np.inf]
        with pytest.raises(RoutingError, match="node 0 unreachable from node 2"):
            traffic_pair_delays(routing, demand, delays)


# ----------------------------------------------------------------------
# SLA costing on the paper configurations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_sla_delays_match_fraction_oracle(topology):
    """DP pair delays vs ``pair_link_fractions @ D`` on SLA configs.

    Violations must be identical and the penalty within ``RTOL``; a pair
    within ``THETA_MARGIN`` of the bound could legitimately flip between
    the two summation orders, so its presence fails the test outright.
    """
    config = ExperimentConfig(topology=topology, mode=SLA_MODE)
    rng = random.Random(1)
    net = build_network(topology, 1)
    high, low, _meta = build_traffic(net, config, rng)
    evaluator = DualTopologyEvaluator(net, high, low, mode=SLA_MODE)
    params = evaluator.sla_params
    settings = [(unit_weights(net.num_links),) * 2] + [
        (random_weights(net.num_links, rng), random_weights(net.num_links, rng))
        for _ in range(4)
    ]
    closest = np.inf
    for wh, wl in settings:
        evaluation = evaluator.evaluate(wh, wl)
        routing = evaluator.high_routing(wh)
        penalty, violations = 0.0, 0
        for s, t, _rate in high.pairs():
            oracle = float(routing.pair_link_fractions(s, t) @ evaluation.link_delays)
            xi = evaluation.pair_delays_ms[(s, t)]
            np.testing.assert_allclose(xi, oracle, rtol=RTOL)
            closest = min(closest, abs(xi - params.theta_ms) / params.theta_ms)
            if oracle > params.theta_ms:
                violations += 1
                penalty += params.pair_penalty(oracle)
        assert evaluation.violations == violations
        np.testing.assert_allclose(evaluation.penalty, penalty, rtol=RTOL)
    print(f"{topology}: smallest |xi - theta| / theta = {closest:.3e}")
    assert closest > THETA_MARGIN
