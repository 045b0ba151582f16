"""Structural invariance properties of the routing engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._reference import ScalarRouting
from repro.network.topology_random import random_topology
from repro.routing.state import Routing
from repro.routing.weights import random_weights
from repro.traffic.matrix import TrafficMatrix


def make_net(seed: int, nodes: int = 10, links: int = 36):
    return random_topology(num_nodes=nodes, num_directed_links=links, rng=random.Random(seed))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_weight_scaling_invariance(seed):
    """Multiplying all weights by a constant leaves routing unchanged."""
    net = make_net(seed)
    rng = random.Random(seed)
    weights = random_weights(net.num_links, rng, min_weight=1, max_weight=10)
    tm = TrafficMatrix.from_pairs(10, [(0, 7, 5.0), (3, 1, 2.0), (8, 4, 9.0)])
    loads_base = Routing(net, weights).link_loads(tm)
    loads_scaled = Routing(net, weights * 3).link_loads(tm)
    np.testing.assert_allclose(loads_base, loads_scaled)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_loads_additive_over_demands(seed):
    """Routing (TM1 + TM2) equals routing each separately and summing."""
    net = make_net(seed)
    weights = random_weights(net.num_links, random.Random(seed))
    routing = Routing(net, weights)
    tm1 = TrafficMatrix.from_pairs(10, [(0, 5, 4.0), (2, 9, 1.0)])
    tm2 = TrafficMatrix.from_pairs(10, [(0, 5, 6.0), (7, 3, 2.5)])
    combined = routing.link_loads(tm1 + tm2)
    separate = routing.link_loads(tm1) + routing.link_loads(tm2)
    np.testing.assert_allclose(combined, separate)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), src=st.integers(0, 9), dst=st.integers(0, 9))
def test_pair_fraction_entering_dst_sums_to_one(seed, src, dst):
    """All flow of a pair must arrive: fractions into dst sum to 1."""
    if src == dst:
        return
    net = make_net(seed)
    routing = Routing(net, random_weights(net.num_links, random.Random(seed)))
    fractions = routing.pair_link_fractions(src, dst)
    into_dst = sum(fractions[i] for i in net.in_link_indices(dst))
    out_of_dst = sum(fractions[i] for i in net.out_link_indices(dst))
    assert into_dst == pytest.approx(1.0)
    assert out_of_dst == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_distance_triangle_inequality(seed):
    """d(u, t) <= w(u, v) + d(v, t) for every link (u, v)."""
    net = make_net(seed)
    weights = random_weights(net.num_links, random.Random(seed))
    routing = Routing(net, weights)
    for t in range(net.num_nodes):
        dist = routing.distances_to(t)
        for link in net.links:
            assert dist[link.src] <= weights[link.index] + dist[link.dst] + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_hop_count_bounds(seed):
    """Mean ECMP hop count lies within [hop distance, num_nodes - 1]."""
    from repro.network.stats import hop_distances_from

    net = make_net(seed)
    routing = Routing(net, random_weights(net.num_links, random.Random(seed)))
    rng = random.Random(seed + 1)
    src = rng.randrange(10)
    dst = (src + 1 + rng.randrange(9)) % 10
    hops = routing.average_hop_count(src, dst)
    assert hops >= hop_distances_from(net, src)[dst] - 1e-9
    assert hops <= net.num_nodes - 1 + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_vectorized_rows_bitwise_equal_scalar(seed):
    """SoA destination rows equal the scalar loop exactly, not approximately."""
    net = make_net(seed)
    weights = random_weights(net.num_links, random.Random(seed))
    vec = Routing(net, weights)
    ref = ScalarRouting(net, weights)
    rng = random.Random(seed + 1)
    dests = [rng.randrange(net.num_nodes) for _ in range(4)]
    inj = np.zeros((len(dests), net.num_nodes))
    for i, t in enumerate(dests):
        for _ in range(4):
            u = rng.randrange(net.num_nodes)
            if u != t:
                inj[i, u] = rng.random() * 10
    np.testing.assert_array_equal(
        vec.destination_rows(dests, inj), ref.destination_rows(dests, inj)
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), src=st.integers(0, 9), dst=st.integers(0, 9))
def test_vectorized_pair_fractions_bitwise_equal_scalar(seed, src, dst):
    if src == dst:
        return
    net = make_net(seed)
    weights = random_weights(net.num_links, random.Random(seed))
    vec = Routing(net, weights)
    ref = ScalarRouting(net, weights)
    np.testing.assert_array_equal(
        vec.pair_link_fractions(src, dst), ref.pair_link_fractions(src, dst)
    )


def test_unit_weight_routing_is_min_hop(random_net):
    from repro.network.stats import hop_distances_from
    from repro.routing.weights import unit_weights

    routing = Routing(random_net, unit_weights(random_net.num_links))
    for src in (0, 11, 29):
        hops = hop_distances_from(random_net, src)
        for dst in random_net.nodes():
            if dst != src:
                assert routing.distance(src, dst) == hops[dst]
