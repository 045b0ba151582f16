"""Sliced sub-networks (``Network.sub_network``) against link-by-link builds.

Failures and scenario projections slice the surviving network out of the
intact network's arrays.  Every observable of the slice must equal the
network built the old way, one ``add_link`` per surviving link in intact
order: arrays, CSR structures, connectivity, isolated nodes, adjacency,
``Link`` objects and equality.  The array-level checks run before any
``Link``-level accessor, so they see the slice before its link objects
exist.  CI runs this file under ``-W error::RuntimeWarning``; an
isolated node is where a 0/0 would show.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.network.failures import remove_adjacency
from repro.network.graph import Network
from repro.scenarios.projection import TopologyProjection

FAMILIES = ["isp_net", "random_net", "powerlaw_net"]


def _built(net: Network, keep: np.ndarray) -> Network:
    """The surviving network built link by link, in intact order."""
    ref = Network(net.num_nodes, name="built")
    for link in net.links:
        if keep[link.index]:
            ref.add_link(link.src, link.dst, link.capacity_mbps, link.prop_delay_ms)
    return ref


def _keep_masks(net: Network) -> dict[str, np.ndarray]:
    """Random failure sets, one node's links, no failure and every link."""
    rng = random.Random(11)
    m = net.num_links
    masks = {"none-failed": np.ones(m, dtype=bool), "all-failed": np.zeros(m, dtype=bool)}
    for size in (1, 2, 5, m // 3):
        keep = np.ones(m, dtype=bool)
        keep[rng.sample(range(m), size)] = False
        masks[f"random-{size}"] = keep
    node = max(net.nodes(), key=net.degree)
    keep = np.ones(m, dtype=bool)
    keep[net.out_link_indices(node) + net.in_link_indices(node)] = False
    masks[f"isolate-{node}"] = keep
    return masks


def _assert_same_arrays(sub: Network, ref: Network) -> None:
    pairs = [
        (sub.link_sources(), ref.link_sources()),
        (sub.link_destinations(), ref.link_destinations()),
        (sub.capacities(), ref.capacities()),
        (sub.prop_delays(), ref.prop_delays()),
        *zip(sub.forward_csr_structure(), ref.forward_csr_structure()),
        *zip(sub.reverse_csr_structure(), ref.reverse_csr_structure()),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _assert_same_links(sub: Network, ref: Network) -> None:
    assert sub.links == ref.links
    for node in ref.nodes():
        assert sub.out_link_indices(node) == ref.out_link_indices(node)
        assert sub.in_link_indices(node) == ref.in_link_indices(node)
        assert sub.out_links(node) == ref.out_links(node)
        assert sub.in_links(node) == ref.in_links(node)
        assert sub.neighbors(node) == ref.neighbors(node)
    for src in ref.nodes():
        for dst in ref.nodes():
            assert sub.link_between(src, dst) == ref.link_between(src, dst)
            assert sub.has_link(src, dst) == ref.has_link(src, dst)
    assert sub.duplex_pairs() == ref.duplex_pairs()


@pytest.mark.parametrize("family", FAMILIES)
def test_slice_equals_the_link_by_link_build(family, request):
    net = request.getfixturevalue(family)
    for label, keep in _keep_masks(net).items():
        sub = net.sub_network(keep, name="sliced")
        ref = _built(net, keep)
        assert sub.num_nodes == ref.num_nodes
        assert sub.num_links == ref.num_links == int(keep.sum()), label
        _assert_same_arrays(sub, ref)
        assert sub.is_strongly_connected() == ref.is_strongly_connected(), label
        failed = np.flatnonzero(~keep).tolist()
        isolated = tuple(
            n for n in ref.nodes()
            if not ref.out_link_indices(n) and not ref.in_link_indices(n)
        )
        assert TopologyProjection(net, failed).isolated_nodes() == isolated, label
        assert sub == ref and ref == sub
        _assert_same_links(sub, ref)
        assert sub.name == "sliced"


def test_connectivity_reads_both_directions():
    """Reaching every node forward but not backward is not strong."""
    net = Network(3)
    for src, dst in ((0, 1), (0, 2), (1, 2), (2, 1)):
        net.add_link(src, dst)
    keep = np.ones(net.num_links, dtype=bool)
    assert not net.sub_network(keep).is_strongly_connected()
    net.add_link(1, 0)
    assert net.sub_network(np.ones(net.num_links, dtype=bool)).is_strongly_connected()


@pytest.mark.parametrize("family", FAMILIES)
def test_remove_adjacency_equals_the_link_by_link_build(family, request):
    net = request.getfixturevalue(family)
    u, v = net.duplex_pairs()[len(net.duplex_pairs()) // 2]
    scenario = remove_adjacency(net, u, v)
    keep = np.ones(net.num_links, dtype=bool)
    keep[[net.link_between(u, v).index, net.link_between(v, u).index]] = False
    ref = _built(net, keep)
    _assert_same_arrays(scenario.network, ref)
    assert scenario.surviving_links == tuple(np.flatnonzero(keep).tolist())
    assert scenario.network == ref
    _assert_same_links(scenario.network, ref)


@pytest.mark.parametrize("materialize", [False, True])
def test_pickle_round_trip(isp_net, materialize):
    keep = _keep_masks(isp_net)["random-5"]
    sub = isp_net.sub_network(keep)
    if materialize:
        sub.links  # noqa: B018 - build the link objects before pickling
    back = pickle.loads(pickle.dumps(sub))
    ref = _built(isp_net, keep)
    _assert_same_arrays(back, ref)
    assert back == ref
    _assert_same_links(back, ref)


def test_add_link_on_a_slice_extends_it_and_clears_its_caches(isp_net):
    keep = np.ones(isp_net.num_links, dtype=bool)
    dropped = isp_net.link_between(0, 4)
    keep[dropped.index] = False
    sub = isp_net.sub_network(keep)
    ref = _built(isp_net, keep)
    sub.forward_csr_structure()  # cached before the add
    link = sub.add_link(0, 4, capacity_mbps=123.0, prop_delay_ms=4.5)
    ref.add_link(0, 4, capacity_mbps=123.0, prop_delay_ms=4.5)
    assert link.index == sub.num_links - 1 == isp_net.num_links - 1
    assert sub.link(link.index) is link
    assert sub.capacities()[-1] == 123.0
    _assert_same_arrays(sub, ref)
    _assert_same_links(sub, ref)
    with pytest.raises(ValueError, match="already exists"):
        sub.add_link(0, 4)


@pytest.mark.parametrize(
    "keep",
    [
        [True] * 70,
        np.ones(70, dtype=np.int64),
        np.ones(69, dtype=bool),
        np.ones((70, 1), dtype=bool),
    ],
    ids=["list", "int-dtype", "short", "2d"],
)
def test_keep_mask_must_be_a_boolean_vector_of_link_length(isp_net, keep):
    assert isp_net.num_links == 70
    with pytest.raises(ValueError, match="boolean array of shape"):
        isp_net.sub_network(keep)
