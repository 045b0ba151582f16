"""Bit-identity of the struct-of-arrays kernels against the scalar loop.

The vectorized numeric core (:mod:`repro.routing.soa`, the batched mask
and Dijkstra helpers in :mod:`repro.routing.spf`, and the parent-to-child
derivation in :mod:`repro.routing.incremental`) promises *exact* — not
approximate — agreement with the scalar reference path
(:class:`repro._reference.ScalarRouting`) and with from-scratch solves.
Every test here asserts ``np.array_equal`` / ``==``, never ``allclose``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro._reference import ScalarRouting
from repro.network.graph import Network
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_children,
    destinations_using_links,
    uses_full_spf,
)
from repro.routing.soa import build_schedule
from repro.routing.spf import (
    RoutingError,
    distances_to_all,
    distances_to_subset,
    distances_to_subsets_batched,
    shortest_path_dag_mask,
    shortest_path_dag_masks,
)
from repro.routing.state import Routing
from repro.routing.weights import random_weights, unit_weights
from repro.scenarios.projection import TopologyProjection


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


def _random_injections(net, rng, k):
    """k injection rows with a mix of dense, sparse, and zero entries."""
    n = net.num_nodes
    inj = np.zeros((k, n))
    for i in range(k):
        style = i % 3
        if style == 0:
            inj[i] = [rng.random() * 10 for _ in range(n)]
        elif style == 1:
            for _ in range(3):
                inj[i, rng.randrange(n)] = rng.random() * 5
        # style 2: all-zero row — must produce an all-zero load row.
    return inj


# ----------------------------------------------------------------------
# Kernel vs scalar reference
# ----------------------------------------------------------------------
def test_destination_rows_bitwise_equal_scalar():
    for net, weights in _instances():
        vec = Routing(net, weights)
        ref = ScalarRouting(net, weights)
        rng = random.Random(net.num_links)
        dests = [rng.randrange(net.num_nodes) for _ in range(8)]
        inj = _random_injections(net, rng, len(dests))
        inj[np.arange(len(dests)), dests] = 0.0
        got = vec.destination_rows(dests, inj)
        want = ref.destination_rows(dests, inj)
        assert got.shape == want.shape == (len(dests), net.num_links)
        np.testing.assert_array_equal(got, want)


def test_destination_rows_handles_repeated_destinations():
    net, weights = _instances()[0]
    vec = Routing(net, weights)
    ref = ScalarRouting(net, weights)
    rng = random.Random(0)
    dests = [5, 5, 9, 5]
    inj = _random_injections(net, rng, len(dests))
    inj[:, 5] = 0.0
    inj[:, 9] = 0.0
    np.testing.assert_array_equal(
        vec.destination_rows(dests, inj), ref.destination_rows(dests, inj)
    )


def test_destination_rows_empty_batch():
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    out = routing.destination_rows([], np.empty((0, net.num_nodes)))
    assert out.shape == (0, net.num_links)


def test_destination_link_loads_matches_link_loads_sum():
    """Summing vectorized per-destination rows reproduces link_loads."""
    for net, weights in _instances()[:2]:
        routing = Routing(net, weights)
        rng = random.Random(1)
        demands = np.zeros((net.num_nodes, net.num_nodes))
        for _ in range(25):
            s, t = rng.sample(range(net.num_nodes), 2)
            demands[s, t] = rng.random() * 8
        active = np.flatnonzero(demands.sum(axis=0) > 0)
        rows = routing.destination_rows(active, demands[:, active].T)
        total = np.zeros(net.num_links)
        for row in rows:
            total += row
        np.testing.assert_allclose(total, routing.link_loads(demands))


def test_pair_fractions_bitwise_equal_scalar():
    for net, weights in _instances():
        vec = Routing(net, weights)
        ref = ScalarRouting(net, weights)
        rng = random.Random(2)
        for _ in range(6):
            s, t = rng.sample(range(net.num_nodes), 2)
            np.testing.assert_array_equal(
                vec.pair_link_fractions(s, t), ref.pair_link_fractions(s, t)
            )


def test_pair_fraction_rows_match_single_pair_calls():
    net, weights = _instances()[1]
    routing = Routing(net, weights)
    dst = 4
    sources = [s for s in range(net.num_nodes) if s != dst][:10]
    rows = routing.pair_fraction_rows(dst, sources)
    assert rows.shape == (len(sources), net.num_links)
    for i, s in enumerate(sources):
        np.testing.assert_array_equal(rows[i], routing.pair_link_fractions(s, dst))
    assert routing.pair_fraction_rows(dst, []).shape == (0, net.num_links)


def test_pair_fraction_rows_validation():
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    with pytest.raises(ValueError, match="differ"):
        routing.pair_fraction_rows(3, [0, 3])


def test_dag_out_links_csr_matches_mask_path():
    for net, weights in _instances()[:3]:
        vec = Routing(net, weights)
        ref = ScalarRouting(net, weights)
        for dst in range(0, net.num_nodes, 5):
            assert vec.dag_out_links(dst) == ref.dag_out_links(dst)


def test_unreachable_error_message_matches_scalar():
    net = Network(3)
    net.add_duplex_link(0, 1)
    net.add_link(1, 2)  # node 2 cannot reach anything
    inj = np.zeros((1, 3))
    inj[0, 2] = 1.0
    messages = []
    for routing_class in (Routing, ScalarRouting):
        routing = routing_class(net, unit_weights(3))
        with pytest.raises(RoutingError) as err:
            routing.destination_rows([0], inj)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "node 0 unreachable from node 2" in messages[0]


def test_injection_shape_validated():
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    with pytest.raises(ValueError, match="shape"):
        routing.destination_rows([0, 1], np.zeros((3, net.num_nodes)))


# ----------------------------------------------------------------------
# Batched masks and Dijkstra
# ----------------------------------------------------------------------
def test_dag_masks_broadcast_equals_per_destination():
    for net, weights in _instances()[:4]:
        routing = Routing(net, weights)
        dist = routing.distance_matrix
        dests = np.arange(net.num_nodes)
        masks = shortest_path_dag_masks(net, weights, dist[dests])
        assert masks.shape == (net.num_nodes, net.num_links)
        for t in dests:
            np.testing.assert_array_equal(
                masks[t], shortest_path_dag_mask(net, weights, dist[t])
            )


def test_batched_dijkstra_equals_per_task():
    rng = random.Random(17)
    tasks = []
    for net, weights in _instances()[:4]:
        dests = np.asarray(
            sorted(rng.sample(range(net.num_nodes), 5)), dtype=np.int64
        )
        tasks.append((net, weights, dests))
    # Include an empty subset: its block must come back with zero rows.
    empty_net, empty_w = _instances()[0]
    tasks.append((empty_net, empty_w, np.empty(0, dtype=np.int64)))
    blocks = distances_to_subsets_batched(tasks)
    assert len(blocks) == len(tasks)
    for (net, weights, dests), block in zip(tasks, blocks):
        if dests.size == 0:
            assert block.shape == (0, net.num_nodes)
            continue
        np.testing.assert_array_equal(
            block, distances_to_subset(net, weights, dests)
        )


def test_batched_dijkstra_all_empty():
    net, weights = _instances()[0]
    blocks = distances_to_subsets_batched(
        [(net, weights, np.empty(0, dtype=np.int64))] * 2
    )
    assert all(b.shape == (0, net.num_nodes) for b in blocks)


# ----------------------------------------------------------------------
# Parent-to-child derivation
# ----------------------------------------------------------------------
def _mixed_children(net, weights, parent):
    """Weight-delta and topology-delta children of one parent."""
    rng = random.Random(23)
    children = []
    while len(children) < 6:
        link = rng.randrange(net.num_links)
        new_w = rng.randint(1, 30)
        if new_w != weights[link]:
            delta = WeightDelta.single(link, int(weights[link]), new_w)
            affected = affected_destinations(net, parent.distance_matrix, delta)
            children.append((net, delta.apply(weights), affected))
    for u, v in net.duplex_pairs()[:3]:
        failed = [l.index for l in net.links if {l.src, l.dst} == {u, v}]
        projection = TopologyProjection(net, failed)
        affected = destinations_using_links(
            net, parent.distance_matrix, weights, failed
        )
        children.append(
            (projection.network, projection.project_weights(weights), affected)
        )
    # Every destination affected: a weight child still re-solves the
    # affected rows, a topology child is past the full-SPF cutoff.
    everything = np.arange(net.num_nodes)
    children.append((net, weights, everything))
    children.append((projection.network, projection.project_weights(weights), everything))
    return children


def test_derive_children_batch_equals_single_calls():
    """One multi-child call equals one call per child, bit for bit."""
    net, weights = _instances()[1]
    parent = Routing(net, weights)
    parent.destination_rows([0, 1], np.ones((2, net.num_nodes)))  # warm DAGs
    children = _mixed_children(net, weights, parent)
    batched = derive_children(parent, children)
    assert len(batched) == len(children)
    for child, routing in zip(children, batched):
        (single,) = derive_children(parent, [child])
        np.testing.assert_array_equal(routing.distance_matrix, single.distance_matrix)
        np.testing.assert_array_equal(routing.weights, single.weights)
        assert routing.network is single.network is child[0]
        np.testing.assert_array_equal(
            routing.distance_matrix, distances_to_all(child[0], child[1])
        )


def test_derive_children_shares_dags_exactly_when_link_space_kept():
    net, weights = _instances()[1]
    parent = ScalarRouting(net, weights)
    for t in range(net.num_nodes):
        parent.dag_out_links(t)
    parent.ensure_dags(range(net.num_nodes))
    children = _mixed_children(net, weights, parent)
    for child, routing in zip(children, derive_children(parent, children)):
        assert type(routing) is ScalarRouting  # children keep the parent's class
        unaffected = set(range(net.num_nodes)) - set(child[2].tolist())
        if child[0] is net:
            assert set(routing.dag_cache()) == unaffected
            assert set(routing.soa_dag_cache()) == unaffected
            for t in unaffected:
                assert routing.dag_cache()[t] is parent.dag_cache()[t]
                assert routing.soa_dag_cache()[t] is parent.soa_dag_cache()[t]
        else:
            assert routing.dag_cache() == {}
            assert routing.soa_dag_cache() == {}


def test_full_spf_cutoff_applies_to_topology_children_only():
    net, weights = _instances()[1]
    parent = Routing(net, weights)
    everything = np.arange(net.num_nodes)
    projection = TopologyProjection(net, [0])
    assert uses_full_spf(parent, projection.network, everything)
    assert not uses_full_spf(parent, projection.network, everything[:1])
    assert not uses_full_spf(parent, net, everything)


def test_derive_children_empty():
    net, weights = _instances()[0]
    assert derive_children(Routing(net, weights), []) == []


# ----------------------------------------------------------------------
# Shared-state contracts
# ----------------------------------------------------------------------
def test_distance_matrix_is_read_only():
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    with pytest.raises(ValueError, match="read-only"):
        routing.distance_matrix[0, 0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        routing.distances_to(0)[1] = 99.0


def test_from_precomputed_distance_matrix_is_read_only():
    net, weights = _instances()[0]
    parent = Routing(net, weights)
    dist = parent.distance_matrix.copy()
    child = Routing.from_precomputed(net, weights, dist)
    with pytest.raises(ValueError, match="read-only"):
        child.distance_matrix[0, 0] = 99.0


def test_schedule_shares_dag_cache_across_calls():
    """Repeated batched calls reuse the per-destination CSR DAGs."""
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    inj = np.zeros((2, net.num_nodes))
    inj[0, 1] = 1.0
    inj[1, 2] = 1.0
    routing.destination_rows([5, 6], inj)
    first = dict(routing.soa_dag_cache())
    routing.destination_rows([5, 6], inj)
    for t, dag in routing.soa_dag_cache().items():
        assert first[t] is dag


def test_build_schedule_rejects_mismatched_dims():
    net, weights = _instances()[0]
    routing = Routing(net, weights)
    dags = routing.ensure_dags([0])
    schedule = build_schedule(
        dags, net.link_destinations(), net.num_nodes, net.num_links
    )
    from repro.routing.soa import accumulate_rows

    with pytest.raises(ValueError, match="shape"):
        accumulate_rows(schedule, np.zeros((2, net.num_nodes)))
