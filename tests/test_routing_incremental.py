"""Tests for the incremental-SPF primitives (routing.incremental)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.network.graph import Network
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_children,
    derive_routing,
)
from repro.routing.spf import distances_to_all, distances_to_subset
from repro.routing.state import Routing
from repro.routing.weights import random_weights, unit_weights


class TestWeightDelta:
    def test_single(self):
        delta = WeightDelta.single(3, 5, 9)
        assert delta.changes == ((3, 5, 9),)
        assert delta.num_changes == 1
        assert delta.links() == (3,)

    def test_from_weights(self):
        old = np.array([1, 2, 3, 4], dtype=np.int64)
        new = np.array([1, 7, 3, 2], dtype=np.int64)
        delta = WeightDelta.from_weights(old, new)
        assert delta.changes == ((1, 2, 7), (3, 4, 2))

    def test_from_weights_empty(self):
        w = np.array([1, 2, 3], dtype=np.int64)
        delta = WeightDelta.from_weights(w, w.copy())
        assert delta.num_changes == 0
        np.testing.assert_array_equal(delta.apply(w), w)

    def test_from_weights_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WeightDelta.from_weights(np.ones(3), np.ones(4))

    def test_apply(self):
        delta = WeightDelta.single(1, 2, 9)
        out = delta.apply(np.array([5, 2, 7], dtype=np.int64))
        np.testing.assert_array_equal(out, [5, 9, 7])

    def test_apply_does_not_mutate(self):
        weights = np.array([5, 2, 7], dtype=np.int64)
        WeightDelta.single(1, 2, 9).apply(weights)
        np.testing.assert_array_equal(weights, [5, 2, 7])

    def test_apply_wrong_parent_rejected(self):
        delta = WeightDelta.single(1, 2, 9)
        with pytest.raises(ValueError, match="expects weight 2"):
            delta.apply(np.array([5, 3, 7], dtype=np.int64))

    def test_noop_change_rejected(self):
        with pytest.raises(ValueError, match="no-op"):
            WeightDelta.single(0, 4, 4)

    def test_duplicate_links_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightDelta(changes=((0, 1, 2), (0, 2, 3)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightDelta.single(0, 1, 0)

    def test_fractional_weight_rejected_naming_the_link(self):
        with pytest.raises(ValueError, match="link 3: weight 7.9 is not an integer"):
            WeightDelta.single(3, 1.0, 7.9)
        with pytest.raises(ValueError, match="link 1: weight 2.5 is not an integer"):
            WeightDelta.from_weights([1, 2, 3], [1, 2.5, 3])
        with pytest.raises(ValueError, match="link 0: weight inf is not an integer"):
            WeightDelta.from_weights([np.inf, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="link 0: weight 1.5 is not an integer"):
            WeightDelta(changes=((0, 1.5, 2),))

    def test_integral_numbers_accepted(self):
        assert WeightDelta.single(np.int64(3), 1.0, np.float64(7)).changes == ((3, 1, 7),)
        assert WeightDelta.from_weights([1.0, 2.0], [1.0, 5.0]).changes == ((1, 2, 5),)

    def test_bad_link_index_rejected(self):
        with pytest.raises(ValueError, match="link -1: negative index"):
            WeightDelta.single(-1, 1, 7)
        with pytest.raises(ValueError, match="link 1.5: index 1.5 is not an integer"):
            WeightDelta.single(1.5, 1, 7)

    def test_apply_fractional_base_rejected_naming_the_link(self):
        delta = WeightDelta.single(0, 1, 2)
        with pytest.raises(ValueError, match="link 1: weight 2.7 is not an integer"):
            delta.apply(np.array([1.0, 2.7]))
        with pytest.raises(ValueError, match="link 1: weight inf is not an integer"):
            delta.apply([1, np.inf])
        out = delta.apply(np.array([1.0, 2.0]))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [2, 2])

    def test_apply_link_outside_vector_rejected(self):
        with pytest.raises(ValueError, match="link 5 outside a vector of 3 weights"):
            WeightDelta.single(5, 3, 4).apply(np.array([1, 2, 3]))

    def test_changes_sorted_by_link(self):
        delta = WeightDelta(changes=((5, 1, 2), (2, 3, 4)))
        assert delta.links() == (2, 5)


class TestAffectedDestinations:
    def test_increase_off_dag_affects_nothing(self, line4):
        # On a chain, links of the 3->0 direction never serve destination 3.
        weights = unit_weights(line4.num_links)
        dist = distances_to_all(line4, weights)
        backward = line4.link_between(1, 0).index
        delta = WeightDelta.single(backward, 1, 10)
        affected = affected_destinations(line4, dist, delta)
        assert 3 not in affected
        assert 0 in affected  # the link is on every SP toward node 0

    def test_increase_on_dag_affects_destination(self, line4):
        weights = unit_weights(line4.num_links)
        dist = distances_to_all(line4, weights)
        forward = line4.link_between(2, 3).index
        delta = WeightDelta.single(forward, 1, 10)
        affected = affected_destinations(line4, dist, delta)
        assert 3 in affected

    def test_decrease_creating_shortcut(self, diamond):
        # Make path 0-1-3 strictly longer, then drop (1, 3) back so it ties.
        weights = unit_weights(diamond.num_links)
        link = diamond.link_between(1, 3).index
        weights = weights.copy()
        weights[link] = 3
        dist = distances_to_all(diamond, weights)
        delta = WeightDelta.single(link, 3, 1)
        affected = affected_destinations(diamond, dist, delta)
        assert 3 in affected

    def test_decrease_that_stays_uncompetitive(self, diamond):
        weights = unit_weights(diamond.num_links).copy()
        link = diamond.link_between(1, 3).index
        weights[link] = 10
        dist = distances_to_all(diamond, weights)
        # 10 -> 5 still loses to the 2-hop path through node 2 for every
        # destination, and node 3 itself is reached directly.
        delta = WeightDelta.single(link, 10, 5)
        affected = affected_destinations(diamond, dist, delta)
        assert affected.size == 0

    def test_unaffected_rows_truly_unchanged(self, powerlaw_net):
        rng = random.Random(7)
        weights = random_weights(powerlaw_net.num_links, rng)
        dist = distances_to_all(powerlaw_net, weights)
        for _ in range(40):
            link = rng.randrange(powerlaw_net.num_links)
            new_w = rng.randint(1, 30)
            if new_w == weights[link]:
                continue
            delta = WeightDelta.single(link, int(weights[link]), new_w)
            affected = affected_destinations(powerlaw_net, dist, delta)
            fresh = distances_to_all(powerlaw_net, delta.apply(weights))
            unaffected = np.setdiff1d(np.arange(powerlaw_net.num_nodes), affected)
            np.testing.assert_array_equal(dist[unaffected], fresh[unaffected])


class TestIncrementalDistances:
    """Distance rows of :func:`derive_children`, the one derivation path."""

    def test_matches_full_recompute(self, random_net):
        rng = random.Random(11)
        weights = random_weights(random_net.num_links, rng)
        parent = Routing(random_net, weights)
        dist = parent.distance_matrix
        for _ in range(25):
            link = rng.randrange(random_net.num_links)
            new_w = rng.randint(1, 30)
            if new_w == weights[link]:
                continue
            delta = WeightDelta.single(link, int(weights[link]), new_w)
            new_weights = delta.apply(weights)
            affected = affected_destinations(random_net, dist, delta)
            (child,) = derive_children(parent, [(random_net, new_weights, affected)])
            np.testing.assert_array_equal(
                child.distance_matrix, distances_to_all(random_net, new_weights)
            )

    def test_empty_affected_copies_parent(self, diamond):
        weights = unit_weights(diamond.num_links)
        parent = Routing(diamond, weights)
        (child,) = derive_children(
            parent, [(diamond, weights, np.array([], dtype=np.int64))]
        )
        out, dist = child.distance_matrix, parent.distance_matrix
        assert out is not dist  # fresh matrix: no aliasing with the parent
        np.testing.assert_array_equal(out, dist)

    def test_subset_rows_match_full(self, isp_net):
        weights = random_weights(isp_net.num_links, random.Random(3))
        full = distances_to_all(isp_net, weights)
        subset = np.array([0, 5, 11], dtype=np.int64)
        np.testing.assert_array_equal(
            distances_to_subset(isp_net, weights, subset), full[subset]
        )


class TestDeriveRouting:
    @pytest.mark.parametrize("topology", ["isp_net", "random_net", "powerlaw_net"])
    def test_equivalent_to_fresh_routing(self, topology, request):
        net: Network = request.getfixturevalue(topology)
        rng = random.Random(23)
        weights = random_weights(net.num_links, rng)
        parent = Routing(net, weights)
        for t in range(net.num_nodes):
            parent.dag_out_links(t)
        for _ in range(20):
            link = rng.randrange(net.num_links)
            new_w = rng.randint(1, 30)
            if new_w == weights[link]:
                continue
            delta = WeightDelta.single(link, int(weights[link]), new_w)
            child, _affected = derive_routing(parent, delta)
            fresh = Routing(net, delta.apply(weights))
            np.testing.assert_array_equal(child.distance_matrix, fresh.distance_matrix)
            for t in range(net.num_nodes):
                assert child.dag_out_links(t) == fresh.dag_out_links(t)

    def test_two_link_delta(self, powerlaw_net):
        rng = random.Random(31)
        weights = random_weights(powerlaw_net.num_links, rng)
        parent = Routing(powerlaw_net, weights)
        for _ in range(15):
            a, b = rng.sample(range(powerlaw_net.num_links), 2)
            new_a, new_b = rng.randint(1, 30), rng.randint(1, 30)
            changes = tuple(
                (l, int(weights[l]), w)
                for l, w in ((a, new_a), (b, new_b))
                if int(weights[l]) != w
            )
            if not changes:
                continue
            delta = WeightDelta(changes=changes)
            child, _affected = derive_routing(parent, delta)
            fresh = Routing(powerlaw_net, delta.apply(weights))
            np.testing.assert_array_equal(child.distance_matrix, fresh.distance_matrix)
            for t in range(powerlaw_net.num_nodes):
                assert child.dag_out_links(t) == fresh.dag_out_links(t)

    def test_unaffected_state_is_shared(self, isp_net):
        weights = unit_weights(isp_net.num_links)
        parent = Routing(isp_net, weights)
        parent.ensure_dags(range(isp_net.num_nodes))
        delta = WeightDelta.single(0, 1, 2)
        child, affected = derive_routing(parent, delta)
        affected_set = set(int(t) for t in affected)
        shared = [
            t
            for t in range(isp_net.num_nodes)
            if t not in affected_set
            and child.soa_dag_cache().get(t) is parent.soa_dag_cache()[t]
        ]
        assert shared, "expected at least one reused DAG"

    def test_loads_match_fresh_routing(self, isp_net, small_traffic):
        high, _low = small_traffic
        rng = random.Random(17)
        weights = random_weights(isp_net.num_links, rng)
        parent = Routing(isp_net, weights)
        for _ in range(10):
            link = rng.randrange(isp_net.num_links)
            new_w = rng.randint(1, 30)
            if new_w == weights[link]:
                continue
            delta = WeightDelta.single(link, int(weights[link]), new_w)
            child, _ = derive_routing(parent, delta)
            fresh = Routing(isp_net, delta.apply(weights))
            np.testing.assert_array_equal(
                child.link_loads(high), fresh.link_loads(high)
            )
