"""Tests for the Algorithm-2 neighborhood sampler."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lexicographic import LexCost
from repro.core.neighborhood import NeighborhoodSampler, descending_high_link_order
from repro.core.search_params import SearchParams


@pytest.fixture
def sampler():
    return NeighborhoodSampler(SearchParams(), random.Random(7))


def test_candidate_sets_sizes(sampler):
    order = list(range(50))
    sets = sampler.candidate_sets(order)
    assert len(sets.high_cost_links) == 5
    assert len(sets.low_cost_links) == 5


def test_candidate_sets_consecutive_ranks(sampler):
    order = list(range(100, 150))
    for _ in range(20):
        sets = sampler.candidate_sets(order)
        highs = [order.index(l) for l in sets.high_cost_links]
        lows = [order.index(l) for l in sets.low_cost_links]
        assert highs == list(range(highs[0], highs[0] + 5))
        assert lows == list(range(lows[0], lows[0] - 5, -1))


def test_high_set_biased_to_high_cost(sampler):
    """With tau=1.5, set A should usually start near the top of the order."""
    order = list(range(200))
    starts = []
    for _ in range(300):
        sets = sampler.candidate_sets(order)
        starts.append(order.index(sets.high_cost_links[0]))
    assert np.median(starts) < 20


def test_small_network_clamps_m():
    sampler = NeighborhoodSampler(SearchParams(neighborhood_size=10), random.Random(1))
    sets = sampler.candidate_sets(list(range(4)))
    assert len(sets.high_cost_links) == 4


def test_neighbors_count_and_changes(sampler):
    weights = np.full(50, 15, dtype=np.int64)
    neighbors = sampler.neighbors(weights, list(range(50)))
    assert len(neighbors) == 5
    for neighbor in neighbors:
        diff = np.flatnonzero(neighbor != weights)
        assert 1 <= len(diff) <= 2
        deltas = neighbor[diff] - weights[diff]
        assert np.any(deltas > 0) or np.any(deltas < 0)


def test_neighbors_respect_weight_bounds(sampler):
    low = np.full(50, 1, dtype=np.int64)
    high = np.full(50, 30, dtype=np.int64)
    for neighbor in sampler.neighbors(low, list(range(50))):
        assert np.all(neighbor >= 1)
    for neighbor in sampler.neighbors(high, list(range(50))):
        assert np.all(neighbor <= 30)


def test_neighbors_draw_without_replacement(sampler):
    weights = np.full(50, 15, dtype=np.int64)
    neighbors = sampler.neighbors(weights, list(range(50)))
    increased = []
    decreased = []
    for neighbor in neighbors:
        diff = np.flatnonzero(neighbor != weights)
        for idx in diff:
            if neighbor[idx] > weights[idx]:
                increased.append(int(idx))
            else:
                decreased.append(int(idx))
    assert len(increased) == len(set(increased))
    assert len(decreased) == len(set(decreased))


def _single_change_neighbors(sampler, weights):
    return [d.apply(weights) for d in sampler.single_change_deltas(weights, list(range(50)))]


def test_single_change_neighbors(sampler):
    weights = np.full(50, 15, dtype=np.int64)
    neighbors = _single_change_neighbors(sampler, weights)
    assert neighbors
    for neighbor in neighbors:
        diff = np.flatnonzero(neighbor != weights)
        assert len(diff) == 1
        assert 1 <= neighbor[diff[0]] <= 30


def test_single_change_skips_noop_moves():
    sampler = NeighborhoodSampler(SearchParams(), random.Random(3))
    weights = np.full(50, 1, dtype=np.int64)
    for neighbor in _single_change_neighbors(sampler, weights):
        assert not np.array_equal(neighbor, weights)


def test_input_weights_never_mutated(sampler):
    weights = np.full(50, 15, dtype=np.int64)
    original = weights.copy()
    sampler.neighbors(weights, list(range(50)))
    _single_change_neighbors(sampler, weights)
    np.testing.assert_array_equal(weights, original)


@pytest.mark.parametrize("method", ("neighbor_deltas", "neighbors", "single_change_deltas"))
def test_fractional_base_rejected_naming_the_link(method):
    """A fractional base raises before any draw, where an int64 cast
    truncated it (``3.5`` moved from ``3``)."""
    rng = random.Random(1)
    sample = getattr(NeighborhoodSampler(SearchParams(), rng), method)
    state = rng.getstate()
    with pytest.raises(ValueError, match="link 0: weight 3.5 is not an integer"):
        sample(np.array([3.5, 4.0, 5.0, 6.0]), [0, 1, 2, 3])
    with pytest.raises(ValueError, match="link 2: weight nan is not an integer"):
        sample([4, 5, math.nan, 6], [0, 1, 2, 3])
    assert rng.getstate() == state
    assert sample(np.array([3.0, 4.0, 5.0, 6.0]), [0, 1, 2, 3])


# ----------------------------------------------------------------------
# FindH / STR link order
# ----------------------------------------------------------------------
_COSTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 2.5, math.inf)),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)


@given(st.lists(st.tuples(_COSTS, _COSTS), max_size=40))
def test_descending_high_link_order_is_the_lexcost_sort(costs):
    """The lexsort order equals sorting the ``LexCost`` keys in reverse, ties
    (zeros, repeated values, ``inf``) by ascending link index."""
    primary = np.array([p for p, _ in costs], dtype=float)
    secondary = np.array([s for _, s in costs], dtype=float)
    evaluation = SimpleNamespace(high_link_costs=lambda: (primary, secondary))
    keys = [LexCost(p, s) for p, s in costs]
    expected = sorted(range(len(keys)), key=lambda i: keys[i], reverse=True)
    assert descending_high_link_order(evaluation) == expected


@pytest.mark.parametrize("mode", ("load", "sla"))
def test_descending_high_link_order_matches_sort_keys(mode):
    from repro.api import Session
    from repro.eval.experiment import ExperimentConfig
    from repro.routing.weights import random_weights

    session = Session.from_config(ExperimentConfig(topology="isp", mode=mode, seed=3))
    weights = random_weights(session.network.num_links, random.Random(3))
    evaluation = session.evaluator.evaluate_str(weights)
    keys = evaluation.high_link_sort_keys()
    expected = sorted(range(len(keys)), key=lambda i: keys[i], reverse=True)
    assert descending_high_link_order(evaluation) == expected
