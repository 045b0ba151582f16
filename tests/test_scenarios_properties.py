"""Executable laws of the scenario algebra (hypothesis).

* **Order-insensitivity** — composing scenarios with disjoint element
  sets lowers to the same normalized form regardless of order.  Traffic
  factors are drawn from powers of two so multiplicative transforms
  commute *exactly*, making the law bitwise, not approximate.
* **Idempotence/purity** — lowering the same scenario twice yields equal
  forms; ``compose`` of one scenario is that scenario; nested
  compositions flatten.
* **Round-trip** — ``project_loads_back`` followed by restriction to the
  surviving links is the identity, and failed links carry zero.
* **Explicit disconnection** — unroutable positive demand is always
  enumerated and accounted, never silently dropped.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology_isp import isp_topology
from repro.scenarios import (
    Compose,
    HotSpotSurge,
    LinkFailure,
    NodeFailure,
    SrlgFailure,
    TrafficScale,
    TrafficShift,
    compose,
)
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

NET = isp_topology()
PAIRS = NET.duplex_pairs()

_rng = random.Random(77)
_low = gravity_traffic_matrix(NET.num_nodes, _rng)
_high = random_high_priority(_low, density=0.1, fraction=0.3, rng=_rng)
HIGH, LOW = scale_to_utilization(NET, _high.matrix, _low, 0.5)

# Powers of two multiply exactly in binary floating point, so transforms
# built from them commute bitwise — the order-insensitivity law can then
# demand full equality instead of tolerances.
POW2 = st.sampled_from([0.25, 0.5, 2.0, 4.0])
NODES = st.integers(min_value=0, max_value=NET.num_nodes - 1)

link_failures = st.lists(
    st.sampled_from(PAIRS), min_size=1, max_size=3, unique=True
).map(lambda pairs: LinkFailure(pairs=tuple(pairs)))
node_failures = NODES.map(NodeFailure.single)
srlg_failures = st.lists(
    st.sampled_from(PAIRS), min_size=2, max_size=3, unique=True
).map(lambda pairs: SrlgFailure(pairs=tuple(pairs), name="h"))
scales = POW2.map(lambda f: TrafficScale(factor=f))
surges = st.tuples(NODES, POW2).map(
    lambda t: HotSpotSurge(node=t[0], factor=t[1])
)
shifts = st.tuples(
    NODES, NODES, st.sampled_from([0.25, 0.5, 0.75])
).filter(lambda t: t[0] != t[1]).map(
    lambda t: TrafficShift(src=t[0], dst=t[1], fraction=t[2])
)
scenarios = st.one_of(
    link_failures, node_failures, srlg_failures, scales, surges, shifts
)


def lower(scenario):
    return scenario.lower(NET, HIGH, LOW)


# ----------------------------------------------------------------------
# Composition laws
# ----------------------------------------------------------------------
@given(a=scenarios, b=scenarios)
@settings(max_examples=60, deadline=None)
def test_composition_order_insensitive_for_disjoint_elements(a, b):
    if a.element_keys(NET) & b.element_keys(NET):
        return  # overlapping elements: order may legitimately matter
    assert lower(compose(a, b)) == lower(compose(b, a))


@given(a=scenarios, b=scenarios, c=scenarios)
@settings(max_examples=40, deadline=None)
def test_composition_flattens_and_associates(a, b, c):
    nested = compose(compose(a, b), c)
    flat = compose(a, b, c)
    assert isinstance(nested, Compose) and isinstance(flat, Compose)
    assert nested.parts == flat.parts
    assert lower(nested) == lower(flat)


@given(s=scenarios)
@settings(max_examples=40, deadline=None)
def test_compose_of_one_is_the_scenario_itself(s):
    assert compose(s) is s


@given(s=scenarios)
@settings(max_examples=40, deadline=None)
def test_lowering_is_idempotent(s):
    first = lower(s)
    second = lower(s)
    assert first == second
    # Lowering through a shared projection cache is the same form too.
    cache = {}
    assert s.lower(NET, HIGH, LOW, projections=cache) == first
    assert s.lower(NET, HIGH, LOW, projections=cache) == first


@given(a=scenarios, b=scenarios)
@settings(max_examples=40, deadline=None)
def test_composed_failure_sets_are_unions(a, b):
    composed = compose(a, b)
    assert set(composed.failed_link_indices(NET)) == set(
        a.failed_link_indices(NET)
    ) | set(b.failed_link_indices(NET))


# ----------------------------------------------------------------------
# Projection round-trips
# ----------------------------------------------------------------------
@given(s=st.one_of(link_failures, node_failures, srlg_failures),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_project_loads_back_round_trips(s, seed):
    lowered = lower(s)
    projection = lowered.projection
    rng = np.random.default_rng(seed)
    loads = rng.uniform(0.0, 100.0, size=len(projection.surviving_links))
    full = lowered.project_loads_back(loads)
    assert full.shape == (NET.num_links,)
    # Restriction to the survivors is the identity...
    np.testing.assert_array_equal(
        full[projection.surviving_index_array()], loads
    )
    # ...and failed links carry exactly zero.
    assert all(full[l] == 0.0 for l in projection.failed_links)
    # Weight projection round-trips through the same index map.
    weights = rng.integers(1, 31, size=NET.num_links)
    np.testing.assert_array_equal(
        projection.project_weights(weights),
        weights[list(projection.surviving_links)],
    )


# ----------------------------------------------------------------------
# Explicit disconnected-demand handling
# ----------------------------------------------------------------------
@given(node=NODES)
@settings(max_examples=30, deadline=None)
def test_node_failure_disconnection_is_fully_accounted(node):
    lowered = lower(NodeFailure.single(node))
    demand = HIGH.demands + LOW.demands
    involving = {
        (s, t)
        for s, t in zip(*np.nonzero(demand > 0))
        if s == node or t == node
    }
    cut = set(lowered.disconnected_pairs)
    # Every positive pair touching the failed node is unroutable...
    assert involving <= cut
    # ...every listed pair had positive demand and is now zeroed...
    for s, t in cut:
        assert demand[s, t] > 0
        assert lowered.high_traffic.demands[s, t] == 0.0
        assert lowered.low_traffic.demands[s, t] == 0.0
    # ...and the lost volume is exactly the zeroed demand (summed in the
    # same row-major order and with the same numpy reduction).
    dropped = np.asarray([demand[s, t] for s, t in sorted(cut)])
    assert lowered.lost_demand == float(dropped.sum())
    # Every surviving pair is genuinely routable.
    reach = lowered.projection.reachable()
    remaining = lowered.high_traffic.demands + lowered.low_traffic.demands
    assert reach[remaining > 0].all()


@given(s=st.one_of(scales, surges, shifts))
@settings(max_examples=40, deadline=None)
def test_traffic_scenarios_disconnect_nothing(s):
    lowered = lower(s)
    assert not lowered.disconnected
    assert lowered.disconnected_pairs == ()
    assert lowered.lost_demand == 0.0
    assert lowered.projection.is_identity
    assert lowered.network is NET


# ----------------------------------------------------------------------
# Traffic-transform semantics
# ----------------------------------------------------------------------
@given(factor=POW2)
@settings(max_examples=20, deadline=None)
def test_scale_lowering_scales_totals_exactly(factor):
    lowered = lower(TrafficScale(factor=factor))
    assert lowered.high_traffic.total() == HIGH.total() * factor
    assert lowered.low_traffic.total() == LOW.total() * factor


@pytest.mark.parametrize("factor", (float("nan"), float("inf"), -1.0))
def test_traffic_factors_must_be_finite_and_non_negative(factor):
    """Both factor scenarios reject a bad factor by name when built, before
    ``0 * nan`` could land on a diagonal."""
    with pytest.raises(ValueError, match="^scale factor must be finite"):
        TrafficScale(factor=factor)
    with pytest.raises(ValueError, match="^surge factor must be finite"):
        HotSpotSurge(node=3, factor=factor)


def test_traffic_factors_must_keep_demands_finite():
    """A finite factor whose product overflows is rejected by name too, with
    no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^scale factor must keep traffic finite"):
            TrafficScale(factor=1e308).transform_traffic(HIGH, LOW)
        with pytest.raises(ValueError, match="^surge factor must keep traffic finite"):
            HotSpotSurge(node=3, factor=1e308).transform_traffic(HIGH, LOW)


@given(s=shifts)
@settings(max_examples=40, deadline=None)
def test_shift_conserves_volume_and_keeps_self_demand_rule(s):
    lowered = lower(s)
    for before, after in ((HIGH, lowered.high_traffic), (LOW, lowered.low_traffic)):
        assert after.total() == pytest.approx(before.total())
        # The dst origin cannot address itself: its demand toward src stays.
        assert after.demands[s.dst, s.src] == before.demands[s.dst, s.src]
        # Every other origin keeps exactly (1 - fraction) toward src.
        for o in range(NET.num_nodes):
            if o in (s.dst, s.src):
                continue
            moved = before.demands[o, s.src] * s.fraction
            assert after.demands[o, s.src] == before.demands[o, s.src] - moved
            assert after.demands[o, s.dst] == before.demands[o, s.dst] + moved
