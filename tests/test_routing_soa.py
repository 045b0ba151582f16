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
from hypothesis import given
from hypothesis import strategies as st

from repro._reference import ScalarRouting
from repro.network.graph import Network
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_children,
    derive_routing,
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
from repro.routing.state import Routing, active_destinations
from repro.routing.weights import random_weights, unit_weights
from repro.scenarios.projection import TopologyProjection
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.matrix import TrafficMatrix


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


def _random_family(rng):
    n = rng.randint(4, 30)
    edges = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
    return random_topology(num_nodes=n, num_directed_links=2 * edges, rng=rng)


FAMILIES = {
    "isp": lambda rng: isp_topology(),
    "random": _random_family,
    "powerlaw": lambda rng: powerlaw_topology(num_nodes=rng.randint(5, 40), rng=rng),
}


def _demands(net, rng, kind):
    """A demand matrix of one of four kinds: a gravity matrix, its sparse
    high-priority share, or random entries of random density (zero
    columns included) as a raw array or a matrix."""
    n = net.num_nodes
    if kind in ("total", "high"):
        low = gravity_traffic_matrix(n, rng)
        high = random_high_priority(low, 0.1, 0.3, rng).matrix
        return low + high if kind == "total" else high
    density = rng.choice((0.05, 0.3, 1.0))
    raw = np.array([[rng.random() * 10 if s != t and rng.random() < density else 0.0
                     for t in range(n)] for s in range(n)])
    return raw if kind == "raw" else TrafficMatrix(raw)


def _loads_or_error(routing, demands):
    try:
        return routing.link_loads(demands)
    except RoutingError as exc:
        return str(exc)


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(sorted(FAMILIES)),
    unit=st.booleans(),
    kind=st.sampled_from(("total", "high", "raw", "matrix")),
)
def test_destination_link_loads_matches_link_loads_sum(seed, family, unit, kind):
    """``link_loads`` is the active rows summed left to right from zero,
    and the interleaved scalar loop, bit for bit."""
    rng = random.Random(seed)
    net = FAMILIES[family](rng)
    weights = unit_weights(net.num_links) if unit else random_weights(net.num_links, rng)
    demands = _demands(net, rng, kind)
    routing = Routing(net, weights)
    loads = routing.link_loads(demands)
    array = demands.demands if isinstance(demands, TrafficMatrix) else demands
    active = active_destinations(array)
    total = np.zeros(net.num_links)
    for row in routing.destination_rows(active, array[:, active].T):
        total += row
    np.testing.assert_array_equal(loads, total)
    np.testing.assert_array_equal(loads, ScalarRouting(net, weights).link_loads(demands))


@given(seed=st.integers(0, 10_000), unit=st.booleans())
def test_link_loads_unreachable_error_matches_scalar(seed, unit):
    """On directed networks that need not be strongly connected, both paths
    return the same loads or raise the same ``RoutingError``."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    net = Network(n)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for u, v in sorted(rng.sample(pairs, rng.randint(n, 2 * n))):
        net.add_link(u, v)
    weights = unit_weights(net.num_links) if unit else random_weights(net.num_links, rng)
    demands = _demands(net, rng, rng.choice(("raw", "matrix")))
    got, want = (_loads_or_error(cls(net, weights), demands) for cls in (Routing, ScalarRouting))
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def test_link_loads_reports_lowest_destination_then_lowest_node():
    """No node reaches 3 or 4; both paths name the lowest unreachable
    destination first, then its lowest offending source."""
    net = Network(5)
    for u, v in ((0, 1), (1, 0), (1, 2), (2, 1), (3, 0), (4, 0)):
        net.add_link(u, v)
    demands = np.zeros((5, 5))
    demands[4, 2] = demands[3, 2] = demands[0, 4] = demands[2, 3] = demands[1, 3] = 1.0
    for routing_class in (Routing, ScalarRouting):
        with pytest.raises(RoutingError, match="^node 3 unreachable from node 1$"):
            routing_class(net, unit_weights(net.num_links)).link_loads(demands)


@pytest.mark.parametrize("bad", (-1.0, np.nan, np.inf))
def test_link_loads_rejects_negative_and_non_finite_raw_demands(bad):
    """A raw array is checked like a ``TrafficMatrix``: on a 3-node line the
    scalar loop skipped a negative source and the kernels did not."""
    net = Network(3)
    net.add_duplex_link(0, 1)
    net.add_duplex_link(1, 2)
    demands = np.zeros((3, 3))
    demands[0, 2], demands[1, 2] = bad, 4.0
    for routing_class in (Routing, ScalarRouting):
        with pytest.raises(ValueError, match="non-negative|finite"):
            routing_class(net, unit_weights(net.num_links)).link_loads(demands)


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
    parent.ensure_dags(range(net.num_nodes))
    children = _mixed_children(net, weights, parent)
    for child, routing in zip(children, derive_children(parent, children)):
        assert type(routing) is ScalarRouting  # children keep the parent's class
        unaffected = set(range(net.num_nodes)) - set(child[2].tolist())
        if child[0] is net:
            assert set(routing.soa_dag_cache()) == unaffected
            for t in unaffected:
                assert routing.soa_dag_cache()[t] is parent.soa_dag_cache()[t]
        else:
            assert routing.soa_dag_cache() == {}


def test_full_spf_cutoff_applies_to_topology_children_only():
    net, weights = _instances()[1]
    parent = Routing(net, weights)
    everything = np.arange(net.num_nodes)
    projection = TopologyProjection(net, [0])
    assert uses_full_spf(parent, projection.network, everything)
    assert not uses_full_spf(parent, projection.network, everything[:1])
    assert not uses_full_spf(parent, net, everything)


def test_derive_children_takes_child_weights_as_given(monkeypatch):
    """A child keeps the weight vector it is handed, marked read-only and not
    validated or copied again (no ``as_weight_array`` call); a weight-delta
    child's weights are the parent's with the delta applied."""
    import repro.routing.state as state

    net, weights = _instances()[1]
    parent = Routing(net, weights)
    children = _mixed_children(net, weights, parent)
    calls = []
    monkeypatch.setattr(state, "as_weight_array", lambda *args: calls.append(args))
    for child, routing in zip(children, derive_children(parent, children)):
        assert routing.weights is child[1]
        assert not routing.weights.flags.writeable
    delta = WeightDelta.single(0, int(weights[0]), int(weights[0]) % 30 + 1)
    derived, _affected = derive_routing(parent, delta)
    assert calls == []
    assert not derived.weights.flags.writeable
    np.testing.assert_array_equal(derived.weights, delta.apply(weights))


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


# ----------------------------------------------------------------------
# Per-row inputs: the rows of several routings in one pass
# ----------------------------------------------------------------------
def _routings_and_rows(seed, family, count):
    """``count`` routings on one network, each with a destination list
    (possibly empty, repeats allowed) and its injection rows."""
    rng = random.Random(seed)
    net = FAMILIES[family](rng)
    out = []
    for _ in range(count):
        routing = Routing(net, random_weights(net.num_links, rng))
        dests = [rng.randrange(net.num_nodes) for _ in range(rng.randint(0, net.num_nodes))]
        # Inject only from nodes that reach the row's destination.
        inj = _random_injections(net, rng, len(dests))
        inj[~np.isfinite(routing.distance_matrix[np.asarray(dests, dtype=np.int64)])] = 0.0
        out.append((routing, dests, inj))
    return net, out


def _assert_schedules_equal(a, b):
    assert (a.num_rows, a.num_nodes, a.num_links) == (b.num_rows, b.num_nodes, b.num_links)
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        for field in x._fields:
            assert np.array_equal(getattr(x, field), getattr(y, field)), field
    if a.load_pos is None or b.load_pos is None:
        assert a.load_pos is None and b.load_pos is None
    else:
        np.testing.assert_array_equal(a.load_pos, b.load_pos)


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(sorted(FAMILIES)),
    count=st.integers(1, 4),
)
def test_build_with_per_row_weights_equals_per_routing_builds(seed, family, count):
    """One ``build_arrays_and_schedule`` pass with one weight vector per row
    equals a separate 1-D build per routing: DAG tuples, schedule (against
    ``build_schedule`` over the separate DAGs) and accumulated rows."""
    from repro.routing.soa import (
        accumulate_rows,
        build_arrays_and_schedule,
        row_slice,
        slice_destination_dags,
    )

    net, requests = _routings_and_rows(seed, family, count)
    link_dst = net.link_destinations()
    dags, rows = [], []
    for routing, dests, inj in requests:
        dist_rows = routing.distance_matrix[np.asarray(dests, dtype=np.int64)]
        arrays, schedule = build_arrays_and_schedule(
            net, routing.weights, dist_rows, dests, link_dst
        )
        dags.append(slice_destination_dags(dests, arrays))
        rows.append(accumulate_rows(schedule, inj))
    counts = [len(dests) for _, dests, _ in requests]
    weights = np.repeat(np.stack([r.weights for r, _, _ in requests]), counts, axis=0)
    all_dests = [t for _, dests, _ in requests for t in dests]
    dist_rows = np.concatenate(
        [r.distance_matrix[np.asarray(d, dtype=np.int64)] for r, d, _ in requests]
    )
    arrays, schedule = build_arrays_and_schedule(net, weights, dist_rows, all_dests, link_dst)
    start = 0
    for routing_dags, (_, dests, _) in zip(dags, requests):
        stop = start + len(dests)
        mine = slice_destination_dags(dests, row_slice(arrays, start, stop))
        assert len(mine) == len(routing_dags)
        for x, y in zip(mine, routing_dags):
            assert x.dst == y.dst
            for field in ("indptr", "links", "order", "levels", "order_counts"):
                assert np.array_equal(getattr(x, field), getattr(y, field)), field
        start = stop
    flat = [dag for routing_dags in dags for dag in routing_dags]
    _assert_schedules_equal(schedule, build_schedule(flat, link_dst, net.num_nodes, net.num_links))
    injections = np.concatenate([inj for _, _, inj in requests])
    np.testing.assert_array_equal(accumulate_rows(schedule, injections), np.concatenate(rows))


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(sorted(FAMILIES)),
    count=st.integers(1, 4),
)
def test_mean_path_delays_with_per_row_delays_equals_separate_passes(seed, family, count):
    """One reverse pass with one delay vector per row equals a separate pass
    per routing under its own 1-D delays, bit for bit."""
    from repro.routing.soa import mean_path_delays

    net, requests = _routings_and_rows(seed, family, count)
    rng = random.Random(seed + 1)
    link_dst = net.link_destinations()
    delays = [np.array([rng.random() * 20 + 0.1 for _ in range(net.num_links)])
              for _ in requests]
    separate = [
        mean_path_delays(
            build_schedule(r.ensure_dags(d), link_dst, net.num_nodes, net.num_links), dl
        )
        for (r, d, _), dl in zip(requests, delays)
    ]
    flat = [dag for r, d, _ in requests for dag in r.ensure_dags(d)]
    schedule = build_schedule(flat, link_dst, net.num_nodes, net.num_links)
    counts = [len(d) for _, d, _ in requests]
    per_row = np.repeat(np.stack(delays), counts, axis=0)
    np.testing.assert_array_equal(
        mean_path_delays(schedule, per_row), np.concatenate(separate)
    )


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(sorted(FAMILIES)),
    count=st.integers(1, 4),
)
def test_routing_batch_passes_equal_per_routing_calls(seed, family, count):
    """``Routing.batch_destination_rows`` / ``batch_path_delays`` equal each
    routing's own ``destination_rows`` / ``path_delays``, also when several
    requests share a routing (both classes of an STR move); the deferred
    DAGs each routing keeps equal a fresh routing's."""
    net, requests = _routings_and_rows(seed, family, count)
    # A second request on every other routing, with its own destinations.
    rng = random.Random(seed + 1)
    for i, (routing, _, _) in enumerate(requests[::2]):
        dests = [rng.randrange(net.num_nodes) for _ in range(rng.randint(0, net.num_nodes))]
        inj = _random_injections(net, rng, len(dests))
        inj[~np.isfinite(routing.distance_matrix[np.asarray(dests, dtype=np.int64)])] = 0.0
        requests.insert(3 * i + 1, (routing, dests, inj))
    twins = [Routing(net, r.weights) for r, _, _ in requests]
    batched = Routing.batch_destination_rows(requests)
    for (routing, dests, inj), twin, rows in zip(requests, twins, batched):
        np.testing.assert_array_equal(rows, twin.destination_rows(dests, inj))
        fresh = Routing(net, routing.weights)
        for t in set(dests):
            x, y = routing.soa_dag_cache()[t], fresh.ensure_dags([t])[0]
            assert np.array_equal(x.links, y.links) and np.array_equal(x.order, y.order)
    rng = random.Random(seed + 2)
    delay_requests = [
        (r, d, np.array([rng.random() * 20 + 0.1 for _ in range(net.num_links)]))
        for r, d, _ in requests
    ]
    for (_, dests, delays), twin, out in zip(
        delay_requests, twins, Routing.batch_path_delays(delay_requests)
    ):
        np.testing.assert_array_equal(out, twin.path_delays(dests, delays))


def test_mean_path_delays_rejects_mismatched_delay_rows():
    from repro.routing.soa import mean_path_delays

    net, weights = _instances()[0]
    routing = Routing(net, weights)
    schedule = build_schedule(
        routing.ensure_dags([0, 1]), net.link_destinations(), net.num_nodes, net.num_links
    )
    with pytest.raises(ValueError, match="shape"):
        mean_path_delays(schedule, np.ones((3, net.num_links)))
