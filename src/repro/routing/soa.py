"""Struct-of-arrays kernels for batched ECMP load accumulation.

The scalar reference loop (:class:`repro._reference.ScalarRouting`) walks
one destination's shortest-path DAG in pure Python: nodes in decreasing
distance order, each node's accumulated flow split evenly over its DAG
out-links.  This module replays exactly that computation as numpy
gather/scatter kernels over *many* rows at once, where a row is one
``(destination, injection-vector)`` pair — the per-destination load rows
every load pass sums (:meth:`repro.routing.state.ClassLoads.refresh`),
and single-pair fraction rows for what-if queries.
:func:`mean_path_delays` runs the same schedule backwards for the SLA
costing: the mean ECMP path delay from every node to each row's
destination (see "The reverse pass" below).

Bit-identity contract
---------------------
The kernels are **bit-identical** to the scalar loop, not merely close,
because every floating-point operation is reproduced with the same
operands in the same per-slot order:

* Link weights are integers ``>= 1``, so equal-distance nodes are never
  DAG-connected and nodes of one *distance level* can be processed in
  lockstep: their flow updates only reach strictly closer levels.
* Within a level, the scalar loop's update sequence is (node order,
  ascending link within node); the schedule flattens the level in the
  same order, so per-slot addition order is preserved.
* Per-link load slots are written exactly once across the whole run (a
  link has one source node, which occupies one level of one row), and
  the loads never feed back into the flow recursion — so all per-level
  contributions can be scattered in a single fancy ``+=`` at the end.
  Each slot still receives exactly the one ``0.0 + share`` addition the
  scalar loop performs.  Per-node flow slots can receive several
  additions within one level; those are applied with ``np.add.at``,
  whose unbuffered semantics perform the additions one by one in
  operand order — so each slot receives its contributions in exactly
  the scalar sequence.
* The scalar loop skips zero-flow nodes; the kernels do not.  Demands
  and injections are validated finite and non-negative where they enter
  (``TrafficMatrix``, ``Routing.destination_rows``), so a skipped node
  contributes ``+0.0`` shares, and ``x + 0.0`` is bitwise ``x`` for every
  non-negative ``x``.

Rows are independent (each row owns a disjoint slice of the flat flow
and load buffers), so any set of destinations — including the same
destination repeated with different injections, or the rows of several
routings, each built from its own weight vector — batches into one
schedule.  :func:`build_schedule` compiles every schedule straight from
distance rows and weights; :class:`DestinationDag` tuples are built only
for the path queries.

The reverse pass
----------------
Even ECMP splitting makes a pair's mean delay linear over the DAG:
``E_t(t) = 0`` and ``E_t(v) = (sum over DAG out-links l = (v -> u), in
ascending link order, of (D_l + E_t(u))) / outdeg_t(v)``.  Walking the
steps closest level first, every ``E_t(u)`` a step reads was written by
an earlier step, so one pass yields ``xi(s, t) = E_t(s)`` for every
source at once.  Each node's sum starts at ``0.0`` and adds its
out-links in ascending link order whatever the batching, so the values
do not depend on which other rows share the schedule, and they equal
the scalar loop of :class:`repro._reference.ScalarRouting` bit for bit.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro import obs

# Out-of-band telemetry (rule RL006): kernel timings and batch shapes.
_OBS_KERNEL_HELP = "Routing-kernel latency by kernel."
_OBS_ACCUMULATE_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds", _OBS_KERNEL_HELP, {"kernel": "accumulate_rows"}
)
_OBS_SCHEDULE_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds", _OBS_KERNEL_HELP, {"kernel": "build_schedule"}
)
_OBS_DELAYS_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds", _OBS_KERNEL_HELP, {"kernel": "mean_path_delays"}
)
_OBS_ACCUMULATE_ROWS = obs.histogram(
    "repro_routing_accumulate_rows",
    "Load rows per accumulate_rows call.",
    buckets=obs.SIZE_BUCKETS,
)


class DestinationDag(NamedTuple):
    """CSR shortest-path DAG toward one destination.

    The form the path queries read (``Routing.next_hops``,
    ``all_shortest_paths``, ``dag_out_links``); schedules are compiled
    from distance rows instead (:func:`build_schedule`).

    Attributes:
        dst: The destination node.
        indptr: ``(num_nodes + 1,)`` slice bounds into ``links`` per
            source node.
        links: DAG link indices grouped by source node, ascending link
            index within each source (the order
            ``Routing.dag_out_links`` lists them).
    """

    dst: int
    indptr: np.ndarray
    links: np.ndarray


class _Step(NamedTuple):
    """One distance level of a schedule, flattened across all rows.

    ``rep`` expands the step's node-position axis to its link axis
    (``shares[rep]`` == ``shares.repeat(counts)``), precomputed so the
    hot accumulation loop only gathers.
    """

    flow_pos: np.ndarray
    counts_f: np.ndarray
    rep: np.ndarray
    dst_pos: np.ndarray


class Schedule(NamedTuple):
    """A compiled accumulation plan for a fixed list of DAG rows.

    ``load_pos`` is the flat load-buffer slot of every link contribution
    across all steps, in step order — the single end-of-run scatter
    target (each slot appears at most once, see the module contract).
    ``load_pos % num_links`` is each slot's link id, which the reverse
    delay pass reads.
    """

    num_rows: int
    num_nodes: int
    num_links: int
    steps: tuple[_Step, ...] = ()
    load_pos: np.ndarray | None = None


def _dag_csr(net, weights, dist_rows):
    """Every row's shortest-path DAG from one broadcast slack test, as CSR.

    Returns ``(links, indptr, bounds, fin, dmax)``: row ``i``'s DAG links
    are ``links[bounds[i]:bounds[i + 1]]``, grouped by source node with
    per-node offsets ``indptr[i]``; ``fin`` marks the finite distances and
    ``dmax`` is the largest of them.  ``weights`` is one ``(num_links,)``
    vector for every row, or ``(k, num_links)`` with one vector per row
    (the rows of several routings in one pass); the slack test reads each
    row's own weights either way.
    """
    from repro.routing.spf import _DISTANCE_ATOL

    n = net.num_nodes
    k = dist_rows.shape[0]
    _, fperm = net.forward_csr_structure()
    srcs = net.link_sources()
    link_dst = net.link_destinations()
    m_f = fperm.size

    fin = np.isfinite(dist_rows)
    dmax = np.max(dist_rows, where=fin, initial=0.0)

    # Slack test evaluated directly in forward-CSR link order (grouped by
    # source node ascending, ascending link index within each source), so
    # the row-major flatnonzero below yields links already grouped the
    # way ``Routing.dag_out_links`` lists them.
    w = np.asarray(weights)
    sg = srcs[fperm]
    use_int = False
    if m_f and w.size and np.issubdtype(w.dtype, np.integer):
        use_int = 1 <= int(w.min()) and int(w.max()) <= 1000 and dmax <= 30000.0
    if use_int:
        # Distances under integer weights are exact integer-valued
        # float64 (sums of at most n - 1 weights, far below 2**53), so
        # the slack test is an exact integer equality; an int16 grid
        # quarters the memory traffic of the float subtraction.  With
        # the unreachable-endpoint sentinel 32767 and the gates above,
        # no sentinel combination lands on zero even through int16
        # wraparound: a sentinel source gives at least
        # ``32767 - 30000 - 1000 > 0``; a sentinel destination gives a
        # value in ``[-33767, -2768]``, which contains no multiple of
        # 65536; two sentinels give ``-w`` with ``w >= 1``.
        d16 = np.where(fin, dist_rows, 32767.0).astype(np.int16)
        slack = d16[:, sg]
        slack -= d16[:, link_dst[fperm]]
        slack -= w[..., fperm].astype(np.int16)
        mask_f = slack == 0
    else:
        # Float fallback: exact for the same reason whenever weights are
        # integral; an inf endpoint yields an inf or nan slack, and
        # neither passes the comparison.
        wf = w.astype(float)
        slack = dist_rows[:, sg]
        with np.errstate(invalid="ignore"):  # inf - inf on unreachable endpoints
            slack -= dist_rows[:, link_dst[fperm]]
            slack -= wf[..., fperm]
            np.abs(slack, out=slack)
            mask_f = slack <= _DISTANCE_ATOL
    flat = np.flatnonzero(mask_f)
    cols = flat % m_f if m_f else flat
    rows = flat // m_f if m_f else flat
    links_all = fperm[cols]
    counts = np.bincount(rows * n + sg[cols], minlength=k * n).reshape(k, n)
    indptr2d = np.zeros((k, n + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=indptr2d[:, 1:])
    row_bounds = np.concatenate(([0], np.cumsum(indptr2d[:, n])))
    return links_all, indptr2d, row_bounds, fin, dmax


def build_destination_dags(net, weights, dist_rows, dests) -> list[DestinationDag]:
    """The path queries' CSR DAGs for several destinations, one slack test.

    Args:
        net: The network.
        weights: Per-link weights ``dist_rows`` was computed with.
        dist_rows: ``(k, num_nodes)`` distance rows, ``dist_rows[i, u] =
            dist(u, dests[i])``.
        dests: The ``k`` destination nodes, aligned with ``dist_rows``.

    Returns:
        One :class:`DestinationDag` per destination, in ``dests`` order.
    """
    dist_rows = np.asarray(dist_rows, dtype=float)
    links_all, indptr2d, row_bounds, _fin, _dmax = _dag_csr(net, weights, dist_rows)
    rb = row_bounds.tolist()  # python ints slice ~3x faster than np scalars
    return [
        DestinationDag(int(t), indptr2d[i], links_all[rb[i] : rb[i + 1]])
        for i, t in enumerate(dests)
    ]


def build_schedule(net, weights, dist_rows) -> Schedule:
    """Compile the accumulation plan of a list of DAG rows from distance rows.

    Row ``i`` runs on the shortest-path DAG toward the destination of
    ``dist_rows[i]`` (``dist_rows[i, u]`` is the distance from ``u``).  A
    destination may fill several rows, each independent (one destination
    batched against several injection vectors).  ``weights`` is one
    ``(num_links,)`` vector for every row, or ``(k, num_links)`` with one
    vector per row, so one pass serves the rows of several routings, such
    as a search step's siblings.  Every schedule is compiled here: the
    DAGs live only as the flattened arrays of this one call.

    Args:
        net: The network.
        weights: Per-link weights the rows were computed with.
        dist_rows: ``(k, num_nodes)`` distance rows, one per schedule row.
    """
    started = perf_counter()
    dist_rows = np.asarray(dist_rows, dtype=float)
    k, n, m = dist_rows.shape[0], net.num_nodes, net.num_links
    links_all, indptr2d, row_bounds, fin, dmax = _dag_csr(net, weights, dist_rows)

    # Farthest-first node order per row: the destination (distance 0) is
    # uniquely last among finite nodes because weights are >= 1.  When
    # every finite distance fits int16, sort on negated int16 keys — the
    # same ordering relation and tie behavior, but radix-sortable.
    if dmax < 32000.0:
        neg = np.where(fin, -dist_rows, 32767.0).astype(np.int16)
    else:
        neg = np.where(fin, -dist_rows, np.inf)
    order2d = np.argsort(neg, axis=1, kind="stable")
    sizes = np.maximum(fin.sum(axis=1) - 1, 0)
    node_bounds = np.concatenate(([0], np.cumsum(sizes)))
    total = int(node_bounds[-1])
    if total == 0:
        schedule = Schedule(k, n, m)
    else:
        rows_g = np.repeat(np.arange(k, dtype=np.int64), sizes)
        cols_g = np.arange(total) - node_bounds[:-1].repeat(sizes)
        rn = rows_g * n
        order_cat = order2d.reshape(-1).take(rn + cols_g)
        # Segmented level ids: +1 whenever the distance changes within a
        # row; a global cumsum re-zeroed at each row start.  The sort keys
        # compare equal exactly when the distances do, so they serve as
        # the level-change test too.
        dv = neg.reshape(-1).take(rn + order_cat)
        inc = np.zeros(total, dtype=np.int32)
        inc[1:] = (dv[1:] != dv[:-1]) & (rows_g[1:] == rows_g[:-1])
        cum = np.cumsum(inc)
        nonempty = sizes > 0
        first = np.zeros(k, dtype=np.int32)
        first[nonempty] = cum[node_bounds[:-1][nonempty]]
        levels_cat = cum - np.repeat(first, sizes)
        # Each node position's out-degree and offset into ``links_all``.
        ipf = indptr2d.reshape(-1)
        flat_no = rows_g * (n + 1) + order_cat
        at_node = ipf.take(flat_no)
        oc_cat = ipf.take(flat_no + 1) - at_node
        starts = row_bounds[rows_g] + at_node
        link_dst = net.link_destinations()
        schedule = _compile_schedule(
            order_cat, levels_cat, oc_cat, links_all, starts, rows_g, link_dst, k, n, m
        )
    _OBS_SCHEDULE_SECONDS.observe(perf_counter() - started)
    return schedule


def _ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices ``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    exclusive = np.cumsum(counts) - counts
    return np.repeat(starts - exclusive, counts) + np.arange(total)


def _compile_schedule(
    node_cat, level_cat, count_cat, link_pool, link_starts, row_cat, link_dst, k, n, m
) -> Schedule:
    """Compile a schedule from flattened per-row sequences.

    ``link_starts[i]`` is the offset into ``link_pool`` of the
    ``count_cat[i]`` out-links of node position ``i``.  Everything is
    computed in ONE flattened pass over all rows, sorted by distance
    level; the per-step loop at the end only takes slices.  Stability of
    the level sort keeps the within-level order (row, then
    farthest-first node position) the scalar loop has.
    """
    num_steps = int(level_cat.max()) + 1
    if num_steps < 32000:  # radix-sortable level keys (the usual case)
        by_level = np.argsort(level_cat.astype(np.int16), kind="stable")
    else:
        by_level = np.argsort(level_cat, kind="stable")
    bounds = np.searchsorted(level_cat[by_level], np.arange(num_steps + 1))
    # Index arrays stay int64 (numpy's intp): narrower dtypes would be
    # converted back on every fancy-index call in the hot loop.
    row_lv = row_cat[by_level]
    counts_lv = count_cat[by_level]
    counts_f_lv = counts_lv.astype(float)
    flow_pos_lv = row_lv * n + node_cat[by_level]

    lidx = _ragged_gather(link_starts[by_level], counts_lv)
    links_lv = link_pool[lidx]
    link_row_lv = row_lv.repeat(counts_lv)
    load_pos_lv = link_row_lv * m + links_lv
    flow_dst_pos = link_row_lv * n + link_dst[links_lv]
    rep_lv = np.repeat(np.arange(counts_lv.size, dtype=np.int64), counts_lv)
    link_bounds = np.concatenate(([0], np.cumsum(counts_lv)))[bounds].tolist()
    bounds = bounds.tolist()

    steps = []
    for s in range(num_steps):
        a, b = bounds[s], bounds[s + 1]
        la, lb = link_bounds[s], link_bounds[s + 1]
        steps.append(
            _Step(
                flow_pos=flow_pos_lv[a:b],
                counts_f=counts_f_lv[a:b],
                rep=rep_lv[la:lb] - a,
                dst_pos=flow_dst_pos[la:lb],
            )
        )
    return Schedule(k, n, m, tuple(steps), load_pos_lv)


def accumulate_rows(schedule: Schedule, injections: np.ndarray) -> np.ndarray:
    """Run a schedule: per-row ECMP load accumulation in lockstep.

    Args:
        schedule: Output of :func:`build_schedule`.
        injections: ``(num_rows, num_nodes)`` per-row injections (row
            ``i`` is the demand toward row ``i``'s destination).

    Returns:
        ``(num_rows, num_links)`` load rows, bit-identical to running the
        scalar accumulation loop on each row separately.
    """
    k, n, m = schedule.num_rows, schedule.num_nodes, schedule.num_links
    started = perf_counter()
    _OBS_ACCUMULATE_ROWS.observe(k)
    inj = np.asarray(injections, dtype=float)
    if inj.shape != (k, n):
        raise ValueError(f"expected injections of shape ({k}, {n}), got {inj.shape}")
    flow = np.array(inj, dtype=float, copy=True, order="C").reshape(k * n)
    rows = np.zeros(k * m)
    if schedule.steps:
        chunks = []
        for step in schedule.steps:
            shares = flow.take(step.flow_pos)
            shares /= step.counts_f
            per_link = shares.take(step.rep)
            chunks.append(per_link)
            # Unbuffered scatter-add: contributions land per slot in
            # stream order, which is the scalar loop's order.
            np.add.at(flow, step.dst_pos, per_link)
        # Load slots are unique across the whole run and never feed the
        # flow recursion, so one deferred fancy += lands each slot's
        # single 0.0 + share addition — the scalar loop's exact bits.
        rows[schedule.load_pos] += np.concatenate(chunks)
    _OBS_ACCUMULATE_SECONDS.observe(perf_counter() - started)
    return rows.reshape(k, m)


def mean_path_delays(schedule: Schedule, link_delays: np.ndarray) -> np.ndarray:
    """Run a schedule backwards: mean ECMP path delay to each row's destination.

    Args:
        schedule: Output of :func:`build_schedule`.
        link_delays: ``(num_links,)`` per-link delays ``D_l`` shared by
            every row, or ``(num_rows, num_links)`` with one delay vector
            per row (rows of several routings, each under its own loads).

    Returns:
        ``(num_rows, num_nodes)`` matrix ``E`` with ``E[i, v]`` the mean
        delay of the even-split flow from ``v`` to row ``i``'s
        destination (see "The reverse pass" in the module docstring).
        The destination and every node off the row's DAG read ``0.0``.
    """
    k, n, m = schedule.num_rows, schedule.num_nodes, schedule.num_links
    started = perf_counter()
    delays = np.asarray(link_delays, dtype=float)
    if delays.shape not in ((m,), (k, m)):
        raise ValueError(
            f"expected link delays of shape ({m},) or ({k}, {m}), got {delays.shape}"
        )
    expected = np.zeros(k * n)
    if schedule.steps:
        # D_l of every slot in step order, read off the load scatter
        # targets (``row * num_links + l``) rather than kept per step, so
        # cached schedules hold no extra array for this pass.  With one
        # delay vector per row the target indexes the flattened matrix.
        if delays.ndim == 1:
            slot_delays = delays.take(schedule.load_pos % m)
        else:
            slot_delays = delays.reshape(-1).take(schedule.load_pos)
        end = slot_delays.size
        for step in reversed(schedule.steps):
            start = end - step.dst_pos.size
            per_link = expected.take(step.dst_pos)
            per_link += slot_delays[start:end]
            end = start
            # bincount adds each bin's weights one by one in input order,
            # starting from 0.0: per node, its out-links in ascending order.
            sums = np.bincount(step.rep, weights=per_link, minlength=step.flow_pos.size)
            sums /= step.counts_f
            expected[step.flow_pos] = sums
    _OBS_DELAYS_SECONDS.observe(perf_counter() - started)
    return expected.reshape(k, n)
