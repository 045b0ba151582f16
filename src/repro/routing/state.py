"""Routing snapshot: one weight setting, its SP DAGs, and ECMP link loads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.lru import LruCache
from repro.network.graph import Network
from repro.routing.soa import (
    DestinationDag,
    Schedule,
    accumulate_rows,
    build_destination_dags,
    build_schedule,
    mean_path_delays,
)
from repro.routing.spf import RoutingError, distances_to_all
from repro.routing.weights import as_weight_array
from repro.traffic.matrix import TrafficMatrix

DemandsLike = Union[TrafficMatrix, np.ndarray]

_DEST_SCHEDULE_CAP = 2
"""Multi-row destination schedules kept per routing (LRU), keyed by the
requested destination list.  A load pass over a class's active
destinations (:meth:`Routing.link_loads`, the sweep engine's rows)
compiles that list's schedule, and an SLA delay pass over the same list
(:meth:`Routing.path_delays` from
:func:`~repro.costs.pricing.price_high`) reuses it; the second entry
keeps the other class's list when one routing serves both.  The
evaluator's batches of one routing (:meth:`Routing.batch_destination_rows`,
:meth:`Routing.batch_path_delays`) go through the same cache, so a later
pass over an evaluated routing (such as
:meth:`~repro.api.Session.scaled_traffic`'s delay pass) reuses its
schedule.  Rows of several routings share one schedule that no routing
keeps, and :meth:`Routing.pair_link_fractions` keeps its one-row
schedule out too, so it cannot evict these two.  The worst case is two
full-network schedules per routing."""


class Routing:
    """Immutable routing state for a single link-weight vector.

    Computes (and caches) all-destination shortest-path distances, the
    per-destination shortest-path DAGs, ECMP link loads for any traffic
    matrix, mean ECMP path delays, and per-pair link flow fractions — the
    primitives every cost function in the paper needs.

    The load and delay passes run the struct-of-arrays kernels of
    :mod:`repro.routing.soa` on schedules compiled straight from the
    distance rows (:func:`~repro.routing.soa.build_schedule`):
    :meth:`link_loads` sums the per-destination rows of
    :meth:`destination_rows` through :meth:`ClassLoads.refresh`, the
    one accumulation path the evaluator and the sweep engine use too.
    The path queries (:meth:`next_hops`, :meth:`all_shortest_paths`,
    :meth:`dag_out_links`) read per-destination CSR DAGs
    (:class:`~repro.routing.soa.DestinationDag`), built when first asked
    for.  The kernels are bit-identical to the scalar Python reference
    loops kept in :class:`repro._reference.ScalarRouting` (the
    cross-check the differential suites pin down).
    """

    def __init__(self, net: Network, weights: Iterable[float]) -> None:
        self._net = net
        self._weights = as_weight_array(weights, net.num_links)
        self._dist = distances_to_all(net, self._weights)
        self._dist.setflags(write=False)
        self._dags: dict[int, DestinationDag] = {}
        self._dest_schedules: LruCache[bytes, Schedule] = LruCache(_DEST_SCHEDULE_CAP)
        self._all_finite: Optional[bool] = None

    @classmethod
    def from_precomputed(cls, net: Network, weights: np.ndarray, dist: np.ndarray) -> "Routing":
        """Build a routing from an externally computed distance matrix.

        This is the constructor the incremental-SPF path uses
        (:func:`repro.routing.incremental.derive_children`): ``dist`` must
        equal ``distances_to_all(net, weights)``.  No recomputation or
        validation is performed, so callers are responsible for
        consistency (``weights`` must be a valid int64 vector).
        ``weights`` and ``dist`` are taken as given and marked read-only:
        they are shared state from this point on.  Schedules and DAGs are
        compiled from them when first needed, as for a fresh routing.
        """
        routing = cls.__new__(cls)
        routing._net = net
        weights.setflags(write=False)
        routing._weights = weights
        dist.setflags(write=False)
        routing._dist = dist
        routing._dags = {}
        routing._dest_schedules = LruCache(_DEST_SCHEDULE_CAP)
        routing._all_finite = None
        return routing

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The network this routing is computed over."""
        return self._net

    @property
    def weights(self) -> np.ndarray:
        """The (read-only) link weight vector."""
        return self._weights

    def distance(self, src: int, dst: int) -> float:
        """Shortest-path distance from ``src`` to ``dst`` (``inf`` if unreachable)."""
        return float(self._dist[dst, src])

    def distances_to(self, dst: int) -> np.ndarray:
        """Vector of shortest-path distances from every node to ``dst``."""
        return self._dist[dst]

    @property
    def distance_matrix(self) -> np.ndarray:
        """The full ``(num_nodes, num_nodes)`` matrix ``D[t, u] = dist(u, t)``.

        Read-only (``writeable=False``): the matrix is shared with
        internal caches and, on the incremental path, with other
        routings.
        """
        return self._dist

    def ensure_dags(self, dests) -> list[DestinationDag]:
        """CSR DAGs for ``dests``, building any missing ones in one batch.

        The path queries' cache, filled only by them; no load or delay
        pass reads it.
        """
        missing = [t for t in dict.fromkeys(int(t) for t in dests) if t not in self._dags]
        if missing:
            dist_rows = self._dist[np.asarray(missing, dtype=np.int64)]
            built = build_destination_dags(self._net, self._weights, dist_rows, missing)
            for t, dag in zip(missing, built):
                self._dags[t] = dag
        return [self._dags[int(t)] for t in dests]

    def dag_out_links(self, dst: int) -> list[list[int]]:
        """Per-node outgoing link indices on the shortest-path DAG toward ``dst``.

        A list view of the CSR DAG, built on every call.
        """
        dag = self.ensure_dags([dst])[0]
        return [self._out_links(dag, u) for u in range(self._net.num_nodes)]

    def next_hops(self, src: int, dst: int) -> list[int]:
        """ECMP next hops from ``src`` toward ``dst`` (empty if unreachable or src==dst)."""
        if src == dst:
            return []
        link_dst = self._net.link_destinations()
        return [int(link_dst[l]) for l in self._out_links(self.ensure_dags([dst])[0], src)]

    # ------------------------------------------------------------------
    # Load model
    # ------------------------------------------------------------------
    def link_loads(self, traffic: DemandsLike) -> np.ndarray:
        """Per-link loads under even ECMP splitting of ``traffic``.

        For each destination ``t``, nodes are processed in order of
        decreasing distance to ``t``; each node's accumulated flow toward
        ``t`` (locally originated plus transit) splits evenly over its
        shortest-path DAG out-links.

        One :meth:`destination_rows` pass computes the row of every
        active destination, and :meth:`ClassLoads.refresh` adds the rows
        left to right from zero.  That equals the scalar loop of
        :class:`repro._reference.ScalarRouting`, which adds every
        destination's shares into one accumulator in ascending
        destination order, bit for bit: a link has one source node, so it
        takes at most one share per destination.  The exact bits feed
        :func:`repro.traffic.scaling.scale_to_utilization` (and through
        it every search trajectory).

        Args:
            traffic: Traffic matrix (or raw ``n x n`` demand array) in Mb/s.

        Returns:
            Vector of link loads (Mb/s), indexed by link index.

        Raises:
            ValueError: if a raw demand array is not a valid
                :class:`~repro.traffic.matrix.TrafficMatrix` of this size.
            RoutingError: if any positive demand has no path to its
                destination (lowest destination first, then lowest node).
        """
        demands = self._demand_array(traffic)
        return ClassLoads.refresh(self, active_destinations(demands), demands).loads

    def destination_rows(self, dests, injections: np.ndarray) -> np.ndarray:
        """Per-link load rows for many ``(destination, injection)`` pairs.

        Row ``i`` equals ``destination_link_loads(dests[i],
        injections[i])``; all rows are computed in one batched kernel
        pass.

        Args:
            dests: Destination node per row (repeats allowed).
            injections: ``(len(dests), num_nodes)`` per-row demands
                toward the row's destination, in Mb/s.

        Returns:
            Matrix of shape ``(len(dests), num_links)``.

        Raises:
            ValueError: on injections of another shape, or a non-finite
                or negative injection (:meth:`_injection_rows`).
            RoutingError: if any positive injection has no path to its
                row's destination (reported for the first offending row,
                lowest node first — the scalar loop's error order).
        """
        dests = [int(t) for t in dests]
        inj = self._injection_rows(dests, injections)
        if not dests:
            return np.empty((0, self._net.num_links))
        darr = np.asarray(dests, dtype=np.int64)
        self.check_reachable(darr, inj)
        return accumulate_rows(self._schedule(darr), inj)

    def check_reachable(self, dests: np.ndarray, injections: np.ndarray) -> None:
        """Raise unless every positive injection reaches its row's destination.

        The check of :meth:`destination_rows`, for callers that batch
        rows themselves (:meth:`batch_destination_rows`) and must fail
        before they change any state.

        Raises:
            RoutingError: for the first offending row, lowest node first
                (the scalar loop's error order).
        """
        if self._reachable_from_everywhere():
            return
        bad = ~np.isfinite(self._dist[dests]) & (injections > 0)
        if bad.any():
            i, u = (int(x) for x in np.argwhere(bad)[0])
            raise RoutingError(f"node {int(dests[i])} unreachable from node {u}")

    @classmethod
    def batch_destination_rows(cls, requests) -> list[np.ndarray]:
        """:meth:`destination_rows` of several routings in one kernel pass.

        Each request is ``(routing, dests, injections)``, every routing
        over the same network, with its injections and reachability
        already checked (:meth:`check_reachable`).  Every distinct
        ``(routing, destination)`` pair gets one DAG row, laid out routing
        by routing.  With several routings, all rows are compiled in one
        :func:`~repro.routing.soa.build_schedule` pass, each under its own
        routing's weights, and no routing keeps the schedule; one
        routing's rows come from its own cached schedule
        (:meth:`_schedule`).  One :func:`~repro.routing.soa.accumulate_rows`
        call runs the schedule; a pair requested again (one routing
        serving both classes of an STR move) is accumulated in a further
        pass over the same schedule.  Rows are independent in both
        kernels, so each request's rows equal its own
        :meth:`destination_rows` bit for bit.

        Returns:
            One ``(len(dests), num_links)`` matrix per request, in order.
        """
        requests = [(r, np.asarray(d, dtype=np.int64), inj) for r, d, inj in requests]
        layout, placed, num_passes = _row_layout(requests)
        total = sum(dests.size for _, dests in layout)
        if not total:
            return [np.empty((0, r.network.num_links)) for r, _, _ in requests]
        if len(layout) == 1:
            routing, dests = layout[0]
            schedule = routing._schedule(dests)
        else:
            schedule = _compile(layout)
        passes = np.zeros((num_passes, total, requests[0][0].network.num_nodes))
        for (p, rows), (_, _, inj) in zip(placed, requests):
            passes[p, rows] = inj
        out = [accumulate_rows(schedule, inj) for inj in passes]
        return [_gather(out, p, rows) for p, rows in placed]

    @classmethod
    def batch_path_delays(cls, requests) -> list[np.ndarray]:
        """:meth:`path_delays` of several routings in one reverse pass.

        Each request is ``(routing, dests, link_delays)``, every routing
        over the same network.  One :func:`~repro.routing.soa.build_schedule`
        pass over every request's distance rows, each under its own
        routing's weights, and one
        :func:`~repro.routing.soa.mean_path_delays` call with each row's
        own delay vector; the reverse pass's per-node sums do not depend
        on which rows share the schedule, so each request's matrix
        equals its own :meth:`path_delays` bit for bit.  A lone request
        is its :meth:`path_delays`, which reuses the routing's cached
        schedule.
        """
        if len(requests) == 1:
            routing, dests, link_delays = requests[0]
            return [routing.path_delays(dests, link_delays)]
        if not requests:
            return []
        schedule = _compile([(r, np.asarray(d, dtype=np.int64)) for r, d, _ in requests])
        counts = [len(dests) for _, dests, _ in requests]
        delays = np.repeat(np.stack([d for _, _, d in requests]), counts, axis=0)
        out = np.split(mean_path_delays(schedule, delays), np.cumsum(counts)[:-1])
        for (routing, dests, _), matrix in zip(requests, out):
            routing._mark_unreachable(dests, matrix)
        return out

    def destination_link_loads(self, dst: int, injections: np.ndarray) -> np.ndarray:
        """Per-link loads contributed by traffic destined to ``dst`` alone.

        Args:
            dst: The destination node.
            injections: Per-node demand toward ``dst`` (column ``dst`` of a
                demand matrix), in Mb/s.

        Returns:
            Vector of link loads (Mb/s) such that summing the vectors of
            every destination reproduces :meth:`link_loads`.

        Raises:
            ValueError: on a non-finite or negative injection.
            RoutingError: if any positive injection has no path to ``dst``.
        """
        inj = np.asarray(injections, dtype=float)
        return self.destination_rows([dst], inj[None, :])[0]

    def path_delays(self, dests, link_delays: np.ndarray) -> np.ndarray:
        """Mean ECMP path delay from every node to each of ``dests``.

        One reverse pass of the destinations' schedule
        (:func:`repro.routing.soa.mean_path_delays`) gives every source's
        delay at once; the list shares the schedule cache of
        :meth:`destination_rows`.

        Args:
            dests: Destination node per row (repeats allowed).
            link_delays: ``(num_links,)`` per-link delays ``D_l``.

        Returns:
            Matrix of shape ``(len(dests), num_nodes)``: entry ``[i, v]``
            is the mean delay from ``v`` to ``dests[i]`` — ``0.0`` at the
            destination itself and ``inf`` where ``v`` cannot reach it.
        """
        dests = [int(t) for t in dests]
        if not dests:
            return np.empty((0, self._net.num_nodes))
        darr = np.asarray(dests, dtype=np.int64)
        out = mean_path_delays(self._schedule(darr), link_delays)
        self._mark_unreachable(darr, out)
        return out

    def pair_link_fractions(self, src: int, dst: int) -> np.ndarray:
        """Fraction of the ``(src, dst)`` flow crossing each link.

        The fractions of the links out of any traversed node sum to the
        fraction entering that node, so ``pair_link_fractions(s, t) @ D``
        is the pair's mean path delay — the single-pair oracle of
        :meth:`path_delays`.  Compiles a one-row schedule per call, kept
        out of the routing's schedule cache.

        Raises:
            RoutingError: if ``dst`` is unreachable from ``src``.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        dist = self._dist[dst]
        if not np.isfinite(dist[src]):
            raise RoutingError(f"node {dst} unreachable from node {src}")
        inj = np.zeros((1, self._net.num_nodes))
        inj[0, src] = 1.0
        return accumulate_rows(_compile([(self, np.array([dst]))]), inj)[0]

    def average_hop_count(self, src: int, dst: int) -> float:
        """Mean number of hops of the ECMP flow from ``src`` to ``dst``."""
        return float(self.pair_link_fractions(src, dst).sum())

    def all_shortest_paths(self, src: int, dst: int, limit: int = 1000) -> list[list[int]]:
        """Enumerate shortest paths as node sequences (capped at ``limit``).

        Raises:
            RoutingError: if ``dst`` is unreachable from ``src``, or more
                than ``limit`` shortest paths exist.
        """
        if src == dst:
            return [[src]]
        if not np.isfinite(self._dist[dst, src]):
            raise RoutingError(f"node {dst} unreachable from node {src}")
        dag = self.ensure_dags([dst])[0]
        link_dst = self._net.link_destinations()
        paths: list[list[int]] = []
        stack: list[list[int]] = [[src]]
        while stack:
            path = stack.pop()
            node = path[-1]
            if node == dst:
                paths.append(path)
                if len(paths) > limit:
                    raise RoutingError(f"more than {limit} shortest paths for ({src}, {dst})")
                continue
            for link_idx in self._out_links(dag, node):
                stack.append(path + [int(link_dst[link_idx])])
        return sorted(paths)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _out_links(dag: DestinationDag, node: int) -> list[int]:
        """``node``'s DAG out-links, ascending: its slice of the CSR DAG."""
        return dag.links[dag.indptr[node] : dag.indptr[node + 1]].tolist()

    def _injection_rows(self, dests: list[int], injections) -> np.ndarray:
        """``injections`` as float rows, one per destination of ``dests``.

        The one check of every injection entry (:meth:`destination_rows`
        here and in :class:`repro._reference.ScalarRouting`), in the
        wording of :class:`~repro.traffic.matrix.TrafficMatrix`.

        Raises:
            ValueError: on a shape other than ``(len(dests), num_nodes)``,
                or on a non-finite or negative injection, naming the
                first one's destination and node.
        """
        inj = np.asarray(injections, dtype=float)
        if inj.shape != (len(dests), self._net.num_nodes):
            raise ValueError(
                f"expected injections of shape ({len(dests)}, {self._net.num_nodes}), "
                f"got {inj.shape}"
            )
        for bad, what in ((~np.isfinite(inj), "finite"), (inj < 0, "non-negative")):
            if bad.any():
                i, u = (int(x) for x in np.argwhere(bad)[0])
                raise ValueError(
                    f"injection from node {u} toward node {dests[i]} must be {what}, "
                    f"got {inj[i, u]}"
                )
        return inj

    def _mark_unreachable(self, dests, delays: np.ndarray) -> None:
        """Set ``inf`` where a node cannot reach a row's destination."""
        if not self._reachable_from_everywhere():
            delays[~np.isfinite(self._dist[np.asarray(dests, dtype=np.int64)])] = np.inf

    def _reachable_from_everywhere(self) -> bool:
        """Whether every node reaches every node (no inf distances), cached."""
        if self._all_finite is None:
            self._all_finite = bool(np.isfinite(self._dist).all())
        return self._all_finite

    def _schedule(self, dests: np.ndarray) -> Schedule:
        """The compiled schedule of the int64 row list ``dests``, cached by list."""
        key = dests.tobytes()
        schedule = self._dest_schedules.get(key)
        if schedule is None:
            schedule = _compile([(self, dests)])
            self._dest_schedules.put(key, schedule)
        return schedule

    def _demand_array(self, traffic: DemandsLike) -> np.ndarray:
        if not isinstance(traffic, TrafficMatrix):
            traffic = TrafficMatrix(traffic)  # a raw array passes the same checks
        n = self._net.num_nodes
        if traffic.demands.shape != (n, n):
            raise ValueError(f"expected demands of shape ({n}, {n}), got {traffic.demands.shape}")
        return traffic.demands

    def __repr__(self) -> str:
        return f"Routing(net={self._net.name!r}, links={self._net.num_links})"


def active_destinations(demands: np.ndarray) -> np.ndarray:
    """The destinations of ``demands`` with positive demand, ascending.

    The one rule every load pass uses to pick its per-destination rows.
    """
    return np.flatnonzero(demands.sum(axis=0) > 0)


@dataclass
class ClassLoads:
    """One traffic class's loads under one routing.

    Attributes:
        routing: The routing the class follows.
        dest_rows: One per-link load row per active destination
            (:func:`active_destinations` of the class's demand matrix),
            ascending.
        loads: The rows' sum, added left to right from zero.
    """

    routing: Routing
    dest_rows: np.ndarray
    loads: np.ndarray

    @classmethod
    def refresh(
        cls,
        routing: Routing,
        active: np.ndarray,
        demands: np.ndarray,
        rows: Optional[np.ndarray] = None,
        stale: Optional[np.ndarray] = None,
    ) -> "ClassLoads":
        """Recompute the rows marked ``stale``, then sum every row.

        Every load pass builds a class's loads here: :meth:`Routing.link_loads`
        and both incremental engines.  Each engine decides which rows it
        may reuse — the evaluator those outside a move's affected set, the
        sweep engine those with zero flow on every failed link and an
        unchanged demand column — and fills ``rows`` with them before the
        call.  The stale rows are recomputed in one
        :meth:`Routing.destination_rows` call, and the sum runs over all
        rows in a fixed left-to-right order (a numpy reduction may regroup
        the additions), so a derived class's loads are bit-identical to a
        rebuilt one's whichever rows were reused.

        Args:
            routing: The class's routing.
            active: The class's active destinations, ascending.
            demands: The class's ``(n, n)`` demand matrix.
            rows: ``(len(active), num_links)`` rows with the reused ones
                filled in; stale ones are overwritten in place.  Omitted,
                every row is computed.
            stale: Boolean mask over ``rows`` of the rows to recompute.
        """
        if rows is None:
            rows = np.empty((active.size, routing.network.num_links))
            stale = np.ones(active.size, dtype=bool)
        redo = np.flatnonzero(stale)
        if redo.size:
            ts = active[redo]
            fresh = routing.destination_rows(ts, injections_toward(demands, ts))
            if redo.size == len(rows):
                rows = fresh
            else:
                rows[redo] = fresh
        return cls(routing, rows, row_sum(rows))


def _compile(pairs) -> Schedule:
    """One schedule over the rows of ``(routing, dests)`` pairs, in order.

    Each row comes from its routing's distance row; with several pairs
    the weights are stacked, one vector per row.  A lone routing's every
    destination in order reads its distance matrix without a copy.
    """
    net = pairs[0][0].network
    if len(pairs) == 1:
        routing, dests = pairs[0]
        dist = routing._dist
        if dests.size != len(dist) or not np.array_equal(dests, np.arange(dests.size)):
            dist = dist[dests]
        return build_schedule(net, routing._weights, dist)
    weights = np.stack([r._weights for r, _ in pairs])
    weights = np.repeat(weights, [d.size for _, d in pairs], axis=0)
    return build_schedule(net, weights, np.concatenate([r._dist[d] for r, d in pairs]))


def _row_layout(requests):
    """Where :meth:`Routing.batch_destination_rows` puts each request's rows.

    Returns ``(layout, placed, num_passes)``: ``layout`` lists each
    routing with the ascending distinct destinations of its DAG rows, in
    row order; ``placed`` gives each request its ``(pass, rows)`` — an
    int and a slice when its rows are its routing's whole list in one
    pass, else aligned arrays.  The k-th request row of a ``(routing,
    destination)`` pair goes to pass k.
    """
    groups: dict[int, list[int]] = {}
    for i, (routing, _, _) in enumerate(requests):
        groups.setdefault(id(routing), []).append(i)
    layout, placed, total, num_passes = [], [None] * len(requests), 0, 1
    for members in groups.values():
        dests = [requests[i][1] for i in members]
        unique = dests[0]
        if (unique[1:] > unique[:-1]).all() and all(
            np.array_equal(d, unique) for d in dests[1:]
        ):
            # Distinct ascending destinations, the same in every request
            # (one class, or both classes of an STR move with the same
            # stale rows): request k is pass k's run.
            for k, i in enumerate(members):
                placed[i] = (k, slice(total, total + unique.size))
            num_passes = max(num_passes, len(members))
        else:
            flat = np.concatenate(dests)
            unique, rows = np.unique(flat, return_inverse=True)
            order = np.argsort(rows, kind="stable")
            ranks = np.empty_like(rows)
            ranks[order] = np.arange(rows.size) - np.searchsorted(rows[order], rows[order])
            num_passes = max(num_passes, int(ranks.max(initial=0)) + 1)
            bounds = np.cumsum([0] + [d.size for d in dests])
            for i, a, b in zip(members, bounds[:-1], bounds[1:]):
                placed[i] = (ranks[a:b], total + rows[a:b])
        layout.append((requests[members[0]][0], unique))
        total += unique.size
    return layout, placed, num_passes


def _gather(out: list, passes, rows) -> np.ndarray:
    """A request's rows out of the per-pass accumulations (a view for a run)."""
    if isinstance(rows, slice):
        return out[passes][rows]
    gathered = np.empty((rows.size, out[0].shape[1]))
    for p, rows_of_pass in enumerate(out):
        mine = passes == p
        gathered[mine] = rows_of_pass[rows[mine]]
    return gathered


def injections_toward(demands: np.ndarray, dests: np.ndarray) -> np.ndarray:
    """The ``(len(dests), n)`` injection rows of ``demands`` toward ``dests``.

    With every node a destination, the transpose view skips a
    full-matrix column gather (the kernels copy anyway).
    """
    return demands.T if dests.size == demands.shape[1] else demands[:, dests].T


def row_sum(rows: np.ndarray) -> np.ndarray:
    """A class's loads: its per-destination rows added left to right from zero.

    The one summation every load pass uses (:meth:`ClassLoads.refresh`
    and the evaluator's batched layers).  A numpy reduction may regroup
    the additions, so the loop fixes the order: the loads are then
    bit-identical whichever rows were reused.
    """
    loads = np.zeros(rows.shape[1])
    for row in rows:
        loads += row
    return loads
