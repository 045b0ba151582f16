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
    build_arrays_and_schedule,
    build_destination_dags,
    build_schedule,
    mean_path_delays,
    slice_destination_dags,
)
from repro.routing.spf import RoutingError, distances_to_all
from repro.routing.weights import as_weight_array
from repro.traffic.matrix import TrafficMatrix

DemandsLike = Union[TrafficMatrix, np.ndarray]

_DEST_SCHEDULE_CAP = 2
"""Multi-row destination schedules kept per routing (LRU), keyed by the
requested destination list.  A from-scratch high layer's SLA delay pass
(:meth:`Routing.path_delays` over every high-priority destination)
reuses the schedule its load rows just compiled for the same list; when
an STR move shares the routing, the low layer's list is the other
entry, so a later query on either list (e.g. the delay pass of
``Session.scaled_traffic``) still hits.  The extra key a derived layer's
delay pass adds only evicts its affected-row list, the least recently
used entry, which nothing requests again.  The worst case (two
full-network schedules) stays small next to the DAG cache itself."""


class Routing:
    """Immutable routing state for a single link-weight vector.

    Computes (and caches) all-destination shortest-path distances, the
    per-destination shortest-path DAGs, ECMP link loads for any traffic
    matrix, mean ECMP path delays, and per-pair link flow fractions — the
    primitives every cost function in the paper needs.

    All of it runs on the CSR DAGs (:class:`~repro.routing.soa.DestinationDag`)
    and struct-of-arrays kernels of :mod:`repro.routing.soa`:
    :meth:`link_loads` sums the per-destination rows of
    :meth:`destination_rows` through :meth:`ClassLoads.refresh`, the
    one accumulation path the evaluator and the sweep engine use too.
    The kernels are bit-identical to the scalar Python reference loops
    kept in :class:`repro._reference.ScalarRouting` (the cross-check the
    differential suites pin down).
    """

    def __init__(self, net: Network, weights: Iterable[float]) -> None:
        self._net = net
        self._weights = as_weight_array(weights, net.num_links)
        self._dist = distances_to_all(net, self._weights)
        self._dist.setflags(write=False)
        self._dags: dict[int, DestinationDag] = {}
        self._pending_dags: Optional[tuple[list[int], tuple]] = None
        self._dest_schedules: LruCache[bytes, Schedule] = LruCache(_DEST_SCHEDULE_CAP)
        self._all_finite: Optional[bool] = None

    @classmethod
    def from_precomputed(
        cls,
        net: Network,
        weights: Iterable[float],
        dist: np.ndarray,
        dags: Optional[dict[int, DestinationDag]] = None,
    ) -> "Routing":
        """Build a routing from an externally computed distance matrix.

        This is the constructor the incremental-SPF path uses
        (:func:`repro.routing.incremental.derive_children`): ``dist`` must
        equal ``distances_to_all(net, weights)`` and ``dags`` may seed the
        per-destination DAG cache with entries that are known to be valid
        under ``weights`` (e.g. reused from a parent routing whose distance
        rows are unchanged).  No recomputation or validation is performed,
        so callers are responsible for consistency.  ``dist`` is marked
        read-only: it is shared state from this point on.
        """
        routing = cls.__new__(cls)
        routing._net = net
        routing._weights = as_weight_array(weights, net.num_links)
        dist.setflags(write=False)
        routing._dist = dist
        routing._dags = dict(dags) if dags else {}
        routing._pending_dags = None
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

    def soa_dag_cache(self) -> dict[int, DestinationDag]:
        """The per-destination SP DAG cache built so far (``dst -> DestinationDag``).

        Exposed so the incremental-SPF path
        (:func:`repro.routing.incremental.derive_children`) can reuse DAGs
        of destinations whose distance rows are unchanged; treat entries
        as read-only.
        """
        self._materialize_pending_dags()
        return self._dags

    def ensure_dags(self, dests) -> list[DestinationDag]:
        """CSR DAGs for ``dests``, building any missing ones in one batch."""
        self._materialize_pending_dags()
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
            RoutingError: if any positive injection has no path to its
                row's destination (reported for the first offending row,
                lowest node first — the scalar loop's error order).
        """
        dests = [int(t) for t in dests]
        k = len(dests)
        inj = np.asarray(injections, dtype=float)
        if inj.shape != (k, self._net.num_nodes):
            raise ValueError(
                f"expected injections of shape ({k}, {self._net.num_nodes}), "
                f"got {inj.shape}"
            )
        if k == 0:
            return np.empty((0, self._net.num_links))
        darr = np.asarray(dests, dtype=np.int64)
        if not self._reachable_from_everywhere():
            dist_rows = self._dist[darr]
            bad = ~np.isfinite(dist_rows) & (inj > 0)
            if bad.any():
                i, u = (int(x) for x in np.argwhere(bad)[0])
                raise RoutingError(f"node {dests[i]} unreachable from node {u}")
        return accumulate_rows(self._schedule(dests, darr), inj)

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
        out = mean_path_delays(self._schedule(dests, darr), link_delays)
        if not self._reachable_from_everywhere():
            out[~np.isfinite(self._dist[darr])] = np.inf
        return out

    def pair_link_fractions(self, src: int, dst: int) -> np.ndarray:
        """Fraction of the ``(src, dst)`` flow crossing each link.

        The fractions of the links out of any traversed node sum to the
        fraction entering that node, so ``pair_link_fractions(s, t) @ D``
        is the pair's mean path delay — the single-pair oracle of
        :meth:`path_delays`.  Builds a one-row schedule per call.

        Raises:
            RoutingError: if ``dst`` is unreachable from ``src``.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        dist = self._dist[dst]
        if not np.isfinite(dist[src]):
            raise RoutingError(f"node {dst} unreachable from node {src}")
        net = self._net
        schedule = build_schedule(
            self.ensure_dags([dst]), net.link_destinations(), net.num_nodes, net.num_links
        )
        inj = np.zeros((1, net.num_nodes))
        inj[0, src] = 1.0
        return accumulate_rows(schedule, inj)[0]

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

    def _materialize_pending_dags(self) -> None:
        """Slice deferred fused-pass DAG arrays into the ``_dags`` cache.

        :meth:`destination_rows` keeps the flattened arrays of its fused
        build instead of slicing ``DestinationDag`` tuples eagerly; any
        reader of the cache (or a second build) materializes them first,
        so the deferral is invisible outside this class.
        """
        if self._pending_dags is not None:
            dests, arrays = self._pending_dags
            self._pending_dags = None
            for t, dag in zip(dests, slice_destination_dags(dests, arrays)):
                self._dags[t] = dag

    def _reachable_from_everywhere(self) -> bool:
        """Whether every node reaches every node (no inf distances), cached."""
        if self._all_finite is None:
            self._all_finite = bool(np.isfinite(self._dist).all())
        return self._all_finite

    def _schedule(self, dests: list[int], darr: np.ndarray) -> Schedule:
        """The compiled schedule of the row list ``dests``, cached by list."""
        key = darr.tobytes()
        schedule = self._dest_schedules.get(key)
        if schedule is not None:
            return schedule
        net, k = self._net, len(dests)
        self._materialize_pending_dags()
        uncached = [t for t in dict.fromkeys(dests) if t not in self._dags]
        if len(uncached) == k:
            # No destination cached and no repeats: build the DAG arrays
            # and their schedule in one fused pass.  The per-destination
            # tuples are sliced out lazily — the evaluator's load-mode
            # passes only ever run the schedule, so the slicing cost
            # would be pure overhead on the hottest path.
            if k == net.num_nodes and np.array_equal(darr, np.arange(k)):
                dist_rows = self._dist
            else:
                dist_rows = self._dist[darr]
            arrays, schedule = build_arrays_and_schedule(
                net, self._weights, dist_rows, dests, net.link_destinations()
            )
            self._pending_dags = (dests, arrays)
        else:
            schedule = build_schedule(
                self.ensure_dags(dests), net.link_destinations(), net.num_nodes, net.num_links
            )
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
            # With every node a stale destination, the transpose view skips
            # a full-matrix column gather (the kernel copies anyway).
            fresh = routing.destination_rows(
                ts, demands.T if ts.size == demands.shape[1] else demands[:, ts].T
            )
            if redo.size == len(rows):
                rows = fresh
            else:
                rows[redo] = fresh
        loads = np.zeros(rows.shape[1])
        for row in rows:
            loads += row
        return cls(routing, rows, loads)
