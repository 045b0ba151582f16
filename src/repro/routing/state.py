"""Routing snapshot: one weight setting, its SP DAGs, and ECMP link loads."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Union

import numpy as np

from repro.network.graph import Network
from repro.routing.soa import (
    DestinationDag,
    Schedule,
    accumulate_rows,
    build_arrays_and_schedule,
    build_destination_dags,
    build_schedule,
    slice_destination_dags,
)
from repro.routing.spf import (
    RoutingError,
    descending_distance_order,
    distances_to_all,
)
from repro.routing.weights import as_weight_array
from repro.traffic.matrix import TrafficMatrix

DemandsLike = Union[TrafficMatrix, np.ndarray]

_PAIR_SCHEDULE_CAP = 64
"""Single-row pair-fraction schedules kept per routing (FIFO).  Bounds the
memory of long-lived memoized routings (the sweep engine keeps hundreds)
while covering every destination an SLA costing pass revisits."""

_DEST_SCHEDULE_CAP = 2
"""Multi-row destination schedules kept per routing (FIFO), keyed by the
requested destination list.  Two entries cover the evaluator's hot path —
the high and the low layer of one evaluation request rows for the same
active-destination list, so the second layer reuses the first layer's
compiled schedule — while keeping the worst case (two full-network
schedules) small next to the DAG cache itself."""


class Routing:
    """Immutable routing state for a single link-weight vector.

    Computes (and caches) all-destination shortest-path distances, the
    per-destination shortest-path DAGs, ECMP link loads for any traffic
    matrix, and per-pair link flow fractions — the primitives every cost
    function in the paper needs.

    Per-destination accumulation (:meth:`destination_rows`,
    :meth:`destination_link_loads`, :meth:`pair_link_fractions`) runs on
    the struct-of-arrays kernels of :mod:`repro.routing.soa`, which are
    bit-identical to the scalar Python reference loop kept in
    :class:`repro._reference.ScalarRouting` (the cross-check the
    differential suites pin down).
    """

    def __init__(self, net: Network, weights: Iterable[float]) -> None:
        self._net = net
        self._weights = as_weight_array(weights, net.num_links)
        self._dist = distances_to_all(net, self._weights)
        self._dist.setflags(write=False)
        self._dag_out: dict[int, list[list[int]]] = {}
        self._dags: dict[int, DestinationDag] = {}
        self._pending_dags: Optional[tuple[list[int], tuple]] = None
        self._pair_schedules: OrderedDict[int, Schedule] = OrderedDict()
        self._dest_schedules: OrderedDict[bytes, Schedule] = OrderedDict()
        self._all_finite: Optional[bool] = None

    @classmethod
    def from_precomputed(
        cls,
        net: Network,
        weights: Iterable[float],
        dist: np.ndarray,
        dag_out: Optional[dict[int, list[list[int]]]] = None,
        dags: Optional[dict[int, DestinationDag]] = None,
    ) -> "Routing":
        """Build a routing from an externally computed distance matrix.

        This is the constructor the incremental-SPF path uses
        (:func:`repro.routing.incremental.derive_children`): ``dist`` must
        equal ``distances_to_all(net, weights)`` and ``dag_out`` /
        ``dags`` may seed the per-destination DAG caches with entries
        that are known to be valid under ``weights`` (e.g. reused from a
        parent routing whose distance rows are unchanged).  No
        recomputation or validation is performed, so callers are
        responsible for consistency.  ``dist`` is marked read-only: it is
        shared state from this point on.
        """
        routing = cls.__new__(cls)
        routing._net = net
        routing._weights = as_weight_array(weights, net.num_links)
        dist.setflags(write=False)
        routing._dist = dist
        routing._dag_out = dict(dag_out) if dag_out else {}
        routing._dags = dict(dags) if dags else {}
        routing._pending_dags = None
        routing._pair_schedules = OrderedDict()
        routing._dest_schedules = OrderedDict()
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

    def dag_cache(self) -> dict[int, list[list[int]]]:
        """The per-destination SP DAG cache built so far (``dst -> out-links``).

        Exposed so the incremental-SPF path can reuse DAGs of destinations
        whose distance rows are unchanged; treat entries as read-only.
        """
        return self._dag_out

    def soa_dag_cache(self) -> dict[int, DestinationDag]:
        """The CSR-form per-destination DAG cache (``dst -> DestinationDag``).

        The struct-of-arrays counterpart of :meth:`dag_cache`, shared the
        same way by :func:`repro.routing.incremental.derive_children`;
        treat entries as read-only.
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
        """Per-node outgoing link indices on the shortest-path DAG toward ``dst``."""
        cached = self._dag_out.get(dst)
        if cached is not None:
            return cached
        dag = self.ensure_dags([dst])[0]
        out = [
            dag.links[dag.indptr[u] : dag.indptr[u + 1]].tolist()
            for u in range(self._net.num_nodes)
        ]
        self._dag_out[dst] = out
        return out

    def next_hops(self, src: int, dst: int) -> list[int]:
        """ECMP next hops from ``src`` toward ``dst`` (empty if unreachable or src==dst)."""
        if src == dst:
            return []
        return [self._net.link(l).dst for l in self.dag_out_links(dst)[src]]

    # ------------------------------------------------------------------
    # Load model
    # ------------------------------------------------------------------
    def link_loads(self, traffic: DemandsLike) -> np.ndarray:
        """Per-link loads under even ECMP splitting of ``traffic``.

        For each destination ``t``, nodes are processed in order of
        decreasing distance to ``t``; each node's accumulated flow toward
        ``t`` (locally originated plus transit) splits evenly over its
        shortest-path DAG out-links.

        This entry point deliberately keeps the scalar reference loop: it
        interleaves per-destination additions into one
        shared accumulator, an addition grouping the row-based kernels
        cannot reproduce bitwise, and its exact bits feed
        :func:`repro.traffic.scaling.scale_to_utilization` (and through
        it every search trajectory).

        Args:
            traffic: Traffic matrix (or raw ``n x n`` demand array) in Mb/s.

        Returns:
            Vector of link loads (Mb/s), indexed by link index.

        Raises:
            RoutingError: if any positive demand has no path to its
                destination.
        """
        demands = self._demand_array(traffic)
        loads = np.zeros(self._net.num_links)
        link_dst = self._net.link_destinations()
        for t in np.flatnonzero(demands.sum(axis=0) > 0):
            self._accumulate_destination(int(t), demands[:, t], loads, link_dst)
        return loads

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
        key = darr.tobytes()
        schedule = self._dest_schedules.get(key)
        if schedule is None:
            net = self._net
            self._materialize_pending_dags()
            uncached = [t for t in dict.fromkeys(dests) if t not in self._dags]
            if len(uncached) == k:
                # No destination cached and no repeats: build the DAG
                # arrays and their schedule in one fused pass.  The
                # per-destination tuples are sliced out lazily — the
                # evaluator's load-mode passes only ever run the
                # schedule, so the slicing cost would be pure overhead
                # on the hottest path.
                if k == net.num_nodes and np.array_equal(darr, np.arange(k)):
                    dist_rows = self._dist
                else:
                    dist_rows = self._dist[darr]
                arrays, schedule = build_arrays_and_schedule(
                    net, self._weights, dist_rows, dests, net.link_destinations()
                )
                self._pending_dags = (dests, arrays)
            else:
                dags = self.ensure_dags(dests)
                schedule = build_schedule(
                    dags, net.link_destinations(), net.num_nodes, net.num_links
                )
            while len(self._dest_schedules) >= _DEST_SCHEDULE_CAP:
                self._dest_schedules.popitem(last=False)
            self._dest_schedules[key] = schedule
        return accumulate_rows(schedule, inj)

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

    def pair_link_fractions(self, src: int, dst: int) -> np.ndarray:
        """Fraction of the ``(src, dst)`` flow crossing each link.

        The fractions of the links out of any traversed node sum to the
        fraction entering that node, so path delay can be averaged as
        ``sum_l fraction(l) * delay(l)`` (delay is additive along paths and
        splitting is flow-proportional).

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
        return accumulate_rows(self._pair_schedule(dst), inj)[0]

    def pair_fraction_rows(self, dst: int, sources) -> np.ndarray:
        """Pair fractions toward ``dst`` for many sources in one kernel pass.

        Row ``i`` equals ``pair_link_fractions(sources[i], dst)`` — the
        batching the SLA evaluator layer rides (all pairs sharing a
        destination share its DAG and schedule).

        Raises:
            ValueError: if any source equals ``dst``.
            RoutingError: if ``dst`` is unreachable from any source
                (reported for the first offending source in order).
        """
        sources = [int(s) for s in sources]
        dist = self._dist[dst]
        for s in sources:
            if s == dst:
                raise ValueError("src and dst must differ")
            if not np.isfinite(dist[s]):
                raise RoutingError(f"node {dst} unreachable from node {s}")
        if not sources:
            return np.empty((0, self._net.num_links))
        dag = self.ensure_dags([dst])[0]
        schedule = build_schedule(
            [dag] * len(sources),
            self._net.link_destinations(),
            self._net.num_nodes,
            self._net.num_links,
        )
        inj = np.zeros((len(sources), self._net.num_nodes))
        inj[np.arange(len(sources)), sources] = 1.0
        return accumulate_rows(schedule, inj)

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
        dag_out = self.dag_out_links(dst)
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
            for link_idx in dag_out[node]:
                stack.append(path + [self._net.link(link_idx).dst])
        return sorted(paths)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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

    def _pair_schedule(self, dst: int) -> Schedule:
        """A cached single-row schedule for destination ``dst``."""
        schedule = self._pair_schedules.get(dst)
        if schedule is None:
            dag = self.ensure_dags([dst])[0]
            schedule = build_schedule(
                [dag],
                self._net.link_destinations(),
                self._net.num_nodes,
                self._net.num_links,
            )
            while len(self._pair_schedules) >= _PAIR_SCHEDULE_CAP:
                self._pair_schedules.popitem(last=False)
            self._pair_schedules[dst] = schedule
        return schedule

    def _demand_array(self, traffic: DemandsLike) -> np.ndarray:
        demands = traffic.demands if isinstance(traffic, TrafficMatrix) else np.asarray(traffic, dtype=float)
        n = self._net.num_nodes
        if demands.shape != (n, n):
            raise ValueError(f"expected demands of shape ({n}, {n}), got {demands.shape}")
        return demands

    def _accumulate_destination(
        self,
        t: int,
        injections: np.ndarray,
        loads: np.ndarray,
        link_dst: np.ndarray,
    ) -> None:
        """The scalar reference loop the SoA kernels are checked against."""
        dist = self._dist[t]
        unreachable = ~np.isfinite(dist) & (injections > 0)
        if np.any(unreachable):
            bad = int(np.flatnonzero(unreachable)[0])
            raise RoutingError(f"node {t} unreachable from node {bad}")
        dag_out = self.dag_out_links(t)
        flow = injections.astype(float).copy()
        for u in descending_distance_order(dist):
            u = int(u)
            if u == t or flow[u] <= 0.0:
                continue
            out = dag_out[u]
            share = flow[u] / len(out)
            for link_idx in out:
                loads[link_idx] += share
                flow[link_dst[link_idx]] += share

    def __repr__(self) -> str:
        return f"Routing(net={self._net.name!r}, links={self._net.num_links})"
