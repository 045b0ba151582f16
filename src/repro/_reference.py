"""Reference paths the production code is checked against; nothing in
:mod:`repro` runs them.  The differential suites compare to them bit for
bit and the benchmarks time against them:

* :class:`ScalarRouting` / :class:`ScalarEvaluator` — the scalar Python
  loops the struct-of-arrays kernels of :mod:`repro.routing.soa` replay
  (list-form DAGs from the slack mask, per-destination accumulation,
  the interleaved all-destination :meth:`ScalarRouting.link_loads`, pair
  fractions, mean path delays), one routing at a time even where the
  evaluator batches a search step's siblings;
* :class:`RebuildEvaluator` — the evaluator with the incremental-SPF
  delta path off: every cache-missed layer is built from scratch;
* :class:`NaiveSweepEngine` / :class:`ReferenceSession` — the naive
  per-scenario rebuild: a fresh degraded routing and a full load pass per
  scenario, with no shared projections, derived routings or reused rows.

Each overrides only what differs; validation, costing and stats shapes
are the production code itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.api.session import Session
from repro.core.evaluator import DualTopologyEvaluator
from repro.routing.spf import (
    RoutingError,
    descending_distance_order,
    shortest_path_dag_mask,
)
from repro.routing.state import Routing, active_destinations
from repro.scenarios.batch import SweepEngine


class ScalarRouting(Routing):
    """A routing whose per-destination work runs the scalar loops.

    Its DAGs are per-node lists of out-links built from the slack mask
    and cached per instance; derived children share only the CSR DAGs.
    """

    @cached_property
    def _dag_out(self) -> dict[int, list[list[int]]]:
        return {}

    def dag_out_links(self, dst: int) -> list[list[int]]:
        cached = self._dag_out.get(dst)
        if cached is not None:
            return cached
        mask = shortest_path_dag_mask(self._net, self._weights, self._dist[dst])
        out = [[] for _ in range(self._net.num_nodes)]
        sources = self._net.link_sources()
        for link_idx in np.flatnonzero(mask):
            out[sources[link_idx]].append(int(link_idx))
        self._dag_out[dst] = out
        return out

    def link_loads(self, traffic) -> np.ndarray:
        """Every active destination's shares added into one accumulator,
        interleaved, in ascending destination order."""
        demands = self._demand_array(traffic)
        loads = np.zeros(self._net.num_links)
        link_dst = self._net.link_destinations()
        for t in active_destinations(demands):
            self._accumulate_destination(int(t), demands[:, t], loads, link_dst)
        return loads

    def destination_rows(self, dests, injections: np.ndarray) -> np.ndarray:
        dests = [int(t) for t in dests]
        inj = np.asarray(injections, dtype=float)
        if inj.shape != (len(dests), self._net.num_nodes):
            raise ValueError(
                f"expected injections of shape ({len(dests)}, {self._net.num_nodes}), "
                f"got {inj.shape}"
            )
        rows = np.zeros((len(dests), self._net.num_links))
        link_dst = self._net.link_destinations()
        for i, t in enumerate(dests):
            self._accumulate_destination(t, inj[i], rows[i], link_dst)
        return rows

    @classmethod
    def batch_destination_rows(cls, requests) -> list[np.ndarray]:
        """One scalar :meth:`destination_rows` per request."""
        return [routing.destination_rows(dests, inj) for routing, dests, inj in requests]

    @classmethod
    def batch_path_delays(cls, requests) -> list[np.ndarray]:
        """One scalar :meth:`path_delays` per request."""
        return [routing.path_delays(dests, delays) for routing, dests, delays in requests]

    def _accumulate_destination(
        self,
        t: int,
        injections: np.ndarray,
        loads: np.ndarray,
        link_dst: np.ndarray,
    ) -> None:
        """Add destination ``t``'s ECMP shares into ``loads``: nodes
        farthest first, each node's flow split evenly over its out-links."""
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

    def pair_link_fractions(self, src: int, dst: int) -> np.ndarray:
        if src == dst:
            raise ValueError("src and dst must differ")
        dist = self._dist[dst]
        if not np.isfinite(dist[src]):
            raise RoutingError(f"node {dst} unreachable from node {src}")
        dag_out = self.dag_out_links(dst)
        node_frac = np.zeros(self._net.num_nodes)
        node_frac[src] = 1.0
        fractions = np.zeros(self._net.num_links)
        for u in descending_distance_order(dist):
            u = int(u)
            if node_frac[u] <= 0.0 or u == dst or dist[u] > dist[src]:
                continue
            out = dag_out[u]
            share = node_frac[u] / len(out)
            for link_idx in out:
                fractions[link_idx] += share
                node_frac[self._net.link(link_idx).dst] += share
        return fractions

    def path_delays(self, dests, link_delays: np.ndarray) -> np.ndarray:
        dests = [int(t) for t in dests]
        delays = np.asarray(link_delays, dtype=float)
        if delays.shape != (self._net.num_links,):
            raise ValueError(
                f"expected link delays of shape ({self._net.num_links},), "
                f"got {delays.shape}"
            )
        out = np.zeros((len(dests), self._net.num_nodes))
        link_dst = self._net.link_destinations()
        for i, t in enumerate(dests):
            dist = self._dist[t]
            dag_out = self.dag_out_links(t)
            row = out[i]
            for u in descending_distance_order(dist)[::-1]:  # closest first
                u = int(u)
                if u == t:
                    continue
                total = 0.0
                for link_idx in dag_out[u]:  # ascending link index
                    total += delays[link_idx] + row[link_dst[link_idx]]
                row[u] = total / len(dag_out[u])
            row[~np.isfinite(dist)] = np.inf
        return out


class ScalarEvaluator(DualTopologyEvaluator):
    """The evaluator over :class:`ScalarRouting` routings."""

    _routing_class = ScalarRouting


class RebuildEvaluator(DualTopologyEvaluator):
    """The evaluator that derives nothing: every missed layer is rebuilt."""

    @staticmethod
    def _child(base, key, delta):
        child, child_key, _hint = DualTopologyEvaluator._child(base, key, delta)
        return child, child_key, None


class NaiveSweepEngine(SweepEngine):
    """The sweep engine with every reuse path off: one rebuild per scenario."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for cls in (self._high, self._low):
            cls.row_of = np.full_like(cls.row_of, -1)  # no intact row is reused

    def _lower(self, scenario):
        return scenario.lower(self._net, self._high_tm, self._low_tm, projections=None)

    def _prefetch_routings(self, lowereds) -> None:
        pass

    def _class_routing(self, cls, projection, memoize: bool = True) -> Routing:
        self.stats["full_routings"] += 1
        return Routing(projection.network, projection.project_weights(cls.weights))


class ReferenceSession(Session):
    """A session whose scenario queries run on :class:`NaiveSweepEngine`."""

    def _sweep_engine_class(self) -> type[SweepEngine]:
        return NaiveSweepEngine
