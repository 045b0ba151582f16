"""Reference paths the production code is checked against; nothing in
:mod:`repro` runs them.  The differential suites compare to them bit for
bit and the benchmarks time against them:

* :class:`ScalarRouting` / :class:`ScalarEvaluator` — the scalar Python
  loops the struct-of-arrays kernels of :mod:`repro.routing.soa` replay
  (DAG masks, per-destination accumulation, pair fractions);
* :class:`NaiveSweepEngine` / :class:`ReferenceSession` — the naive
  per-scenario rebuild: a fresh degraded routing and a full load pass per
  scenario, with no shared projections, derived routings or reused rows.

Each overrides only what differs; validation, costing and stats shapes
are the production code itself.
"""

from __future__ import annotations

import numpy as np

from repro.api.session import Session
from repro.core.evaluator import DualTopologyEvaluator
from repro.routing.spf import (
    RoutingError,
    descending_distance_order,
    shortest_path_dag_mask,
)
from repro.routing.state import Routing
from repro.scenarios.batch import SweepEngine


class ScalarRouting(Routing):
    """A routing whose per-destination work runs the scalar loops."""

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

    def pair_fraction_rows(self, dst: int, sources) -> np.ndarray:
        sources = [int(s) for s in sources]
        rows = np.empty((len(sources), self._net.num_links))
        for i, s in enumerate(sources):
            rows[i] = self.pair_link_fractions(s, dst)
        return rows


class ScalarEvaluator(DualTopologyEvaluator):
    """The evaluator over :class:`ScalarRouting` routings."""

    _routing_class = ScalarRouting


class NaiveSweepEngine(SweepEngine):
    """The sweep engine with every reuse path off: one rebuild per scenario."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for cls in (self._high, self._low):
            cls.index = {}  # no intact load row is ever reused

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
