"""Topology projections: the surviving network after a set of links fail.

Every scenario class that removes capacity — single/multi-link failures,
node failures, SRLGs, and compositions of them — ultimately fails a
*set of directed link indices* of the intact network.  A
:class:`TopologyProjection` is the reusable artifact of that set: the
surviving :class:`~repro.network.graph.Network`, the index maps between
intact and surviving link spaces, and the (lazily computed) pairwise
reachability of the survivors.  Scenarios that fail the same elements
share one projection, which is what lets the batch evaluator
(:mod:`repro.scenarios.batch`) amortize network construction and
reachability analysis across a whole :class:`~repro.scenarios.ScenarioSet`.

The surviving network is sliced out of the intact one's arrays
(:meth:`~repro.network.graph.Network.sub_network`): endpoints,
capacities, delays and both CSR structures, with no per-link rebuild;
its :class:`~repro.network.link.Link` objects are built only if a
caller asks for them.  Surviving links keep the *relative order* of
their intact indices — the same convention as
:func:`repro.network.failures.remove_adjacency` — so per-link arrays
project between the two spaces with a single fancy index, and routing
computations over the surviving network are bit-identical to those over
a degraded network built from scratch.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.network.graph import Network


class TopologyProjection:
    """The surviving network after failing a set of directed links.

    Args:
        net: The intact network.
        failed_links: Directed link indices of ``net`` that fail.  An
            empty set yields the *identity projection*, which shares the
            intact network object (no copy) so routing state computed on
            it can be reused verbatim.

    Attributes:
        failed_links: The failed directed link indices, sorted.
        network: The surviving network (the intact one for the identity
            projection).
        surviving_links: Intact indices of the surviving links, in the
            order they appear in the surviving network.
    """

    def __init__(self, net: Network, failed_links: Iterable[int] = ()) -> None:
        failed = sorted(set(int(l) for l in failed_links))
        for l in failed:
            if not 0 <= l < net.num_links:
                raise ValueError(
                    f"failed link index {l} out of range [0, {net.num_links})"
                )
        self._intact = net
        self.failed_links: tuple[int, ...] = tuple(failed)
        self._surviving_array: Optional[np.ndarray] = None
        if not failed:
            self.network = net
            self.surviving_links: tuple[int, ...] = tuple(range(net.num_links))
        else:
            keep = np.ones(net.num_links, dtype=bool)
            keep[failed] = False
            self.network = net.sub_network(
                keep, name=f"{net.name}-minus-{len(failed)}-links"
            )
            self._surviving_array = np.flatnonzero(keep)
            self.surviving_links = tuple(self._surviving_array.tolist())
        self._link_map: Optional[np.ndarray] = None
        self._reachable: Optional[np.ndarray] = None
        self._strongly_connected: Optional[bool] = None
        self._isolated: Optional[tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def intact_network(self) -> Network:
        """The intact network the projection was built from."""
        return self._intact

    @property
    def is_identity(self) -> bool:
        """Whether no links fail (the surviving network *is* the intact one)."""
        return not self.failed_links

    @property
    def num_failed(self) -> int:
        """Number of failed directed links."""
        return len(self.failed_links)

    def link_map(self) -> np.ndarray:
        """Intact-to-surviving link index map (``-1`` for failed links)."""
        if self._link_map is None:
            mapping = np.full(self._intact.num_links, -1, dtype=np.int64)
            mapping[list(self.surviving_links)] = np.arange(
                len(self.surviving_links), dtype=np.int64
            )
            self._link_map = mapping
        return self._link_map

    def surviving_index_array(self) -> np.ndarray:
        """Surviving intact link indices as an array (for fancy indexing)."""
        if self._surviving_array is None:
            self._surviving_array = np.asarray(self.surviving_links, dtype=np.int64)
        return self._surviving_array

    # ------------------------------------------------------------------
    # Per-link projections
    # ------------------------------------------------------------------
    def project_weights(self, weights) -> np.ndarray:
        """Restrict a full per-link vector to the surviving links.

        Survivors keep their values — exactly the deployed OSPF/MT-OSPF
        behavior where weights are *not* re-optimized after a failure.
        """
        weights = np.asarray(weights)
        if weights.shape != (self._intact.num_links,):
            raise ValueError(
                f"expected a vector of length {self._intact.num_links}, "
                f"got shape {weights.shape}"
            )
        if self.is_identity:
            return weights
        return weights[self.surviving_index_array()]

    def project_loads_back(self, loads: np.ndarray) -> np.ndarray:
        """Expand surviving-link loads to intact indexing (failed links = 0)."""
        loads = np.asarray(loads, dtype=float)
        if loads.shape != (len(self.surviving_links),):
            raise ValueError(
                f"expected {len(self.surviving_links)} loads, got shape {loads.shape}"
            )
        full = np.zeros(self._intact.num_links)
        full[self.surviving_index_array()] = loads
        return full

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def isolated_nodes(self) -> tuple[int, ...]:
        """Nodes with no surviving links at all (failed nodes), cached.

        An isolated node can neither originate nor transit traffic in
        the surviving network — the property the batch evaluator's
        row-reuse test exploits.
        """
        if self._isolated is None:
            net = self.network
            linked = np.zeros(net.num_nodes, dtype=bool)
            linked[net.link_sources()] = linked[net.link_destinations()] = True
            self._isolated = tuple(np.flatnonzero(~linked).tolist())
        return self._isolated

    def is_strongly_connected(self) -> bool:
        """Whether every survivor reaches every other (cached).

        The cheap O(n + m) pre-check the disconnection filter runs before
        paying for the full reachability matrix — most single-element
        failures leave the network connected.
        """
        if self._strongly_connected is None:
            self._strongly_connected = self.network.is_strongly_connected()
        return self._strongly_connected

    def reachable(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: ``R[s, t]`` iff ``t`` is reachable from ``s``.

        Weight-independent; computed once per projection (unweighted
        all-pairs BFS via scipy) and cached.  The diagonal is ``True``.
        """
        if self._reachable is None:
            net = self.network
            n = net.num_nodes
            if self.is_strongly_connected():
                reach = np.ones((n, n), dtype=bool)
            elif net.num_links == 0:
                reach = np.eye(n, dtype=bool)
            else:
                graph = csr_matrix(
                    (
                        np.ones(net.num_links),
                        (net.link_sources(), net.link_destinations()),
                    ),
                    shape=(n, n),
                )
                hops = shortest_path(graph, method="D", unweighted=True)
                reach = np.isfinite(hops)
                np.fill_diagonal(reach, True)
            self._reachable = reach
        return self._reachable

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyProjection):
            return NotImplemented
        return (
            self.failed_links == other.failed_links
            and self._intact == other._intact
        )

    def __repr__(self) -> str:
        return (
            f"TopologyProjection(net={self._intact.name!r}, "
            f"failed={len(self.failed_links)}, "
            f"surviving={len(self.surviving_links)})"
        )


def project_topology(net: Network, failed_links: Iterable[int]) -> TopologyProjection:
    """Build (or trivially pass through) the projection failing ``failed_links``."""
    return TopologyProjection(net, failed_links)
