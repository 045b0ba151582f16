"""Directed network graph used by routing, traffic, and cost modules."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.network.link import DEFAULT_CAPACITY_MBPS, Link


class _LinkField:
    """A link-object field that a sliced network builds on first read.

    A non-data descriptor: a network built link by link has the field as
    its own attribute, which shadows this one.  On a sliced network the
    first read of any of the four fields builds all of them.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, net: Optional["Network"], owner=None):
        if net is None:
            return self
        net._build_links()
        return getattr(net, self.name)


class Network:
    """A directed multigraph-free network ``G = (V, E)``.

    Nodes are integers ``0 .. num_nodes - 1``.  Links are directed and at
    most one link may exist per ordered node pair.  Duplex (bidirectional)
    connections are represented by two directed links, which is how the
    paper counts links (e.g. the ISP topology has 16 nodes and 70 directed
    links = 35 duplex adjacencies).

    The class exposes numpy views (capacities, delays, endpoint arrays) that
    the routing and cost engines consume; these views are cached and the
    cache is invalidated whenever a link is added.

    A network is built link by link (:meth:`add_link`) or sliced out of
    another one (:meth:`sub_network`, how failures and scenario
    projections build the surviving network).  A sliced network starts
    from its arrays alone: its :class:`Link` objects, per-node adjacency
    lists and endpoint dict are built on first use, so the array
    consumers on the routing path never pay for them.
    """

    _links = _LinkField()
    _out = _LinkField()
    _in = _LinkField()
    _by_endpoints = _LinkField()

    def __init__(self, num_nodes: int, name: str = "network") -> None:
        if num_nodes < 2:
            raise ValueError(f"a network needs at least 2 nodes, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self.name = name
        self._num_links = 0
        self._links: list[Link] = []
        self._out: list[list[int]] = [[] for _ in range(num_nodes)]
        self._in: list[list[int]] = [[] for _ in range(num_nodes)]
        self._by_endpoints: dict[tuple[int, int], int] = {}
        self._cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(
        self,
        src: int,
        dst: int,
        capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
        prop_delay_ms: float = 1.0,
    ) -> Link:
        """Add a directed link and return it.

        Raises:
            ValueError: if either endpoint is out of range or a link between
                ``src`` and ``dst`` already exists.
        """
        self._check_node(src)
        self._check_node(dst)
        if (src, dst) in self._by_endpoints:
            raise ValueError(f"link {src}->{dst} already exists")
        link = Link(
            index=self._num_links,
            src=src,
            dst=dst,
            capacity_mbps=capacity_mbps,
            prop_delay_ms=prop_delay_ms,
        )
        self._links.append(link)
        self._out[src].append(link.index)
        self._in[dst].append(link.index)
        self._by_endpoints[(src, dst)] = link.index
        self._num_links += 1
        self._cache.clear()
        return link

    def add_duplex_link(
        self,
        u: int,
        v: int,
        capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
        prop_delay_ms: float = 1.0,
    ) -> tuple[Link, Link]:
        """Add both directions between ``u`` and ``v`` with identical attributes."""
        forward = self.add_link(u, v, capacity_mbps, prop_delay_ms)
        backward = self.add_link(v, u, capacity_mbps, prop_delay_ms)
        return forward, backward

    def sub_network(self, keep: np.ndarray, name: Optional[str] = None) -> "Network":
        """The network of the links ``keep`` selects, in this network's order.

        Endpoints, capacities and delays are sliced by the mask, and both
        CSR structures are derived from this network's, so surviving link
        ``k`` of the result is the ``k``-th kept link here and every
        per-link computation over the result is bit-identical to one over
        a network built link by link.  No link is re-validated: any subset
        of a valid network's links is valid.

        Args:
            keep: Boolean mask of shape ``(num_links,)``.
            name: Name of the result (this network's name by default).

        Raises:
            ValueError: if ``keep`` is not a boolean array of that shape.
        """
        if not (
            isinstance(keep, np.ndarray)
            and keep.dtype == bool
            and keep.shape == (self.num_links,)
        ):
            raise ValueError(f"keep must be a boolean array of shape ({self.num_links},)")
        sub = Network.__new__(Network)
        sub._num_nodes = self._num_nodes
        sub.name = self.name if name is None else name
        sub._num_links = int(np.count_nonzero(keep))
        # The sliced arrays are the sub-network's only record of its links
        # until _build_links builds the Link objects from them.
        cache = {
            "srcs": self.link_sources()[keep],
            "dsts": self.link_destinations()[keep],
            "capacities": self.capacities()[keep],
            "prop_delays": self.prop_delays()[keep],
        }
        # Kept links keep their relative order, so each CSR structure is
        # this one's with the dropped links filtered out and renumbered.
        renumber = np.cumsum(keep) - 1
        fwd_indptr, fwd_perm = self.forward_csr_structure()
        kept = keep[fwd_perm]
        cache["fwd_perm"] = renumber[fwd_perm[kept]]
        cache["fwd_indptr"] = np.concatenate(([0], np.cumsum(kept)))[fwd_indptr]
        rev_indptr, rev_indices, rev_perm = self.reverse_csr_structure()
        kept = keep[rev_perm]
        cache["rev_perm"] = renumber[rev_perm[kept]]
        cache["rev_indices"] = rev_indices[kept]
        cache["rev_indptr"] = np.concatenate(([0], np.cumsum(kept)))[rev_indptr]
        sub._cache = cache
        return sub

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return self._num_nodes

    @property
    def num_links(self) -> int:
        """Number of directed links ``|E|``."""
        return self._num_links

    @property
    def links(self) -> tuple[Link, ...]:
        """All links, ordered by index."""
        return tuple(self._links)

    def nodes(self) -> range:
        """Iterate node identifiers ``0 .. num_nodes - 1``."""
        return range(self._num_nodes)

    def link(self, index: int) -> Link:
        """Return the link with the given index."""
        return self._links[index]

    def out_links(self, node: int) -> list[Link]:
        """Links whose source is ``node``."""
        self._check_node(node)
        return [self._links[i] for i in self._out[node]]

    def in_links(self, node: int) -> list[Link]:
        """Links whose destination is ``node``."""
        self._check_node(node)
        return [self._links[i] for i in self._in[node]]

    def out_link_indices(self, node: int) -> list[int]:
        """Indices of links whose source is ``node`` (no copy of Link objects)."""
        return self._out[node]

    def in_link_indices(self, node: int) -> list[int]:
        """Indices of links whose destination is ``node``."""
        return self._in[node]

    def link_between(self, src: int, dst: int) -> Optional[Link]:
        """The directed link ``src -> dst`` or ``None`` if absent."""
        idx = self._by_endpoints.get((src, dst))
        return None if idx is None else self._links[idx]

    def has_link(self, src: int, dst: int) -> bool:
        """Whether the directed link ``src -> dst`` exists."""
        return (src, dst) in self._by_endpoints

    def degree(self, node: int) -> int:
        """Out-degree of ``node``; equals in-degree for duplex-built topologies."""
        self._check_node(node)
        return len(self._out[node])

    def undirected_degree(self, node: int) -> int:
        """Number of distinct neighbors of ``node`` in either direction."""
        self._check_node(node)
        neighbors = {self._links[i].dst for i in self._out[node]}
        neighbors.update(self._links[i].src for i in self._in[node])
        return len(neighbors)

    def neighbors(self, node: int) -> list[int]:
        """Out-neighbors of ``node``, in link-insertion order."""
        self._check_node(node)
        return [self._links[i].dst for i in self._out[node]]

    def duplex_pairs(self) -> list[tuple[int, int]]:
        """Unordered node pairs ``(u, v)`` with ``u < v`` connected in both directions."""
        pairs = []
        for (src, dst) in self._by_endpoints:
            if src < dst and (dst, src) in self._by_endpoints:
                pairs.append((src, dst))
        return sorted(pairs)

    # ------------------------------------------------------------------
    # Numpy views (cached)
    # ------------------------------------------------------------------
    def capacities(self) -> np.ndarray:
        """Per-link capacity vector (Mb/s), indexed by link index."""
        return self._link_array("capacities", "capacity_mbps", float)

    def prop_delays(self) -> np.ndarray:
        """Per-link propagation delay vector (ms), indexed by link index."""
        return self._link_array("prop_delays", "prop_delay_ms", float)

    def link_sources(self) -> np.ndarray:
        """Per-link source-node vector, indexed by link index."""
        return self._link_array("srcs", "src", np.int64)

    def link_destinations(self) -> np.ndarray:
        """Per-link destination-node vector, indexed by link index."""
        return self._link_array("dsts", "dst", np.int64)

    def reverse_csr_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR structure of the reversed graph, for repeated Dijkstra calls.

        Returns ``(indptr, indices, perm)`` such that
        ``csr_matrix((weights[perm], indices, indptr))`` is the transpose
        of the weighted adjacency matrix.  The structure depends only on
        the topology, so callers swap in new weight data without paying
        sparse-matrix construction on every shortest-path computation.
        """
        if "rev_indptr" not in self._cache:
            srcs = self.link_sources()
            dsts = self.link_destinations()
            perm = np.lexsort((srcs, dsts))
            counts = np.bincount(dsts, minlength=self._num_nodes)
            self._cache["rev_perm"] = perm
            self._cache["rev_indices"] = srcs[perm]
            self._cache["rev_indptr"] = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return (
            self._cache["rev_indptr"],
            self._cache["rev_indices"],
            self._cache["rev_perm"],
        )

    def forward_csr_structure(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-source grouping of link indices, for SoA DAG assembly.

        Returns ``(indptr, perm)``: ``perm`` lists link indices grouped
        by source node (ascending link index within each source — the
        stable sort preserves insertion order) and
        ``perm[indptr[u]:indptr[u+1]]`` are node ``u``'s out-links.
        Like :meth:`reverse_csr_structure`, the structure depends only on
        the topology and is cached.
        """
        if "fwd_indptr" not in self._cache:
            srcs = self.link_sources()
            counts = np.bincount(srcs, minlength=self._num_nodes)
            self._cache["fwd_perm"] = np.argsort(srcs, kind="stable")
            self._cache["fwd_indptr"] = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return self._cache["fwd_indptr"], self._cache["fwd_perm"]

    def weight_matrix(self, weights: Iterable[float]) -> np.ndarray:
        """Dense ``num_nodes x num_nodes`` matrix of link weights.

        Missing links hold ``inf``.  Used to feed scipy's Dijkstra.
        """
        w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=float)
        if w.shape != (self.num_links,):
            raise ValueError(f"expected {self.num_links} weights, got shape {w.shape}")
        if np.any(w <= 0):
            raise ValueError("link weights must be positive")
        mat = np.full((self._num_nodes, self._num_nodes), np.inf)
        mat[self.link_sources(), self.link_destinations()] = w
        return mat

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node along directed links."""
        if self.num_links == 0:
            return False
        fwd_indptr, fwd_perm = self.forward_csr_structure()
        rev_indptr, rev_indices, _ = self.reverse_csr_structure()
        return self._reaches_all(
            fwd_indptr, self.link_destinations()[fwd_perm]
        ) and self._reaches_all(rev_indptr, rev_indices)

    def copy(self) -> "Network":
        """Deep copy of the network."""
        return self.sub_network(np.ones(self.num_links, dtype=bool))

    def __repr__(self) -> str:
        return f"Network(name={self.name!r}, nodes={self._num_nodes}, links={self.num_links})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and np.array_equal(self.link_sources(), other.link_sources())
            and np.array_equal(self.link_destinations(), other.link_destinations())
            and np.allclose(self.capacities(), other.capacities())
            and np.allclose(self.prop_delays(), other.prop_delays())
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} outside range [0, {self._num_nodes})")

    def _reaches_all(self, indptr: np.ndarray, heads: np.ndarray) -> bool:
        """Whether node 0 reaches every node over CSR rows ``heads[indptr[u]:indptr[u+1]]``."""
        bounds = indptr.tolist()
        heads = heads.tolist()
        seen = [False] * self._num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            node = stack.pop()
            for nxt in heads[bounds[node]:bounds[node + 1]]:
                if not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    stack.append(nxt)
        return count == self._num_nodes

    def _build_links(self) -> None:
        """Build a sliced network's Link objects, adjacency and endpoint dict.

        They come from the sliced arrays, which stay cached until then:
        the one method that clears the cache, :meth:`add_link`, reads
        these fields before it does.
        """
        cache = self._cache
        srcs = cache["srcs"].tolist()
        dsts = cache["dsts"].tolist()
        links = [
            Link(index, src, dst, capacity, delay)
            for index, (src, dst, capacity, delay) in enumerate(
                zip(srcs, dsts, cache["capacities"].tolist(), cache["prop_delays"].tolist())
            )
        ]
        out: list[list[int]] = [[] for _ in range(self._num_nodes)]
        into: list[list[int]] = [[] for _ in range(self._num_nodes)]
        for index, (src, dst) in enumerate(zip(srcs, dsts)):
            out[src].append(index)
            into[dst].append(index)
        self._links = links
        self._out = out
        self._in = into
        self._by_endpoints = {pair: index for index, pair in enumerate(zip(srcs, dsts))}

    def _link_array(self, key: str, attr: str, dtype) -> np.ndarray:
        array = self._cache.get(key)
        if array is None:
            array = np.array([getattr(l, attr) for l in self._links], dtype=dtype)
            self._cache[key] = array
        return array
