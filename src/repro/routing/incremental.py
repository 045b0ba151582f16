"""Incremental SPF: derive a child routing from a parent that differs a little.

The local searches (FindH/FindL, the STR single-weight-change baseline,
simulated annealing) evaluate thousands of weight settings that differ
from an already-evaluated parent in one or two link weights, and the
scenario engine (:mod:`repro.scenarios.batch`) evaluates networks that
differ from the intact one in a few failed links — yet a fresh
:class:`~repro.routing.state.Routing` recomputes everything (the classic
bottleneck of the weight-search literature, Fortz & Thorup).  A change
can only alter the routing toward destinations whose shortest-path
structure involves a changed link,

* **increase** ``w -> w'`` or **removal** of a link ``(u, v)``: only
  destinations whose SP DAG *used* the link, i.e.
  ``dist(u, t) == w + dist(v, t)`` (the slack test of
  :func:`repro.routing.spf.shortest_path_dag_mask`, shared by
  :func:`affected_destinations` and :func:`destinations_using_links`);
* **decrease** ``w -> w'``: only destinations where the cheaper link
  (weakly) undercuts the incumbent distance,
  ``w' + dist(v, t) <= dist(u, t)`` (strict improvement shortens the
  distance; equality leaves distances intact but adds an ECMP branch).

For every other destination both the distance row and the SP DAG are
provably unchanged, so :func:`derive_children` — the one parent-to-child
derivation both deltas use — re-runs Dijkstra restricted to the affected
destinations and copies all other rows from the parent.  For multi-link
deltas the affected set is the union of the per-link tests, each
evaluated against the parent's distances — increases cannot shorten any
path, and a decrease failing its test cannot undercut any distance even
combined with the others.  This module only derives routings; the
callers (:mod:`repro.core.evaluator`, :mod:`repro.scenarios.batch`)
reuse per-destination load rows on top, each by its own rule, and build
a class's loads through :meth:`repro.routing.state.ClassLoads.refresh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import obs
from repro.network.graph import Network
from repro.routing.spf import (
    _DISTANCE_ATOL,
    distances_to_all,
    distances_to_subset,
    distances_to_subsets_batched,
)
from repro.routing.state import Routing

# Out-of-band telemetry (rule RL006): incremental-derivation shape/latency.
_OBS_DERIVE_SECONDS = obs.histogram(
    "repro_routing_kernel_seconds",
    "Routing-kernel latency by kernel.",
    {"kernel": "derive_routing"},
)
_OBS_AFFECTED = obs.histogram(
    "repro_routing_affected_destinations",
    "Affected-destination set size per derived routing.",
    buckets=obs.SIZE_BUCKETS,
)

DEFAULT_FALLBACK_FRACTION = 0.5
"""Affected-destination fraction above which a topology child gets a full SPF."""


def _integer(value, link, what: str) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming ``link``: never
    truncated, as a bare ``int()`` would turn ``7.9`` into ``7``."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"link {link}: {what} {value} is not an integer")
    return as_int


def integer_weights(weights) -> np.ndarray:
    """``weights`` as an int64 vector, not copied if it is one already; a
    weight that is not an integer raises :func:`_integer`'s ``ValueError``
    naming its link, where a bare int64 cast would truncate it."""
    arr = np.asarray(weights)
    if arr.dtype.kind not in "biu":
        for link, value in enumerate(arr.tolist()):
            _integer(value, link, "weight")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class WeightDelta:
    """A sparse difference between two link-weight vectors.

    Attributes:
        changes: ``(link_index, old_weight, new_weight)`` triples, one per
            changed link, sorted by link index.  ``old_weight`` pins the
            parent vector the delta applies to, so :meth:`apply` can catch
            mismatched parents.

    Raises:
        ValueError: naming the link, on a negative or non-integral link
            index or a non-integral weight.
    """

    changes: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        changes = []
        for link, old_w, new_w in self.changes:
            link = _integer(link, link, "index")
            old_w, new_w = _integer(old_w, link, "weight"), _integer(new_w, link, "weight")
            if link < 0:
                raise ValueError(f"link {link}: negative index")
            if old_w == new_w:
                raise ValueError(f"no-op change on link {link} (weight {old_w})")
            if old_w <= 0 or new_w <= 0:
                raise ValueError(f"link {link}: weights must be positive")
            changes.append((link, old_w, new_w))
        links = [link for link, _, _ in changes]
        if len(set(links)) != len(links):
            raise ValueError(f"duplicate links in delta: {links}")
        object.__setattr__(self, "changes", tuple(sorted(changes)))

    @classmethod
    def single(cls, link: int, old_weight: int, new_weight: int) -> "WeightDelta":
        """The delta changing one link's weight."""
        return cls(changes=((link, old_weight, new_weight),))

    @classmethod
    def from_weights(cls, old: np.ndarray, new: np.ndarray) -> "WeightDelta":
        """The (possibly empty) delta turning vector ``old`` into ``new``."""
        old, new = np.asarray(old), np.asarray(new)
        if old.shape != new.shape:
            raise ValueError(f"shape mismatch: {old.shape} vs {new.shape}")
        changed = np.flatnonzero(old != new)
        return cls(changes=tuple((int(l), old[l], new[l]) for l in changed))

    @property
    def num_changes(self) -> int:
        """Number of links whose weight changes."""
        return len(self.changes)

    def links(self) -> tuple[int, ...]:
        """Indices of the changed links."""
        return tuple(link for link, _, _ in self.changes)

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """The child weight vector obtained by applying the delta.

        Raises:
            ValueError: if ``weights`` does not match the recorded old
                weights (the delta was built against a different parent),
                holds a weight that is not an integer, or a changed link
                lies outside it.
        """
        out = integer_weights(weights).copy()
        last = self.changes[-1][0] if self.changes else -1
        if last >= out.size:
            raise ValueError(f"link {last} outside a vector of {out.size} weights")
        for link, old_w, new_w in self.changes:
            if out[link] != old_w:
                raise ValueError(
                    f"delta expects weight {old_w} on link {link}, found {out[link]}"
                )
            out[link] = new_w
        return out


def _uses_link(
    dist: np.ndarray, srcs: np.ndarray, dsts: np.ndarray, link: int, weight, atol: float
) -> np.ndarray:
    """Destinations whose SP DAG uses ``link`` at ``weight`` (the slack test)."""
    to_u = dist[:, srcs[link]]
    to_v = dist[:, dsts[link]]
    finite = np.isfinite(to_u) & np.isfinite(to_v)
    with np.errstate(invalid="ignore"):  # inf - inf on unreachable endpoints
        return finite & (np.abs(to_u - (weight + to_v)) <= atol)


def affected_destinations(
    net: Network,
    dist: np.ndarray,
    delta: WeightDelta,
    atol: float = _DISTANCE_ATOL,
) -> np.ndarray:
    """Destinations whose SP structure can change under ``delta``.

    Args:
        net: The network.
        dist: Distance matrix of the *parent* weights
            (``dist[t, u] = dist(u, t)``).
        delta: The weight changes, relative to the parent.
        atol: Distance comparison tolerance.

    Returns:
        Sorted array of destination node indices; for every destination
        *not* returned, both the distance row and the SP DAG are
        guaranteed unchanged.
    """
    srcs = net.link_sources()
    dsts = net.link_destinations()
    mask = np.zeros(net.num_nodes, dtype=bool)
    for link, old_w, new_w in delta.changes:
        if new_w > old_w:
            mask |= _uses_link(dist, srcs, dsts, link, old_w, atol)
        else:
            to_u, to_v = dist[:, srcs[link]], dist[:, dsts[link]]
            mask |= np.isfinite(to_u) & np.isfinite(to_v) & (new_w + to_v <= to_u + atol)
    return np.flatnonzero(mask)


def destinations_using_links(
    net: Network,
    dist: np.ndarray,
    weights: np.ndarray,
    links,
    atol: float = _DISTANCE_ATOL,
) -> np.ndarray:
    """Destinations with some shortest path through any of ``links``.

    This is the link-*removal* affected set: removing a link can only
    lengthen paths, and only destinations whose SP DAG used it (the same
    slack test as the weight-increase case of
    :func:`affected_destinations`) can change.  For every destination
    *not* returned, both the distance row and the SP DAG over the
    surviving links are guaranteed unchanged — the pruning the scenario
    batch evaluator (:mod:`repro.scenarios.batch`) relies on to derive
    degraded-network routings from the intact one.

    Args:
        net: The intact network.
        dist: Distance matrix under ``weights`` (``dist[t, u] = dist(u, t)``).
        weights: The per-link weights ``dist`` was computed with.
        links: Directed link indices whose removal is being considered.
        atol: Distance comparison tolerance.

    Returns:
        Sorted array of destination node indices.
    """
    srcs = net.link_sources()
    dsts = net.link_destinations()
    w = np.asarray(weights, dtype=float)
    mask = np.zeros(net.num_nodes, dtype=bool)
    for link in links:
        link = int(link)
        mask |= _uses_link(dist, srcs, dsts, link, w[link], atol)
    return np.flatnonzero(mask)


def uses_full_spf(parent: Routing, net: Network, affected: np.ndarray) -> bool:
    """Whether :func:`derive_children` solves a child on ``net`` from scratch.

    A topology child (``net`` is a surviving network) with more than
    :data:`DEFAULT_FALLBACK_FRACTION` of its destinations affected is
    solved in full, which skips the parent-row copy and the isolated-node
    repair.  A weight-delta child always re-solves only its affected
    rows: on 100-node power-law searches about half of all moves affect
    more than half of the destinations, and solving those in full made
    the search about 8% slower.
    """
    return (
        net is not parent.network
        and affected.size > DEFAULT_FALLBACK_FRACTION * net.num_nodes
    )


def derive_children(parent: Routing, children) -> list[Routing]:
    """Child routings of ``parent``, re-solving only their affected rows.

    Each child is a ``(network, weights, affected)`` triple: ``network``
    is the parent's own network for a weight delta, or a surviving
    network (a subset of the parent's links) for a topology delta, and
    ``affected`` covers every destination whose distance row can differ
    from the parent's.  A child copies the parent's distance matrix and
    re-solves the affected rows — or every row, past the
    :func:`uses_full_spf` cutoff.  One child calls ``distances_to_subset``
    (or ``distances_to_all``) directly; several share one
    ``distances_to_subsets_batched`` solve.  Distances are exact sums of
    integer weights, so every child equals a from-scratch routing bit for
    bit, including the entries of nodes left with no links (``inf`` off
    the diagonal), which an affected set may not cover.

    A child shares nothing else with the parent: its schedules and DAGs
    are compiled from its own distance rows when first needed.  Children
    are of the parent's class.
    """
    children = [
        (net, weights, affected, uses_full_spf(parent, net, affected))
        for net, weights, affected in children
    ]
    if len(children) == 1:
        net, weights, affected, full = children[0]
        if full:
            blocks = [distances_to_all(net, weights)]
        else:
            blocks = [distances_to_subset(net, weights, affected)]
    else:
        blocks = distances_to_subsets_batched(
            (net, weights, np.arange(net.num_nodes) if full else affected)
            for net, weights, affected, full in children
        )
    out = []
    for (net, weights, affected, full), rows in zip(children, blocks):
        if full:
            dist = rows
        else:
            dist = parent.distance_matrix.copy()
            dist[affected] = rows
            if net is not parent.network:
                linked = np.zeros(net.num_nodes, dtype=bool)
                linked[net.link_sources()] = linked[net.link_destinations()] = True
                isolated = np.flatnonzero(~linked)
                if isolated.size:
                    dist[:, isolated] = dist[isolated, :] = np.inf
                    dist[isolated, isolated] = 0.0
        out.append(type(parent).from_precomputed(net, weights, dist))
    return out


def derive_routing(
    parent: Routing, delta: WeightDelta
) -> tuple[Routing, np.ndarray]:
    """Routing of ``delta`` applied to ``parent``, reusing unaffected state.

    Args:
        parent: The routing of the parent weight vector.
        delta: The weight changes, relative to the parent.

    Returns:
        ``(child, affected)``: a routing equivalent to
        ``Routing(net, delta.apply(parent.weights))`` — the distance rows
        of unaffected destinations are copied from the parent — and the
        affected-destination array, so callers can limit their own
        recomputation (e.g. per-destination load rows) to it.
    """
    started = perf_counter()
    net = parent.network
    affected = affected_destinations(net, parent.distance_matrix, delta)
    (child,) = derive_children(parent, [(net, delta.apply(parent.weights), affected)])
    _OBS_DERIVE_SECONDS.observe(perf_counter() - started)
    _OBS_AFFECTED.observe(affected.size)
    return child, affected
