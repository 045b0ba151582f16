"""The composable scenario algebra.

A :class:`Scenario` is a declarative description of one degraded
condition a weight setting may face: losing links (single or multiple
adjacencies, a node, an SRLG) and/or a traffic change (uniform scale, a
destination shift, a hot-spot surge).  Scenarios compose with
:func:`compose`, and every scenario — atomic or composed — *lowers* to
one normalized :class:`LoweredScenario`:

    ``(surviving network, projected weights, transformed traffic)``

plus an explicit account of the demand that can no longer be routed.
Lowering is a pure function of ``(scenario, network, traffic)``: calling
it twice yields equal results, composition of scenarios with disjoint
element sets is order-insensitive, and composing flattens (see
``tests/test_scenarios_properties.py`` for the executable laws).

Disconnected demand is never dropped silently: any source-destination
pair with positive demand that the surviving network cannot route is
zeroed out of the *routable* traffic matrices, listed in
``disconnected_pairs``, and summed into ``lost_demand``, so evaluators
can both proceed (over the routable remainder) and report the loss.
Demands to or from a failed node are handled by the same mechanism —
an isolated node is unreachable, so its pairs surface as disconnected.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from repro.lru import LruCache
from repro.network.graph import Network
from repro.scenarios.projection import TopologyProjection
from repro.traffic.matrix import TrafficMatrix, check_factor, scale_by

ElementKey = tuple
"""An element a scenario touches: ``("adj", u, v)`` for a duplex
adjacency, ``("node", n)`` for a node, ``("traffic", ...)`` /
``("traffic-node", n)`` for traffic dimensions.  Scenarios with disjoint
element-key sets are independent: composing them is order-insensitive."""


def _spec_float(value: float) -> str:
    """A float literal for spec strings: ``repr`` minus the ``e+`` form.

    ``repr(1e16)`` is ``'1e+16'``, whose ``+`` would collide with the
    composition separator and make the emitted spec unparseable;
    ``float()`` accepts the exponent without the sign, so it is dropped.
    The result still round-trips exactly (shortest-repr semantics).
    """
    return repr(float(value)).replace("e+", "e")


class LoweredScenario:
    """The normalized form every scenario lowers to.

    Attributes:
        kind: The originating scenario's kind string.
        description: Human-readable scenario summary (not part of
            equality — ``compose(a, b)`` and ``compose(b, a)`` describe
            themselves differently but lower to equal forms).
        projection: The topology projection (surviving network + maps).
        high_traffic: Routable transformed high-priority traffic.
        low_traffic: Routable transformed low-priority traffic.
        disconnected_pairs: ``(s, t)`` pairs with positive transformed
            demand (either class) that the surviving network cannot
            route, sorted.
        lost_demand: Total demand volume (Mb/s, both classes) on those
            pairs.
    """

    def __init__(
        self,
        kind: str,
        description: str,
        projection: TopologyProjection,
        high_traffic: TrafficMatrix,
        low_traffic: TrafficMatrix,
        disconnected_pairs: tuple[tuple[int, int], ...],
        lost_demand: float,
    ) -> None:
        self.kind = kind
        self.description = description
        self.projection = projection
        self.high_traffic = high_traffic
        self.low_traffic = low_traffic
        self.disconnected_pairs = disconnected_pairs
        self.lost_demand = lost_demand

    @property
    def network(self) -> Network:
        """The surviving network."""
        return self.projection.network

    @property
    def disconnected(self) -> bool:
        """Whether any positive demand pair became unroutable."""
        return bool(self.disconnected_pairs)

    def project_weights(self, weights) -> np.ndarray:
        """Projected weights: survivors keep their intact values."""
        return self.projection.project_weights(weights)

    def project_loads_back(self, loads: np.ndarray) -> np.ndarray:
        """Expand surviving-link loads to intact link indexing."""
        return self.projection.project_loads_back(loads)

    def __eq__(self, other: object) -> bool:
        # Deliberately ignores `description` (and `kind`): equality is of
        # the *normalized form*, the relation the algebra's laws
        # (order-insensitivity, flattening, idempotence) are stated over.
        if not isinstance(other, LoweredScenario):
            return NotImplemented
        return (
            self.projection == other.projection
            and self.high_traffic == other.high_traffic
            and self.low_traffic == other.low_traffic
            and self.disconnected_pairs == other.disconnected_pairs
            and self.lost_demand == other.lost_demand
        )

    def __repr__(self) -> str:
        return (
            f"LoweredScenario(kind={self.kind!r}, "
            f"failed_links={len(self.projection.failed_links)}, "
            f"disconnected_pairs={len(self.disconnected_pairs)})"
        )


class Scenario(abc.ABC):
    """One degraded condition; lowers to a :class:`LoweredScenario`.

    Subclasses declare *what* fails or changes by overriding
    :meth:`failed_adjacencies`, :meth:`failed_nodes`, and
    :meth:`transform_traffic`; the shared :meth:`lower` turns that into
    the normalized form.
    """

    kind: ClassVar[str] = "abstract"

    # -- declarative surface --------------------------------------------
    def failed_adjacencies(self, net: Network) -> tuple[tuple[int, int], ...]:
        """Duplex ``(u, v)`` adjacencies this scenario fails (``u < v``)."""
        return ()

    def failed_nodes(self, net: Network) -> tuple[int, ...]:
        """Nodes this scenario fails (all incident links are removed)."""
        return ()

    def transform_traffic(
        self, high: TrafficMatrix, low: TrafficMatrix
    ) -> tuple[TrafficMatrix, TrafficMatrix]:
        """Transformed traffic matrices (identity by default)."""
        return high, low

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable one-line scenario summary."""

    @abc.abstractmethod
    def spec(self) -> str:
        """The canonical spec string of this scenario.

        The inverse of :func:`repro.scenarios.spec.parse_scenario`:
        ``parse_scenario(s.spec()) == s`` for every scenario, and two
        equal scenarios always produce byte-identical spec strings
        (components are emitted sorted, floats via ``repr`` so they
        survive a ``float()`` round trip).  The serving layer's plan
        cache keys on exactly this string, so spelling variants of one
        scenario (``"link:2-5,0-4"`` vs ``"link:0-4,2-5"``) share a
        cache entry.
        """

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        """The elements this scenario touches (see :data:`ElementKey`)."""
        keys: set[ElementKey] = set()
        for u, v in self.failed_adjacencies(net):
            keys.add(("adj", min(u, v), max(u, v)))
        for node in self.failed_nodes(net):
            keys.add(("node", node))
            for link in net.out_links(node):
                keys.add(("adj", min(node, link.dst), max(node, link.dst)))
        return frozenset(keys)

    # -- lowering --------------------------------------------------------
    def failed_link_indices(self, net: Network) -> tuple[int, ...]:
        """Directed link indices this scenario removes, sorted.

        Raises:
            ValueError: if a failed adjacency is not duplex in ``net`` or
                a failed node is out of range.
        """
        failed: set[int] = set()
        for u, v in self.failed_adjacencies(net):
            if not (net.has_link(u, v) and net.has_link(v, u)):
                raise ValueError(f"no duplex adjacency between {u} and {v}")
            failed.add(net.link_between(u, v).index)
            failed.add(net.link_between(v, u).index)
        for node in self.failed_nodes(net):
            if not 0 <= node < net.num_nodes:
                raise ValueError(
                    f"node {node} outside range [0, {net.num_nodes})"
                )
            failed.update(net.out_link_indices(node))
            failed.update(net.in_link_indices(node))
        return tuple(sorted(failed))

    def lower(
        self,
        net: Network,
        high: TrafficMatrix,
        low: TrafficMatrix,
        *,
        projections: Optional[Union[dict, LruCache]] = None,
    ) -> LoweredScenario:
        """Lower to the normalized ``(network, weights-map, traffic)`` form.

        Args:
            net: The intact network.
            high: Intact high-priority traffic.
            low: Intact low-priority traffic.
            projections: Optional shared projection cache (a dict or an
                LRU) keyed by the failed-link tuple; scenarios failing the
                same elements then share one surviving network (the batch
                evaluator passes its memo here).
        """
        failed = self.failed_link_indices(net)
        projection = projections.get(failed) if projections is not None else None
        if projection is None:
            projection = TopologyProjection(net, failed)
            if projections is not None:
                projections[failed] = projection
        high_t, low_t = self.transform_traffic(high, low)
        high_r, low_r, pairs, lost = _drop_disconnected(projection, high_t, low_t)
        return LoweredScenario(
            kind=self.kind,
            description=self.describe(),
            projection=projection,
            high_traffic=high_r,
            low_traffic=low_r,
            disconnected_pairs=pairs,
            lost_demand=lost,
        )

    def __str__(self) -> str:
        return self.spec()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _drop_disconnected(
    projection: TopologyProjection, high: TrafficMatrix, low: TrafficMatrix
) -> tuple[TrafficMatrix, TrafficMatrix, tuple[tuple[int, int], ...], float]:
    """Zero out demand pairs the surviving network cannot route.

    Returns ``(routable_high, routable_low, disconnected_pairs,
    lost_demand)``; the inputs are returned unchanged when everything is
    routable.
    """
    if projection.is_strongly_connected():
        return high, low, (), 0.0
    demand = high.demands + low.demands
    positive = demand > 0
    if not positive.any():
        return high, low, (), 0.0
    reach = projection.reachable()
    cut = positive & ~reach
    if not cut.any():
        return high, low, (), 0.0
    srcs, dsts = np.nonzero(cut)
    pairs = tuple(sorted(zip(srcs.tolist(), dsts.tolist())))
    lost = float(demand[cut].sum())
    high_d = high.demands.copy()
    low_d = low.demands.copy()
    high_d[cut] = 0.0
    low_d[cut] = 0.0
    return TrafficMatrix(high_d), TrafficMatrix(low_d), pairs, lost


# ----------------------------------------------------------------------
# Failure scenarios
# ----------------------------------------------------------------------
def _normalize_pairs(pairs) -> tuple[tuple[int, int], ...]:
    out = []
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"an adjacency needs two distinct nodes, got ({u}, {v})")
        out.append((min(u, v), max(u, v)))
    if not out:
        raise ValueError("at least one adjacency is required")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate adjacencies in {out}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class LinkFailure(Scenario):
    """Failure of one or more duplex adjacencies (weights unchanged)."""

    kind: ClassVar[str] = "link"
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _normalize_pairs(self.pairs))

    @classmethod
    def single(cls, u: int, v: int) -> "LinkFailure":
        """The classic single-adjacency failure."""
        return cls(pairs=((u, v),))

    def failed_adjacencies(self, net: Network) -> tuple[tuple[int, int], ...]:
        return self.pairs

    def describe(self) -> str:
        body = ", ".join(f"{u}-{v}" for u, v in self.pairs)
        label = "link failure" if len(self.pairs) == 1 else "multi-link failure"
        return f"{label} {body}"

    def spec(self) -> str:
        return "link:" + ",".join(f"{u}-{v}" for u, v in self.pairs)


@dataclass(frozen=True)
class NodeFailure(Scenario):
    """Failure of one or more nodes: every incident link is removed.

    The failed nodes stay in the node space (so traffic matrices and
    weight vectors keep their shape) but become isolated; their demand
    pairs surface through the explicit disconnected-demand accounting.
    """

    kind: ClassVar[str] = "node"
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(set(int(n) for n in self.nodes)))
        if not nodes:
            raise ValueError("at least one node is required")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def single(cls, node: int) -> "NodeFailure":
        return cls(nodes=(node,))

    def failed_nodes(self, net: Network) -> tuple[int, ...]:
        return self.nodes

    def describe(self) -> str:
        return f"node failure {', '.join(str(n) for n in self.nodes)}"

    def spec(self) -> str:
        return "node:" + ",".join(str(n) for n in self.nodes)


@dataclass(frozen=True)
class SrlgFailure(Scenario):
    """A shared-risk link group: adjacencies that fail together.

    Structurally a multi-link failure, but kept as its own class so
    sweep reports can attribute degradation to SRLG events (fiber cuts,
    shared conduits) separately from independent link failures.
    """

    kind: ClassVar[str] = "srlg"
    pairs: tuple[tuple[int, int], ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _normalize_pairs(self.pairs))
        # The name is embedded verbatim in the spec string
        # (``srlg:NAME=pairs``), so it must not contain grammar
        # metacharacters — otherwise ``parse_scenario(s.spec()) == s``
        # (the plan cache's keying law) would break.
        if self.name and not re.fullmatch(r"[A-Za-z0-9_.-]+", self.name):
            raise ValueError(
                f"srlg name {self.name!r} must match [A-Za-z0-9_.-]+ "
                "(it is embedded in the scenario spec grammar)"
            )

    def failed_adjacencies(self, net: Network) -> tuple[tuple[int, int], ...]:
        return self.pairs

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        keys = set(super().element_keys(net))
        if self.name:
            keys.add(("srlg", self.name))
        return frozenset(keys)

    def describe(self) -> str:
        body = ", ".join(f"{u}-{v}" for u, v in self.pairs)
        label = f"srlg {self.name}" if self.name else "srlg"
        return f"{label} failure {body}"

    def spec(self) -> str:
        body = ",".join(f"{u}-{v}" for u, v in self.pairs)
        return f"srlg:{self.name}={body}" if self.name else f"srlg:{body}"


# ----------------------------------------------------------------------
# Traffic scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficScale(Scenario):
    """Uniform rescale of both traffic classes (the growth/dip scenario)."""

    kind: ClassVar[str] = "scale"
    factor: float

    def __post_init__(self) -> None:
        check_factor(self.factor)

    def transform_traffic(self, high, low):
        return high.scaled(self.factor), low.scaled(self.factor)

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        return frozenset({("traffic", "scale")})

    def describe(self) -> str:
        return f"traffic scaled by {self.factor:g}x"

    def spec(self) -> str:
        return f"scale:{_spec_float(self.factor)}"


@dataclass(frozen=True)
class HotSpotSurge(Scenario):
    """All demand to and from one node scaled by ``factor`` (a flash crowd)."""

    kind: ClassVar[str] = "surge"
    node: int
    factor: float

    def __post_init__(self) -> None:
        check_factor(self.factor, "surge factor")

    def transform_traffic(self, high, low):
        def surge(tm: TrafficMatrix) -> TrafficMatrix:
            d = tm.demands.copy()
            d[self.node, :] = scale_by(d[self.node, :], self.factor, "surge factor")
            d[:, self.node] = scale_by(d[:, self.node], self.factor, "surge factor")
            return TrafficMatrix(d)

        return surge(high), surge(low)

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        return frozenset({("traffic-node", self.node)})

    def describe(self) -> str:
        return f"hot-spot surge at node {self.node} ({self.factor:g}x)"

    def spec(self) -> str:
        return f"surge:{self.node}x{_spec_float(self.factor)}"


@dataclass(frozen=True)
class TrafficShift(Scenario):
    """A fraction of all demand destined to ``src`` is redirected to ``dst``.

    Models a service migration or anycast re-homing: every origin ``o``
    keeps ``(1 - fraction)`` of its demand toward ``src`` and sends the
    rest toward ``dst``.  The origin ``o == dst`` keeps its full demand
    at ``src`` (a node cannot address traffic to itself) — an explicit
    rule, tested by the property suite.
    """

    kind: ClassVar[str] = "shift"
    src: int
    dst: int
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("shift needs two distinct destination nodes")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(
                f"shift fraction must be in [0, 1], got {self.fraction}"
            )

    def transform_traffic(self, high, low):
        def shift(tm: TrafficMatrix) -> TrafficMatrix:
            d = tm.demands.copy()
            moved = d[:, self.src] * self.fraction
            moved[self.dst] = 0.0  # dst cannot address itself
            d[:, self.src] -= moved
            d[:, self.dst] += moved
            return TrafficMatrix(d)

        return shift(high), shift(low)

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        return frozenset(
            {("traffic-node", self.src), ("traffic-node", self.dst)}
        )

    def describe(self) -> str:
        return (
            f"traffic shift {self.fraction:g} of demand to {self.src} "
            f"-> {self.dst}"
        )

    def spec(self) -> str:
        return f"shift:{self.src}>{self.dst}@{_spec_float(self.fraction)}"


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Compose(Scenario):
    """Several scenarios applied together (failures union, traffic chained).

    Nested compositions flatten on construction, so
    ``Compose((Compose((a, b)), c))`` equals ``Compose((a, b, c))``.
    When the parts' element sets are disjoint, the part order does not
    affect the lowered form (the order-insensitivity law).
    """

    kind: ClassVar[str] = "compose"
    parts: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        flat: list[Scenario] = []
        for part in self.parts:
            if isinstance(part, Compose):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise ValueError("compose needs at least one scenario")
        object.__setattr__(self, "parts", tuple(flat))

    def failed_adjacencies(self, net: Network) -> tuple[tuple[int, int], ...]:
        pairs: set[tuple[int, int]] = set()
        for part in self.parts:
            pairs.update(part.failed_adjacencies(net))
        return tuple(sorted(pairs))

    def failed_nodes(self, net: Network) -> tuple[int, ...]:
        nodes: set[int] = set()
        for part in self.parts:
            nodes.update(part.failed_nodes(net))
        return tuple(sorted(nodes))

    def transform_traffic(self, high, low):
        for part in self.parts:
            high, low = part.transform_traffic(high, low)
        return high, low

    def element_keys(self, net: Network) -> frozenset[ElementKey]:
        keys: set[ElementKey] = set()
        for part in self.parts:
            keys.update(part.element_keys(net))
        return frozenset(keys)

    def describe(self) -> str:
        return " + ".join(part.describe() for part in self.parts)

    def spec(self) -> str:
        return "+".join(part.spec() for part in self.parts)


def compose(*scenarios: Scenario) -> Scenario:
    """Compose scenarios; a single argument is returned unchanged.

    ``compose(a)`` is ``a`` and ``compose(a, compose(b, c))`` flattens to
    a three-part composition — the algebra's unit and associativity.
    """
    if not scenarios:
        raise ValueError("compose needs at least one scenario")
    if len(scenarios) == 1 and not isinstance(scenarios[0], Compose):
        return scenarios[0]
    return Compose(parts=tuple(scenarios))
