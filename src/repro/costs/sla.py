"""SLA-based lexicographic objective ``S = <Lambda, Phi_L>`` (paper Section 3.2).

The mean link delay seen by high-priority traffic is modeled per Eq. 3 as

    ``D_l = s / C_l * (Phi_{H,l} / C_l + 1) + p_l``

where ``s`` is the mean packet size, ``p_l`` the propagation delay, and
``Phi_{H,l} / C_l`` approximates the M/M/1 term ``H_l / (C_l - H_l)`` [18].
Each high-priority pair ``(s, t)`` with mean end-to-end delay
``xi(s, t)`` above the SLA bound ``theta`` contributes a penalty
``a + b * (xi - theta)`` (Eq. 4, with a = 100, b = 1).

``xi(s, t)`` is the mean of the path delays over the pair's ECMP paths,
weighted by the even-split flow.  It is linear over the high routing's
shortest-path DAG toward ``t``: ``E_t(t) = 0`` and ``E_t(v)`` is the
mean over the DAG out-links ``l = (v -> u)`` of ``D_l + E_t(u)``.  One
reverse-level pass per evaluation (:meth:`Routing.path_delays
<repro.routing.state.Routing.path_delays>`) therefore yields ``xi`` for
every high-priority pair at once, with no per-pair link-fraction
vectors.  :func:`pair_delay_penalty` is the one fold of those delays
into violations and penalty; :meth:`repro.costs.pricing.HighPrice.with_pair_delays`,
the last step of the high half of every evaluation path's costing
pass, calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lexicographic import LexCost
from repro.network.graph import Network
from repro.routing.spf import RoutingError
from repro.routing.state import Routing
from repro.traffic.matrix import TrafficMatrix

PACKET_SIZE_BITS = 12000.0
"""Mean packet size ``s``: 1500 bytes."""


@dataclass(frozen=True)
class SlaParams:
    """SLA penalty parameters (paper defaults: theta=25 ms, a=100, b=1)."""

    theta_ms: float = 25.0
    penalty_const: float = 100.0
    penalty_per_ms: float = 1.0
    packet_size_bits: float = PACKET_SIZE_BITS

    def __post_init__(self) -> None:
        if self.theta_ms <= 0:
            raise ValueError(f"SLA bound theta must be positive, got {self.theta_ms}")
        if self.penalty_const < 0 or self.penalty_per_ms < 0:
            raise ValueError("penalty parameters must be non-negative")
        if self.packet_size_bits <= 0:
            raise ValueError("packet size must be positive")

    def relaxed(self, epsilon: float) -> "SlaParams":
        """A copy with the delay bound loosened to ``(1 + epsilon) * theta``."""
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        return SlaParams(
            theta_ms=self.theta_ms * (1.0 + epsilon),
            penalty_const=self.penalty_const,
            penalty_per_ms=self.penalty_per_ms,
            packet_size_bits=self.packet_size_bits,
        )

    def pair_penalty(self, delay_ms: float) -> float:
        """Penalty ``Lambda_(s,t)`` for one pair with end-to-end delay ``delay_ms``."""
        if delay_ms <= self.theta_ms:
            return 0.0
        return self.penalty_const + self.penalty_per_ms * (delay_ms - self.theta_ms)


def link_delays_ms(
    net: Network,
    high_loads: np.ndarray,
    per_link_high_cost: np.ndarray,
    packet_size_bits: float = PACKET_SIZE_BITS,
) -> np.ndarray:
    """Per-link mean delay for high-priority packets (Eq. 3), in ms.

    Capacities are in Mb/s, so transmission time of one packet is
    ``packet_size_bits / (capacity * 1e6)`` seconds, converted to ms.
    """
    capacities = net.capacities()
    transmission_ms = packet_size_bits / (capacities * 1e6) * 1e3
    queueing_factor = per_link_high_cost / capacities + 1.0
    return transmission_ms * queueing_factor + net.prop_delays()


class DemandPairs:
    """The demanded pairs of a traffic matrix and the destinations they need.

    Attributes:
        srcs, dsts: Aligned arrays of every pair with positive demand, in
            :meth:`TrafficMatrix.pairs` order (source-major).
        dests: The demanded destinations, ascending: the rows of the one
            path-delay pass that covers every pair (the list a class's
            load rows use, so a routing's compiled schedule is reused).
    """

    def __init__(self, traffic: TrafficMatrix) -> None:
        self.srcs, self.dsts = np.nonzero(traffic.demands)
        self.dests, self._rows = np.unique(self.dsts, return_inverse=True)

    def delays(self, path_delays: np.ndarray) -> np.ndarray:
        """``xi(s, t)`` per pair, read off a path-delay matrix over :attr:`dests`.

        Raises:
            RoutingError: if a demanded destination is unreachable from its
                source (reported for the first such pair in pair order).
        """
        xi = path_delays[self._rows, self.srcs]
        unreachable = np.flatnonzero(~np.isfinite(xi))
        if unreachable.size:
            i = unreachable[0]
            raise RoutingError(f"node {self.dsts[i]} unreachable from node {self.srcs[i]}")
        return xi


class PairDelays(dict):
    """A read-only ``{(s, t): xi}`` dict.

    Evaluations are cached and handed to every caller that asks for the
    same weights, so their pair delays must not change under a caller:
    every mutating method raises ``TypeError``.  It stays a ``dict`` for
    readers (equality, JSON, ``dict(...)`` copies).
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("pair delays are read-only; copy them with dict(...)")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = (
        _read_only
    )

    def __reduce__(self):
        return type(self), (dict(self),)


def traffic_pair_delays(
    routing: Routing, traffic: TrafficMatrix, link_delays: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean ECMP delay ``xi(s, t)`` of every demand of ``traffic``.

    One :meth:`Routing.path_delays <repro.routing.state.Routing.path_delays>`
    pass over the demanded destinations (:class:`DemandPairs`).

    Returns:
        ``(srcs, dsts, xi)`` aligned arrays in :meth:`TrafficMatrix.pairs`
        order (source-major).

    Raises:
        RoutingError: if a demanded destination is unreachable from its
            source (reported for the first such pair in that order).
    """
    pairs = DemandPairs(traffic)
    return pairs.srcs, pairs.dsts, pairs.delays(routing.path_delays(pairs.dests, link_delays))


def pair_delay_penalty(
    pairs: DemandPairs, path_delays: np.ndarray, params: SlaParams
) -> tuple[PairDelays, float, int]:
    """Fold per-pair delays into the SLA penalty (Eq. 4-5).

    Args:
        pairs: The high-priority traffic's demanded pairs.
        path_delays: Mean path delays toward ``pairs.dests``
            (:meth:`Routing.path_delays <repro.routing.state.Routing.path_delays>`).
        params: SLA bound and penalty parameters.

    Returns:
        ``(pair_delays, penalty, violations)``: ``xi(s, t)`` per
        high-priority pair, the total penalty ``Lambda`` (added pair by
        pair in :meth:`TrafficMatrix.pairs` order) and the number of
        pairs whose delay exceeds ``theta``.
    """
    values = pairs.delays(path_delays).tolist()
    penalty = 0.0
    violations = 0
    for value in values:
        if value > params.theta_ms:
            violations += 1
            penalty += params.pair_penalty(value)
    keys = zip(pairs.srcs.tolist(), pairs.dsts.tolist())
    return PairDelays(zip(keys, values)), penalty, violations


@dataclass(frozen=True)
class SlaCostEvaluation:
    """Result of one SLA-cost evaluation.

    Attributes:
        penalty: Total SLA penalty ``Lambda``.
        phi_low: Low-priority load cost ``Phi_L`` against residual capacity.
        violations: Number of high-priority pairs exceeding the bound.
        pair_delays_ms: Mean end-to-end delay ``xi(s, t)`` per high-priority
            pair, keyed by ``(s, t)`` (a read-only :class:`PairDelays`).
        link_delays: Per-link high-priority delay ``D_l`` in ms.
        per_link_low: Per-link ``Phi_{L,l}``.
        high_loads: Per-link high-priority load.
        low_loads: Per-link low-priority load.
        residual: Per-link residual capacity.
        utilization: Per-link total utilization.
        params: The SLA parameters used.
    """

    penalty: float
    phi_low: float
    violations: int
    pair_delays_ms: dict[tuple[int, int], float]
    link_delays: np.ndarray
    per_link_low: np.ndarray
    high_loads: np.ndarray
    low_loads: np.ndarray
    residual: np.ndarray
    utilization: np.ndarray
    params: SlaParams

    @property
    def objective(self) -> LexCost:
        """The lexicographic objective ``S = <Lambda, Phi_L>``."""
        return LexCost(self.penalty, self.phi_low)

    @property
    def average_utilization(self) -> float:
        """Mean total link utilization."""
        return float(np.mean(self.utilization))

    @property
    def max_utilization(self) -> float:
        """Largest total link utilization."""
        return float(np.max(self.utilization))

    @property
    def worst_delay_ms(self) -> float:
        """Largest mean end-to-end delay over high-priority pairs."""
        return max(self.pair_delays_ms.values()) if self.pair_delays_ms else 0.0

    def high_link_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """The components of FindH's per-link key: ``(D_l, Phi_{L,l})``."""
        return self.link_delays, self.per_link_low

    def high_link_sort_keys(self) -> list[LexCost]:
        """Per-link lexicographic cost ``L_l = <D_l, Phi_{L,l}>`` used by FindH."""
        return [LexCost(d, l) for d, l in zip(*self.high_link_costs())]

    def low_link_sort_keys(self) -> np.ndarray:
        """Per-link cost ``Phi_{L,l}`` used by FindL."""
        return self.per_link_low


def evaluate_sla_cost(
    net: Network,
    high_routing: Routing,
    low_routing: Routing,
    high_traffic: TrafficMatrix,
    low_traffic: TrafficMatrix,
    params: SlaParams = SlaParams(),
) -> SlaCostEvaluation:
    """Evaluate the SLA-based cost of a (possibly dual) routing.

    End-to-end delay of a pair is the mean path delay over its ECMP
    paths in the high-priority topology, weighted by the even-split flow.

    Args:
        net: The network.
        high_routing: Routing of the high-priority class.
        low_routing: Routing of the low-priority class (same object for STR).
        high_traffic: High-priority traffic matrix ``T_H``.
        low_traffic: Low-priority traffic matrix ``T_L``.
        params: SLA bound and penalty parameters.

    Returns:
        A :class:`SlaCostEvaluation`.
    """
    # Imported here: the pricing module builds this module's evaluation type.
    from repro.costs.pricing import SLA_MODE, price_high

    high = price_high(
        net,
        high_routing.link_loads(high_traffic),
        SLA_MODE,
        params=params,
        routing=lambda: high_routing,
        traffic=high_traffic,
    )
    return high.evaluation(net, low_routing.link_loads(low_traffic))
