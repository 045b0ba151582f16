"""Network-wide per-class delay estimates from exact priority-queue formulas.

The paper's Eq. 3 approximates the high-priority queueing term with the
Fortz cost (``Phi_H/C ~ H/(C-H)``).  This module computes per-link and
end-to-end delays for *both* classes from the exact two-class preemptive
M/M/1 formulas instead, converting link loads (Mb/s) into packet rates.
It quantifies the modeling gap and gives the low-priority class a
delay estimate the paper's cost functions never needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costs.sla import PACKET_SIZE_BITS, traffic_pair_delays
from repro.network.graph import Network
from repro.routing.state import Routing
from repro.traffic.matrix import TrafficMatrix

SATURATED_DELAY_MS = 1e6
"""Delay assigned to links whose class load saturates the server."""


@dataclass(frozen=True)
class ClassDelays:
    """Per-link mean sojourn times (ms) for the two classes."""

    high_ms: np.ndarray
    low_ms: np.ndarray

    def saturated_links(self) -> np.ndarray:
        """Indices of links where the low-priority class saturates."""
        return np.flatnonzero(self.low_ms >= SATURATED_DELAY_MS)


def link_class_delays(
    net: Network,
    high_loads: np.ndarray,
    low_loads: np.ndarray,
    packet_size_bits: float = PACKET_SIZE_BITS,
) -> ClassDelays:
    """Exact preemptive-priority M/M/1 sojourn times per link.

    Rates are derived from loads: a link of capacity ``C`` Mb/s serves
    ``mu = C*1e6/packet_size_bits`` packets/s; class loads map to arrival
    rates the same way.  Links where a class saturates get
    :data:`SATURATED_DELAY_MS` (propagation still added).

    Args:
        net: The network.
        high_loads: Per-link high-priority loads (Mb/s).
        low_loads: Per-link low-priority loads (Mb/s).
        packet_size_bits: Mean packet size.

    Returns:
        A :class:`ClassDelays` with per-link delays in milliseconds.
    """
    high_loads = np.asarray(high_loads, dtype=float)
    low_loads = np.asarray(low_loads, dtype=float)
    caps = net.capacities()
    if high_loads.shape != caps.shape or low_loads.shape != caps.shape:
        raise ValueError("load vectors must match the network's link count")

    rho_h = high_loads / caps
    rho_l = low_loads / caps
    service_ms = packet_size_bits / (caps * 1e6) * 1e3

    high_ms = np.where(
        rho_h < 1.0, service_ms / np.maximum(1.0 - rho_h, 1e-12), SATURATED_DELAY_MS
    )
    total = rho_h + rho_l
    low_ms = np.where(
        (rho_h < 1.0) & (total < 1.0),
        service_ms
        / np.maximum((1.0 - rho_h) * np.maximum(1.0 - total, 1e-12), 1e-12),
        SATURATED_DELAY_MS,
    )
    prop = net.prop_delays()
    return ClassDelays(high_ms=high_ms + prop, low_ms=low_ms + prop)


def pair_delay_ms(
    routing: Routing, link_delays_ms: np.ndarray, src: int, dst: int
) -> float:
    """Mean end-to-end delay of one pair: flow-fraction-weighted link delays.

    The single-pair query; :func:`network_delay_report` costs every pair
    of a class with one :meth:`Routing.path_delays
    <repro.routing.state.Routing.path_delays>` pass instead.
    """
    return float(routing.pair_link_fractions(src, dst) @ link_delays_ms)


@dataclass(frozen=True)
class NetworkDelayReport:
    """End-to-end delay summary for both classes over their own routings."""

    mean_high_ms: float
    mean_low_ms: float
    worst_high_ms: float
    worst_low_ms: float
    high_pairs: int
    low_pairs: int


def network_delay_report(
    net: Network,
    high_routing: Routing,
    low_routing: Routing,
    high_traffic: TrafficMatrix,
    low_traffic: TrafficMatrix,
    packet_size_bits: float = PACKET_SIZE_BITS,
) -> NetworkDelayReport:
    """Volume-weighted end-to-end delay for every demand of both classes.

    Args:
        net: The network.
        high_routing: Routing of the high-priority class.
        low_routing: Routing of the low-priority class.
        high_traffic: High-priority traffic matrix.
        low_traffic: Low-priority traffic matrix.
        packet_size_bits: Mean packet size.

    Returns:
        A :class:`NetworkDelayReport` (means are volume-weighted).
    """
    delays = link_class_delays(
        net,
        high_routing.link_loads(high_traffic),
        low_routing.link_loads(low_traffic),
        packet_size_bits,
    )

    def summarize(routing: Routing, traffic: TrafficMatrix, link_ms: np.ndarray):
        srcs, dsts, xi = traffic_pair_delays(routing, traffic, link_ms)
        rates = traffic.demands[srcs, dsts]
        volume = float(rates.sum())
        mean = float(xi @ rates) / volume if volume > 0 else 0.0
        return mean, float(xi.max(initial=0.0)), int(xi.size)

    mean_h, worst_h, n_h = summarize(high_routing, high_traffic, delays.high_ms)
    mean_l, worst_l, n_l = summarize(low_routing, low_traffic, delays.low_ms)
    return NetworkDelayReport(
        mean_high_ms=mean_h,
        mean_low_ms=mean_l,
        worst_high_ms=worst_h,
        worst_low_ms=worst_l,
        high_pairs=n_h,
        low_pairs=n_l,
    )
