"""Load-based lexicographic objective ``A = <Phi_H, Phi_L>`` (paper Section 3.1).

Holds the evaluation type and :func:`evaluate_load_cost`, the
evaluation of two routings.  The costing pass itself — high loads priced
against full capacity, low loads against the residual — is
:mod:`repro.costs.pricing`, shared by every evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lexicographic import LexCost
from repro.network.graph import Network
from repro.routing.state import DemandsLike, Routing


@dataclass(frozen=True)
class LoadCostEvaluation:
    """Everything the search and the figures need from one load-cost evaluation.

    Attributes:
        phi_high: Total high-priority cost ``Phi_H = sum_l Phi_{H,l}``.
        phi_low: Total low-priority cost ``Phi_L`` against residual capacity.
        per_link_high: Per-link ``Phi_{H,l}``.
        per_link_low: Per-link ``Phi_{L,l}``.
        high_loads: Per-link high-priority load ``H_l``.
        low_loads: Per-link low-priority load ``L_l``.
        residual: Per-link residual capacity ``C~_l``.
        utilization: Per-link total utilization ``(H_l + L_l) / C_l``.
    """

    phi_high: float
    phi_low: float
    per_link_high: np.ndarray
    per_link_low: np.ndarray
    high_loads: np.ndarray
    low_loads: np.ndarray
    residual: np.ndarray
    utilization: np.ndarray

    @property
    def objective(self) -> LexCost:
        """The lexicographic objective ``A = <Phi_H, Phi_L>``."""
        return LexCost(self.phi_high, self.phi_low)

    @property
    def average_utilization(self) -> float:
        """Mean total link utilization (the paper's load reference ``AD``)."""
        return float(np.mean(self.utilization))

    @property
    def max_utilization(self) -> float:
        """Largest total link utilization."""
        return float(np.max(self.utilization))

    def high_link_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """The components of FindH's per-link key: ``(Phi_{H,l}, Phi_{L,l})``."""
        return self.per_link_high, self.per_link_low

    def high_link_sort_keys(self) -> list[LexCost]:
        """Per-link lexicographic cost ``L_l = <Phi_{H,l}, Phi_{L,l}>`` used by FindH."""
        return [LexCost(h, l) for h, l in zip(*self.high_link_costs())]

    def low_link_sort_keys(self) -> np.ndarray:
        """Per-link cost ``Phi_{L,l}`` used by FindL."""
        return self.per_link_low


def evaluate_load_cost(
    net: Network,
    high_routing: Routing,
    low_routing: Routing,
    high_traffic: DemandsLike,
    low_traffic: DemandsLike,
) -> LoadCostEvaluation:
    """Evaluate the load-based cost of a (possibly dual) routing.

    Args:
        net: The network.
        high_routing: Routing of the high-priority class.
        low_routing: Routing of the low-priority class (same object for STR).
        high_traffic: High-priority traffic matrix ``T_H``.
        low_traffic: Low-priority traffic matrix ``T_L``.

    Returns:
        A :class:`LoadCostEvaluation`.
    """
    # Imported here: the pricing module builds this module's evaluation type.
    from repro.costs.pricing import LOAD_MODE, price_high

    return price_high(net, high_routing.link_loads(high_traffic), LOAD_MODE).evaluation(
        net, low_routing.link_loads(low_traffic)
    )
