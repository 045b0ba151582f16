"""The costing pass, split where the priority queue splits it.

Strict priority queueing serves the high class first, so the high class
is priced against full capacity and the low class against the residual
``C~ = max(C - H, 0)`` it leaves (paper Section 3).  The pass therefore
has two halves:

* :func:`price_high` — everything that depends on the high loads alone:
  the residual, the per-link ``Phi_{H,l}`` and, under the SLA objective,
  the link delays (Eq. 3) and the pair-delay fold into the penalty
  ``Lambda`` (Eq. 4-5).  It runs in two steps, :func:`price_links` and
  :meth:`HighPrice.with_pair_delays`, so a caller pricing several
  routings at once (the evaluator's search steps) can run one delay pass
  for all of them in between.  The evaluator caches one per high weight
  vector;
* :meth:`HighPrice.evaluation` — the combine step: the low loads priced
  against that residual, and the evaluation of the objective (``A``,
  Eq. 2, or ``S``, Eq. 5) built from both halves.

Every evaluation path — :class:`~repro.core.evaluator.DualTopologyEvaluator`,
:class:`~repro.scenarios.batch.SweepEngine`, ``Session.scaled_traffic``,
sliced optimization and :func:`~repro.costs.load_cost.evaluate_load_cost` /
:func:`~repro.costs.sla.evaluate_sla_cost` — prices through these
functions, so the formula and the choice of objective live here only.

Evaluations are cached and shared, so every array of a :class:`HighPrice`
and of an evaluation is made read-only where it is built, and the pair
delays are a read-only :class:`~repro.costs.sla.PairDelays`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from repro.costs.fortz import fortz_cost_vector
from repro.costs.load_cost import LoadCostEvaluation
from repro.costs.residual import residual_capacities
from repro.costs.sla import (
    DemandPairs,
    PairDelays,
    SlaCostEvaluation,
    SlaParams,
    link_delays_ms,
    pair_delay_penalty,
)
from repro.network.graph import Network
from repro.routing.state import Routing
from repro.traffic.matrix import TrafficMatrix

LOAD_MODE = "load"
"""The load-based objective ``A = <Phi_H, Phi_L>`` (Eq. 2)."""

SLA_MODE = "sla"
"""The SLA-based objective ``S = <Lambda, Phi_L>`` (Eq. 5)."""

Evaluation = Union[LoadCostEvaluation, SlaCostEvaluation]


def check_mode(mode: str) -> str:
    """``mode`` itself, or a ValueError naming the two objectives."""
    if mode not in (LOAD_MODE, SLA_MODE):
        raise ValueError(f"mode must be '{LOAD_MODE}' or '{SLA_MODE}', got {mode!r}")
    return mode


def read_only(*arrays: Optional[np.ndarray]) -> None:
    """Mark each array (``None`` skipped) read-only: it is shared from here on."""
    for array in arrays:
        if array is not None:
            array.setflags(write=False)


@dataclass(frozen=True)
class HighPrice:
    """The high class's half of one costing pass.

    Attributes:
        loads: Per-link high-priority load ``H_l``.
        residual: Per-link residual capacity ``C~_l`` left to the low class.
        per_link: Per-link ``Phi_{H,l}``.
        params: The SLA parameters; ``None`` under the load objective, in
            which case the fields below keep their defaults.
        link_delays: Per-link high-priority delay ``D_l`` in ms.
        pair_delays: Mean delay ``xi(s, t)`` per high-priority pair.
        penalty: Total SLA penalty ``Lambda``.
        violations: Pairs whose delay exceeds the bound.
    """

    loads: np.ndarray
    residual: np.ndarray
    per_link: np.ndarray
    params: Optional[SlaParams] = None
    link_delays: Optional[np.ndarray] = None
    pair_delays: Optional[PairDelays] = None
    penalty: float = 0.0
    violations: int = 0

    def __post_init__(self) -> None:
        read_only(self.loads, self.residual, self.per_link, self.link_delays)

    def with_pair_delays(self, pairs: DemandPairs, path_delays: np.ndarray) -> "HighPrice":
        """The SLA price completed by its pair delays (Eq. 4-5).

        Args:
            pairs: The high-priority traffic's demanded pairs.
            path_delays: Mean ECMP path delays toward ``pairs.dests``
                under this price's :attr:`link_delays`.
        """
        pair_delays, penalty, violations = pair_delay_penalty(pairs, path_delays, self.params)
        return replace(
            self, pair_delays=pair_delays, penalty=penalty, violations=violations
        )

    def evaluation(self, net: Network, low_loads: np.ndarray) -> Evaluation:
        """The combine step: price ``low_loads`` against the residual.

        Returns a :class:`LoadCostEvaluation` under the load objective or
        a :class:`SlaCostEvaluation` under the SLA objective; its arrays,
        ``low_loads`` included, are read-only.
        """
        per_link_low = fortz_cost_vector(low_loads, self.residual)
        utilization = (self.loads + low_loads) / net.capacities()
        read_only(low_loads, per_link_low, utilization)
        if self.params is None:
            return LoadCostEvaluation(
                phi_high=float(self.per_link.sum()),
                phi_low=float(per_link_low.sum()),
                per_link_high=self.per_link,
                per_link_low=per_link_low,
                high_loads=self.loads,
                low_loads=low_loads,
                residual=self.residual,
                utilization=utilization,
            )
        return SlaCostEvaluation(
            penalty=self.penalty,
            phi_low=float(per_link_low.sum()),
            violations=self.violations,
            pair_delays_ms=self.pair_delays,
            link_delays=self.link_delays,
            per_link_low=per_link_low,
            high_loads=self.loads,
            low_loads=low_loads,
            residual=self.residual,
            utilization=utilization,
            params=self.params,
        )


def price_links(
    net: Network, high_loads: np.ndarray, mode: str, params: Optional[SlaParams] = None
) -> HighPrice:
    """The per-link half of :func:`price_high`: residual, ``Phi_{H,l}`` and,
    under the SLA objective, the link delays (Eq. 3).

    An SLA price is complete only after :meth:`HighPrice.with_pair_delays`.
    """
    capacities = net.capacities()
    per_link = fortz_cost_vector(high_loads, capacities)
    residual = residual_capacities(capacities, high_loads)
    if check_mode(mode) == LOAD_MODE:
        return HighPrice(high_loads, residual, per_link)
    delays = link_delays_ms(net, high_loads, per_link, params.packet_size_bits)
    return HighPrice(high_loads, residual, per_link, params, delays)


def price_high(
    net: Network,
    high_loads: np.ndarray,
    mode: str,
    *,
    params: Optional[SlaParams] = None,
    routing: Optional[Callable[[], Routing]] = None,
    traffic: Optional[TrafficMatrix] = None,
) -> HighPrice:
    """Price the high class's per-link loads under objective ``mode``.

    Args:
        net: The network the loads were routed over.
        high_loads: Per-link high-priority loads.
        mode: :data:`LOAD_MODE` or :data:`SLA_MODE`.
        params: SLA bound and penalty parameters (SLA mode).
        routing: Returns the high-priority routing whose ECMP paths the
            pair delays average over (SLA mode).  It is called only in
            SLA mode, so a load-mode caller never looks a routing up.
        traffic: The high-priority traffic; its pairs incur the per-pair
            penalties (SLA mode).
    """
    price = price_links(net, high_loads, mode, params)
    if price.params is None:
        return price
    pairs = DemandPairs(traffic)
    return price.with_pair_delays(pairs, routing().path_delays(pairs.dests, price.link_delays))
