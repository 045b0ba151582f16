"""The one result type every weight search produces.

Each search in :mod:`repro.core` (STR, DTR, joint-cost, annealing)
builds an :class:`OptimizationResult` itself; the strategy registry in
:mod:`repro.api.strategies` hands it to callers unchanged, and
:mod:`repro.api` re-exports these types under the same names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.evaluator import Evaluation
from repro.core.lexicographic import LexCost
from repro.routing.state import Routing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session


@dataclass(frozen=True)
class TracePoint:
    """One improvement event in a search's cost trace.

    ``primary``/``secondary`` are the strategy's own objective at the
    improvement: the lexicographic components for ``str``/``dtr``/
    ``anneal``, and ``(J, 0.0)`` for ``joint`` (which optimizes a
    scalar).
    """

    phase: str
    iteration: int
    primary: float
    secondary: float


@dataclass(frozen=True)
class RelaxedSolution:
    """Best relaxed STR solution for one ``epsilon``.

    Attributes:
        epsilon: The allowed high-priority degradation.
        weights: The recorded weight vector.
        primary_cost: Its high-priority cost (``Phi_H`` or ``Lambda``).
        phi_low: Its low-priority cost ``Phi_L``.
    """

    epsilon: float
    weights: np.ndarray
    primary_cost: float
    phi_low: float


@dataclass
class OptimizationResult:
    """The common outcome every strategy produces.

    Attributes:
        strategy: Registry name of the strategy that produced this.
        high_weights: Best high-priority weight vector (for
            single-topology strategies, identical to ``low_weights``).
        low_weights: Best low-priority weight vector.
        objective: Lexicographic cost of the best setting.
        evaluation: Full evaluation of the best setting.
        cost_trace: Normalized improvement history.
        evaluations: Weight settings evaluated during the search.
        wall_time_s: Wall-clock seconds spent inside the search.
        metadata: Strategy-specific extras (budgets, alpha, acceptance
            counts, ...), JSON-friendly where possible.
        relaxed: Best epsilon-relaxed STR solution per tracked epsilon
            (``str`` only; empty for the other strategies).
    """

    strategy: str
    high_weights: np.ndarray
    low_weights: np.ndarray
    objective: LexCost
    evaluation: Evaluation
    cost_trace: tuple[TracePoint, ...]
    evaluations: int
    wall_time_s: float
    metadata: dict[str, Any] = field(default_factory=dict)
    relaxed: dict[float, RelaxedSolution] = field(default_factory=dict)

    @property
    def dual(self) -> bool:
        """Whether the high and low topologies use different weights."""
        return not np.array_equal(self.high_weights, self.low_weights)

    @property
    def weights(self) -> np.ndarray:
        """The single weight vector of a single-topology result.

        Raises:
            ValueError: for a dual result — use ``high_weights`` /
                ``low_weights`` there.
        """
        if self.dual:
            raise ValueError(
                f"{self.strategy} produced a dual setting; "
                "use high_weights / low_weights"
            )
        return self.high_weights

    def routing(self, session: "Session") -> tuple[Routing, Routing]:
        """The (cached) high and low routings of the best setting."""
        evaluator = session.evaluator
        return (
            evaluator.high_routing(self.high_weights),
            evaluator.low_routing(self.low_weights),
        )
