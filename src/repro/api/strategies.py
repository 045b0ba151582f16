"""The strategy registry: every weight search behind one ``run`` shape.

The paper's contribution is a *family* of weight-search strategies — the
STR baseline [FT00], the DTR heuristic (Algorithms 1-2), the joint-cost
search (Section 3.3.1), and the simulated-annealing baseline.  Each is
registered here as a :class:`Strategy` plugin producing one common
:class:`OptimizationResult`, so callers (experiments, campaigns, the
CLI) pick strategies by name and new ones plug in without touching any
caller.

References:
    [FT00] B. Fortz and M. Thorup, "Internet traffic engineering by
        optimizing OSPF weights", IEEE INFOCOM 2000.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.api.registry import Registry
from repro.core.annealing import AnnealingParams, _anneal_search
from repro.core.dtr_search import _dtr_search
from repro.core.joint_search import _joint_search
from repro.core.progress import ProgressFn
from repro.core.result import OptimizationResult
from repro.core.search_params import SearchParams
from repro.core.str_search import _str_search

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session

STRATEGIES = Registry("strategy")
"""The global strategy registry: name -> :class:`Strategy` instance."""


def register_strategy(name: str, replace: bool = False):
    """Decorator registering a strategy class (instantiated) or instance."""

    def register(obj: Any) -> Any:
        STRATEGIES.register(name, obj() if isinstance(obj, type) else obj, replace=replace)
        return obj

    return register


def get_strategy(name: str) -> "Strategy":
    """Look up a registered strategy.

    Raises:
        UnknownNameError: for an unregistered name, listing the
            registered alternatives.
    """
    return STRATEGIES.get(name)


def available_strategies() -> tuple[str, ...]:
    """Sorted names of every registered strategy."""
    return STRATEGIES.names()


@runtime_checkable
class Strategy(Protocol):
    """What a pluggable weight-search strategy must provide."""

    name: str

    def run(
        self,
        session: "Session",
        params: Optional[SearchParams] = None,
        **options: Any,
    ) -> OptimizationResult:
        """Search the session's network/traffic and return the best setting."""
        ...


def _search_rng(session: "Session", rng: Optional[random.Random]) -> random.Random:
    """Default to the session's deterministic ``"search"`` stream."""
    return rng if rng is not None else session.derive_rng("search")


@register_strategy("str")
class StrStrategy:
    """Single-topology local search (the Fortz-Thorup-style baseline)."""

    name = "str"

    def run(
        self,
        session: "Session",
        params: Optional[SearchParams] = None,
        *,
        rng: Optional[random.Random] = None,
        initial_weights: Optional[Sequence[int]] = None,
        relaxation_epsilons: Iterable[float] = (),
        progress: Optional[ProgressFn] = None,
    ) -> OptimizationResult:
        return _str_search(
            session.evaluator,
            params,
            _search_rng(session, rng),
            initial_weights=initial_weights,
            relaxation_epsilons=relaxation_epsilons,
            progress=progress,
        )


@register_strategy("dtr")
class DtrStrategy:
    """The paper's dual-topology search (Algorithms 1-2)."""

    name = "dtr"

    def run(
        self,
        session: "Session",
        params: Optional[SearchParams] = None,
        *,
        rng: Optional[random.Random] = None,
        initial_high: Optional[Sequence[int]] = None,
        initial_low: Optional[Sequence[int]] = None,
        progress: Optional[ProgressFn] = None,
    ) -> OptimizationResult:
        return _dtr_search(
            session.evaluator,
            params,
            _search_rng(session, rng),
            initial_high=initial_high,
            initial_low=initial_low,
            progress=progress,
        )


@register_strategy("joint")
class JointStrategy:
    """STR search under the joint scalar cost ``J = alpha*Phi_H + Phi_L``."""

    name = "joint"

    def run(
        self,
        session: "Session",
        params: Optional[SearchParams] = None,
        *,
        alpha: Optional[float] = None,
        rng: Optional[random.Random] = None,
        initial_weights: Optional[Sequence[int]] = None,
        progress: Optional[ProgressFn] = None,
    ) -> OptimizationResult:
        if alpha is None:
            alpha = float(getattr(session.cost_model, "alpha", 1.0))
        return _joint_search(
            session.evaluator,
            alpha,
            params,
            _search_rng(session, rng),
            initial_weights=initial_weights,
            progress=progress,
        )


@register_strategy("anneal")
class AnnealStrategy:
    """Simulated-annealing baseline over the STR solution space."""

    name = "anneal"

    def run(
        self,
        session: "Session",
        params: Optional[SearchParams] = None,
        *,
        annealing_params: Optional[AnnealingParams] = None,
        rng: Optional[random.Random] = None,
        initial_weights: Optional[Sequence[int]] = None,
        progress: Optional[ProgressFn] = None,
    ) -> OptimizationResult:
        return _anneal_search(
            session.evaluator,
            annealing_params,
            params,
            _search_rng(session, rng),
            initial_weights=initial_weights,
            progress=progress,
        )
