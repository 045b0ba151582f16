"""``repro.api`` — the session-oriented facade over the whole library.

One stable surface for every optimization and evaluation workflow:

* :class:`Session` bundles network + traffic + evaluator + cost model +
  deterministic RNG streams;
* :func:`optimize` runs any strategy registered in the
  :data:`~repro.api.strategies.STRATEGIES` registry (``str``, ``dtr``,
  ``joint``, ``anneal`` built in) and returns a common
  :class:`OptimizationResult`;
* ``session.what_if`` / ``session.under_scenario`` /
  ``session.scaled_traffic`` answer incremental what-if queries against
  the session baseline;
* :func:`register_strategy` / :func:`register_cost_model` make new
  strategies and objectives additive plugins instead of cross-cutting
  edits;
* :func:`serve_session` lifts a session into the online serving stack
  (:mod:`repro.serve`): warm pool, micro-batch scheduler, plan cache,
  and optionally the stdlib HTTP frontend.

Quickstart::

    from repro.api import Session, optimize
    from repro.eval.experiment import ExperimentConfig

    session = Session.from_config(ExperimentConfig(topology="isp"))
    result = optimize(session, strategy="dtr")
    print(result.objective, result.wall_time_s)
    print(session.what_if((3, 17)).format())           # one-link what-if
    print(session.under_scenario("link:0-4").format()) # adjacency failure
    print(session.scaled_traffic(1.2).format())        # 20% traffic growth

:func:`optimize` is the one search entry point; to search with a
hand-built evaluator, wrap it with :meth:`Session.from_evaluator`.  See
``docs/api.md`` for the design and the table of removed names.
"""

from __future__ import annotations

from typing import Optional

from repro.api.cost_models import (
    COST_MODELS,
    CostModel,
    FortzCostModel,
    JointCostModel,
    LoadCostModel,
    SlaCostModel,
    available_cost_models,
    get_cost_model,
    register_cost_model,
)
from repro.api.queries import WhatIfResult
from repro.api.registry import (
    DuplicateRegistrationError,
    Registry,
    RegistryError,
    UnknownNameError,
)
from repro.api.session import Session
from repro.api.strategies import (
    STRATEGIES,
    Strategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.core.result import OptimizationResult, TracePoint
from repro.core.search_params import SearchParams

__all__ = [
    "Session",
    "optimize",
    "serve_session",
    "OptimizationResult",
    "TracePoint",
    "Strategy",
    "STRATEGIES",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "CostModel",
    "COST_MODELS",
    "register_cost_model",
    "get_cost_model",
    "available_cost_models",
    "LoadCostModel",
    "SlaCostModel",
    "FortzCostModel",
    "JointCostModel",
    "WhatIfResult",
    "Registry",
    "RegistryError",
    "DuplicateRegistrationError",
    "UnknownNameError",
]


def optimize(
    session: Session,
    strategy: str = "dtr",
    params: Optional[SearchParams] = None,
    **options,
) -> OptimizationResult:
    """Run one registered strategy on a session.

    The single search entry point, behind ``repro-dtr optimize``, the
    experiment harness and the campaign workers.  The result's weight
    setting is adopted as the session baseline, so subsequent
    ``session.what_if(...)`` queries probe around the optimum.

    Args:
        session: The optimization context.
        strategy: Registered strategy name (see
            :func:`available_strategies`).
        params: Search budgets shared by all strategies; library
            defaults if omitted.
        **options: Strategy-specific options (e.g. ``rng``,
            ``initial_weights``, ``alpha`` for ``joint``,
            ``annealing_params`` for ``anneal``, ``progress``).

    Returns:
        The strategy's :class:`OptimizationResult`.

    Raises:
        UnknownNameError: for an unregistered strategy name; the message
            lists the registered alternatives.
    """
    result = get_strategy(strategy).run(session, params=params, **options)
    session.adopt(result)
    return result


def serve_session(session: Session, **options):
    """Serve one session's baseline as an online what-if service.

    The session is warmed (:meth:`Session.prepare`), pinned in a
    :class:`~repro.serve.SessionPool`, and fronted by the micro-batch
    scheduler and plan cache; the returned
    :class:`~repro.serve.ServeService` answers ``whatif``/``sweep``
    queries bit-identically to calling ``session.under_scenario`` /
    ``session.sweep`` directly, and plugs straight into
    :class:`~repro.serve.WhatIfServer` for HTTP access.

    Args:
        session: A session with a baseline weight setting
            (``set_weights``/``optimize`` first).
        **options: Forwarded to :class:`~repro.serve.ServeService`
            (``pool``, ``cache``, ``scheduler``).

    Raises:
        ValueError: if the session has no baseline weight setting.
    """
    from repro.serve import ServeService

    return ServeService.from_session(session, **options)
