"""The serving facade: pool + scheduler + plan cache behind one object.

:class:`ServeService` is the piece every frontend talks to — the HTTP
handler, ``repro-dtr query``'s server side, the benchmark's closed-loop
clients, and embedders via :func:`repro.api.serve_session`.  It owns the
warm-session pool, the micro-batch scheduler, and the plan cache, and
exposes the three operations of the online workload:

* :meth:`whatif` — one scenario query, coalesced through the scheduler;
* :meth:`sweep` — a batch of scenarios (explicit specs or whole
  registered kinds), evaluated in one pass over the session's sweep
  engine;
* :meth:`metrics` — the counters of all three components.

Answers are encoded payloads (see :mod:`repro.serve.encoding`);
``canonical_body(payload)`` is the exact byte string the HTTP layer
ships, and the differential tests compare it against direct
:meth:`~repro.api.Session.under_scenario` calls.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.api.session import Session
from repro.scenarios.spec import (
    ScenarioSet,
    canonical_space_spec,
    canonical_spec,
    enumerate_scenarios,
    parse_scenario,
)
from repro.serve.cache import PlanCache
from repro.serve.encoding import space_payload, sweep_payload, whatif_payload
from repro.serve.pool import SessionPool, SessionSpec
from repro.serve.scheduler import MicroBatchScheduler


class ServeService:
    """One online what-if service instance.

    Args:
        default_spec: Baseline served when a request names no session.
        pool: Warm-session pool (a fresh 4-entry pool by default).
        cache: Plan cache shared by the scheduler and sweeps.
        scheduler: Micro-batch scheduler; started on construction.
    """

    def __init__(
        self,
        default_spec: Optional[SessionSpec] = None,
        *,
        pool: Optional[SessionPool] = None,
        cache: Optional[PlanCache] = None,
        scheduler: Optional[MicroBatchScheduler] = None,
    ) -> None:
        self.default_spec = default_spec if default_spec is not None else SessionSpec()
        self.pool = pool if pool is not None else SessionPool()
        if scheduler is None:
            self.cache = cache if cache is not None else PlanCache()
            scheduler = MicroBatchScheduler(self.cache)
        else:
            if cache is not None and cache is not scheduler.cache:
                raise ValueError(
                    "pass the cache through the scheduler (or neither): a "
                    "service must report the cache its scheduler writes"
                )
            self.cache = scheduler.cache
        self.scheduler = scheduler
        self.scheduler.start()
        self._pinned: Optional[tuple[str, Session]] = None
        # The frontend's own instruments (request latency, responses)
        # live on a per-service registry like the components'.
        self.registry = obs.MetricsRegistry()

    @classmethod
    def from_session(
        cls, session: Session, key: str = "session", **kwargs
    ) -> "ServeService":
        """Serve one prebuilt session (the :func:`repro.api.serve_session`
        path).

        The session is pinned in the pool under ``key`` and becomes the
        default baseline; requests may still name other
        :class:`SessionSpec` baselines, which build on demand.
        """
        if session._baseline is None:  # fail fast: queries need a baseline
            raise ValueError(
                "session has no baseline weight setting: call "
                "session.optimize(...) or session.set_weights(...) first"
            )
        service = cls(**kwargs)
        session.prepare()
        service.pool.add(key, None, session)
        service._pinned = (key, session)
        return service

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _resolve(self, session_spec: Optional[dict]) -> tuple[str, Session]:
        """The ``(key, warm session)`` a request addresses."""
        if session_spec is None and self._pinned is not None:
            return self._pinned
        spec = (
            self.default_spec
            if session_spec is None
            else SessionSpec.from_jsonable(session_spec)
        )
        return self.pool.get(spec)

    def whatif(
        self, scenario: str, session_spec: Optional[dict] = None
    ) -> tuple[dict, bool]:
        """One scenario query through the micro-batch scheduler (a
        plan-cache hit is answered without queueing).

        Returns:
            ``(payload, cache_hit)``; the payload is bit-identical to
            encoding a direct ``session.under_scenario(scenario)`` call.
        """
        key, session = self._resolve(session_spec)
        return self.scheduler.submit(key, session, scenario).result()

    def sweep(
        self,
        scenarios: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        session_spec: Optional[dict] = None,
        space: Optional[str] = None,
    ) -> dict:
        """A batched sweep: explicit specs, whole kinds, or a space.

        Runs in one pass over the session's sweep engine (a sweep *is*
        already a batch, so it bypasses the scheduler), under the session
        lock.  A ``space`` answers from the streaming aggregator —
        per-scenario outcomes are never materialized — and is exclusive
        with explicit ``scenarios``/``kinds``.
        """
        key, session = self._resolve(session_spec)
        if space is not None:
            if scenarios or kinds:
                raise ValueError(
                    "a space sweep streams its own enumeration: pass either "
                    "'space' or 'scenarios'/'kinds', not both"
                )
            spec = canonical_space_spec(space)
            with session.lock:
                return space_payload(session.sweep_space(spec))
        specs: list[str] = [canonical_spec(s) for s in (scenarios or [])]
        with session.lock:
            for kind in kinds or []:
                specs.extend(
                    s.spec() for s in enumerate_scenarios(session.network, kind)
                )
            if not specs:
                raise ValueError("a sweep needs at least one scenario or kind")
            result = session.sweep(ScenarioSet([parse_scenario(s) for s in specs]))
        return sweep_payload(result, specs)

    def whatif_direct(
        self, scenario: str, session_spec: Optional[dict] = None
    ) -> dict:
        """The scheduler-free reference path (differential tests only).

        Evaluates ``session.under_scenario`` directly under the session
        lock and encodes the result — no batching, no plan cache.
        """
        _key, session = self._resolve(session_spec)
        with session.lock:
            return whatif_payload(session.under_scenario(canonical_spec(scenario)))

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Pool/scheduler/cache counters (the ``/metrics`` JSON body).

        The shape predates :mod:`repro.obs` and is part of the HTTP
        contract (``examples/serve_smoke.py`` asserts it); each block is
        a consistent snapshot taken under its component's own lock.
        """
        return {
            "pool": self.pool.metrics(),
            "scheduler": self.scheduler.metrics(),
            "plan_cache": self.cache.metrics(),
        }

    def metrics_samples(self) -> list[dict]:
        """Every instrument sample this service can see, merged.

        The union of the per-component registries (pool, scheduler,
        plan cache, the frontend's own) and the process-wide default
        registry (evaluator, kernels, sweep engines) — what
        ``GET /metrics?format=prometheus`` renders.  Component registry
        objects may be shared (a scheduler built around the service's
        cache); duplicates are skipped by identity.
        """
        samples: list[dict] = []
        seen: set[int] = set()
        registries = [
            self.registry,
            self.pool.registry,
            self.scheduler.registry,
            self.cache.registry,
            obs.REGISTRY,
        ]
        for registry in registries:
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            samples.extend(registry.snapshot())
        return samples

    def close(self) -> None:
        """Stop the scheduler (queued queries drain first)."""
        self.scheduler.stop()

    def __enter__(self) -> "ServeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
