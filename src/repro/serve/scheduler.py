"""The micro-batching scheduler: coalesce concurrent scenario queries.

Concurrent what-if queries against one baseline repeat each other's
work: scenarios failing the same elements share a topology projection,
degraded routings derive from one intact parent, and unaffected load
rows are reusable across queries — exactly the structure the
:class:`~repro.scenarios.batch.SweepEngine` exploits for offline sweeps.
The scheduler brings that to the online path.  A query whose answer is
already in the plan cache is answered on the caller's thread at submit
time; it never queues or takes a lock.  Every other query is queued,
and the dispatcher drains whatever is queued into one batch at once
(no timed wait), groups it by session, and evaluates it back to back
through the session's (single, shared) sweep engine while holding
``session.lock`` once per group instead of once per request.  Queries
that arrive while the dispatcher is busy form the next batch.

Two properties make this safe:

* **Determinism** — each query is still answered by exactly
  ``session.under_scenario(spec)`` or its cached encoding; batching
  changes only *when* the evaluation runs and what engine memos it
  finds warm, never the arithmetic, so a batched answer is
  bit-identical to a direct call (enforced by
  ``tests/test_serve_scheduler.py`` and the differential HTTP tests).
* **Isolation** — groups touch disjoint sessions, and within a group
  the engine is driven by one thread at a time under the session lock
  (see the thread-safety note on :mod:`repro.api.session`).

Callers get a :class:`concurrent.futures.Future` per query; the HTTP
frontend blocks on it, keeping request threads simple while the
dispatcher owns all evaluation.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Optional

from repro.api.session import Session
from repro.obs import SIZE_BUCKETS, MetricsRegistry, current_span_id
from repro.obs import span as obs_span
from repro.scenarios.spec import canonical_spec
from repro.serve.cache import PlanCache
from repro.serve.encoding import whatif_payload

DEFAULT_MAX_BATCH = 64


@dataclass
class _Job:
    session_key: str
    session: Session
    canonical: str
    span: Optional[int]  # the submitting thread's open span (None untraced)
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.perf_counter)


class MicroBatchScheduler:
    """Coalesces scenario queries into per-session batches.

    Args:
        cache: The plan cache answers are stored in (one per service).
        max_batch: Upper bound on jobs per batch.
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.cache = cache if cache is not None else PlanCache()
        self.max_batch = int(max_batch)
        self._queue: "queue.Queue[_Job]" = queue.Queue()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stats_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        _events = "repro_serve_scheduler_events_total"
        _help = "Scheduler query/batch/cache/error counts."
        self._queries = self.registry.counter(_events, _help, {"event": "query"})
        self._batches = self.registry.counter(_events, _help, {"event": "batch"})
        self._coalesced = self.registry.counter(_events, _help, {"event": "coalesced_query"})
        self._cache_hits = self.registry.counter(_events, _help, {"event": "cache_hit"})
        self._errors = self.registry.counter(_events, _help, {"event": "error"})
        self._max_batch_seen = self.registry.gauge(
            "repro_serve_scheduler_max_batch_size", "Largest batch drained so far."
        )
        self._batch_size = self.registry.histogram(
            "repro_serve_scheduler_batch_size",
            "Jobs per drained micro-batch.",
            buckets=SIZE_BUCKETS,
        )
        self._queue_wait = self.registry.histogram(
            "repro_serve_scheduler_queue_wait_seconds",
            "Submit-to-dispatch wait per job.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        """Start the dispatcher thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="serve-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the dispatcher; queued jobs are still drained first."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._drain_now()  # anything enqueued after the last loop pass

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, session_key: str, session: Session, scenario: str) -> Future:
        """Answer one scenario query; the future resolves to
        ``(payload, cache_hit)``.

        The spec is parsed and canonicalized *here*, on the caller's
        thread, so malformed specs and unknown kinds raise immediately
        (the HTTP layer maps them to 400) and never occupy the batch
        pipeline.  A plan-cache hit is answered here too: the returned
        future is already done, and the query never enters the queue or
        waits for a session lock.
        """
        canonical = canonical_spec(scenario)
        if self._thread is None:
            raise RuntimeError("scheduler is not running: call start() first")
        payload = self.cache.lookup(session_key, canonical)
        if payload is not None:
            with self._stats_lock:
                self._queries.inc()
                self._cache_hits.inc()
            future: Future = Future()
            future.set_result((payload, True))
            return future
        job = _Job(session_key, session, canonical, current_span_id())
        self._queue.put(job)
        return job.future

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            self._process(self._drain_batch(first))
        self._drain_now()

    def _drain_batch(self, first: _Job) -> list[_Job]:
        """The micro-batch: ``first`` plus everything already queued, up
        to ``max_batch``.  Nothing waits for later arrivals: jobs that
        queue while this batch runs form the next one."""
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _drain_now(self) -> None:
        """Process whatever is queued (shutdown path)."""
        while True:
            try:
                first = self._queue.get_nowait()
            except queue.Empty:
                return
            self._process(self._drain_batch(first))

    def _process(self, batch: list[_Job]) -> None:
        dispatched = time.perf_counter()
        with self._stats_lock:
            self._queries.inc(len(batch))
            self._batches.inc()
            if len(batch) > int(self._max_batch_seen.value):
                self._max_batch_seen.set(len(batch))
            if len(batch) > 1:
                self._coalesced.inc(len(batch))
            self._batch_size.observe(len(batch))
            for job in batch:
                self._queue_wait.observe(dispatched - job.submitted)
        groups: dict[str, list[_Job]] = {}
        for job in batch:  # arrival order, stable within each group
            groups.setdefault(job.session_key, []).append(job)
        for jobs in groups.values():
            self._process_group(jobs)

    def _process_group(self, jobs: list[_Job]) -> None:
        """One session's slice of a batch, evaluated under its lock."""
        session = jobs[0].session
        with obs_span(
            "serve.batch_group",
            size=len(jobs),
            session=jobs[0].session_key,
            requests=[job.span for job in jobs],
        ):
            with session.lock:
                for job in jobs:
                    try:
                        payload, hit = self.cache.get_or_compute(
                            job.session_key,
                            job.canonical,
                            lambda spec=job.canonical: whatif_payload(
                                session.under_scenario(spec)
                            ),
                        )
                    except Exception as exc:  # surfaced on the caller's future
                        with self._stats_lock:
                            self._errors.inc()
                        job.future.set_exception(exc)
                        continue
                    if hit:
                        with self._stats_lock:
                            self._cache_hits.inc()
                    job.future.set_result((payload, hit))

    def metrics(self) -> dict:
        """Counters (the ``/metrics`` JSON block), snapshot under the
        stats lock every mutation also holds — mid-storm snapshots are
        internally consistent (``coalesced_queries <= queries``, ...)."""
        with self._stats_lock:
            return {
                "queries": int(self._queries.value),
                "batches": int(self._batches.value),
                "coalesced_queries": int(self._coalesced.value),
                "max_batch_size": int(self._max_batch_seen.value),
                "cache_hits": int(self._cache_hits.value),
                "errors": int(self._errors.value),
            }
