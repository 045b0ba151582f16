"""Micro-batch scheduler: coalescing, bit-identity, thread safety.

The concurrency regression suite of the serving stack: a session shared
across the scheduler's callers is only ever driven under
``session.lock`` (see the thread-safety note on
:mod:`repro.api.session`), so answers under concurrent load must equal,
byte for byte, a serial single-threaded reference.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.scenarios.spec import canonical_spec
from repro.serve.cache import PlanCache
from repro.serve.encoding import canonical_body, whatif_payload
from repro.serve.pool import SessionSpec
from repro.serve.scheduler import MicroBatchScheduler

SPEC = SessionSpec(topology="isp", utilization=0.5)

# A mixed workload touching every scenario kind, with repeats.
QUERIES = [
    "link:0-4",
    "node:3",
    "srlg:0-4,2-5",
    "scale:1.25",
    "surge:3x2.0",
    "shift:2>5@0.3",
    "link:0-4+surge:3x2.0",
    "link: 0-4",  # spelling variant of an earlier query
    "node:3",     # literal repeat
]


@pytest.fixture(scope="module")
def reference():
    """Serial single-threaded answers from an independent warm session."""
    session = SPEC.build()
    return {
        q: canonical_body(whatif_payload(session.under_scenario(canonical_spec(q))))
        for q in QUERIES
    }


def test_submit_requires_a_running_scheduler():
    scheduler = MicroBatchScheduler()
    with pytest.raises(RuntimeError, match="not running"):
        scheduler.submit("k", SPEC.build(), "node:3")


def test_malformed_specs_fail_at_submit_time():
    with MicroBatchScheduler() as scheduler:
        with pytest.raises(ValueError, match="registered scenario kind"):
            scheduler.submit("k", None, "bogus:1")  # session never touched
    assert scheduler.metrics()["queries"] == 0


def test_concurrent_queries_are_bit_identical_to_serial(reference):
    session = SPEC.build()
    key = SPEC.key()
    cache = PlanCache()
    with MicroBatchScheduler(cache) as scheduler:
        with ThreadPoolExecutor(max_workers=8) as executor:
            futures = {
                (i, q): executor.submit(
                    lambda q=q: scheduler.submit(key, session, q).result()
                )
                for i in range(4)
                for q in QUERIES
            }
            for (_, q), outer in futures.items():
                payload, _hit = outer.result()
                assert canonical_body(payload) == reference[q], q
    stats = scheduler.metrics()
    assert stats["errors"] == 0
    assert stats["queries"] == 4 * len(QUERIES)
    # Repeats and spelling variants were answered from the plan cache.
    assert stats["cache_hits"] >= stats["queries"] - len(set(
        canonical_spec(q) for q in QUERIES
    ))
    # One lookup per query, whether answered at submit or after the queue.
    lookups = cache.metrics()
    assert lookups["lookups"] == stats["queries"]
    assert lookups["hits"] == stats["cache_hits"]


def test_every_query_counts_once_and_hits_add_no_batch(reference):
    session = SPEC.build()
    key = SPEC.key()
    cache = PlanCache()
    stream = QUERIES * 2
    with MicroBatchScheduler(cache) as scheduler:
        for q in stream:
            payload, _hit = scheduler.submit(key, session, q).result(timeout=10)
            assert canonical_body(payload) == reference[q]
    unique = len({canonical_spec(q) for q in QUERIES})
    stats, lookups = scheduler.metrics(), cache.metrics()
    assert stats["queries"] == lookups["lookups"] == len(stream)
    assert lookups["hits"] + lookups["misses"] == lookups["lookups"]
    assert lookups["misses"] == unique
    assert stats["cache_hits"] == lookups["hits"] == len(stream) - unique
    # Queries submitted one at a time: each miss is a batch of its own,
    # and a hit never reaches the dispatcher.
    assert stats["batches"] == unique
    assert stats["max_batch_size"] == 1


def _gate(session):
    """Stall ``session.under_scenario`` until released; returns
    ``(entered, release, restore)``."""
    entered, release = threading.Event(), threading.Event()
    original = session.under_scenario

    def gated(*args, **kwargs):
        entered.set()
        release.wait(timeout=5)
        return original(*args, **kwargs)

    session.under_scenario = gated

    def restore():
        release.set()
        session.under_scenario = original

    return entered, release, restore


def test_a_hit_is_answered_at_submit_while_the_dispatcher_is_stalled(reference):
    session = SPEC.build()
    key = SPEC.key()
    scheduler = MicroBatchScheduler(PlanCache()).start()
    try:
        scheduler.submit(key, session, "link:0-4").result(timeout=10)  # cached
        entered, release, restore = _gate(session)
        try:
            stalled = scheduler.submit(key, session, "node:3")
            assert entered.wait(timeout=5)  # the dispatcher holds the session lock
            # A spelling variant of the cached query: answered on this
            # thread, without the queue, the dispatcher or the lock.
            hit = scheduler.submit(key, session, "link: 0-4")
            assert hit.done()
            payload, was_hit = hit.result(timeout=0)
            assert was_hit
            assert canonical_body(payload) == reference["link: 0-4"]
            assert not stalled.done()
            assert scheduler.metrics()["batches"] == 2
        finally:
            restore()
        payload, was_hit = stalled.result(timeout=10)
        assert not was_hit
        assert canonical_body(payload) == reference["node:3"]
    finally:
        scheduler.stop()
    stats = scheduler.metrics()
    assert stats["queries"] == 3
    assert stats["batches"] == 2  # the hit added none
    assert stats["cache_hits"] == 1


def test_window_coalesces_a_burst_into_one_batch(reference):
    """The window a batch drains is whatever queued while the dispatcher
    was busy: there is no timed wait, yet a burst still coalesces."""
    session = SPEC.build()
    key = SPEC.key()
    cache = PlanCache()
    scheduler = MicroBatchScheduler(cache)
    # Stall the dispatcher behind one job so the burst queues up, then
    # assert the whole burst lands in a single batch.
    _entered, release, restore = _gate(session)
    try:
        scheduler.start()
        first = scheduler.submit(key, session, QUERIES[0])
        burst = [scheduler.submit(key, session, q) for q in QUERIES[1:]]
        release.set()
        payload, _ = first.result(timeout=10)
        assert canonical_body(payload) == reference[QUERIES[0]]
        for q, future in zip(QUERIES[1:], burst):
            payload, _ = future.result(timeout=10)
            assert canonical_body(payload) == reference[q]
    finally:
        restore()
        scheduler.stop()
    stats = scheduler.metrics()
    assert stats["max_batch_size"] >= 2
    assert stats["coalesced_queries"] >= 2
    assert stats["batches"] < stats["queries"]


def test_jobs_that_queued_while_busy_dispatch_without_a_further_wait(reference):
    """Nothing waits for companions: a burst that queued behind a stalled
    batch is drained as one batch and answered as soon as the dispatcher
    frees up."""
    session = SPEC.build()
    key = SPEC.key()
    scheduler = MicroBatchScheduler(PlanCache()).start()
    entered, release, restore = _gate(session)
    try:
        first = scheduler.submit(key, session, QUERIES[0])
        assert entered.wait(timeout=5)  # the first batch is being evaluated
        burst = [scheduler.submit(key, session, q) for q in QUERIES[1:]]
        started = time.perf_counter()
        release.set()
        payload, _ = first.result(timeout=10)
        assert canonical_body(payload) == reference[QUERIES[0]]
        for q, future in zip(QUERIES[1:], burst):
            payload, _ = future.result(timeout=10)
            assert canonical_body(payload) == reference[q]
        elapsed = time.perf_counter() - started
    finally:
        restore()
        scheduler.stop()
    stats = scheduler.metrics()
    assert stats["batches"] == 2
    assert stats["max_batch_size"] == len(QUERIES) - 1
    assert stats["coalesced_queries"] == len(QUERIES) - 1
    assert stats["queries"] == len(QUERIES)
    # Evaluating the nine queries takes tens of milliseconds; a timed
    # wait of 0.4 s or more before a drained batch would show here.
    assert elapsed < 0.4


def test_groups_isolate_sessions():
    """A batch spanning two baselines answers each from its own session."""
    spec_b = SessionSpec(topology="isp", utilization=0.4)
    session_a, session_b = SPEC.build(), spec_b.build()
    ref_a = canonical_body(whatif_payload(session_a.under_scenario("node:3")))
    ref_b = canonical_body(whatif_payload(session_b.under_scenario("node:3")))
    assert ref_a != ref_b  # different baselines, different answers
    with MicroBatchScheduler() as scheduler:
        fa = scheduler.submit(SPEC.key(), session_a, "node:3")
        fb = scheduler.submit(spec_b.key(), session_b, "node:3")
        assert canonical_body(fa.result(timeout=10)[0]) == ref_a
        assert canonical_body(fb.result(timeout=10)[0]) == ref_b


def test_stop_drains_queued_jobs():
    session = SPEC.build()
    scheduler = MicroBatchScheduler().start()
    future = scheduler.submit(SPEC.key(), session, "node:3")
    scheduler.stop()
    payload, _hit = future.result(timeout=10)
    assert payload["kind"] == "scenario"


def test_a_failing_query_fails_only_its_own_future(reference):
    """A query that raises inside a batch group fails its own future; the
    good queries of the same group are answered, nothing is cached for
    the failure, and the scheduler keeps answering."""
    session = SPEC.build()
    key = SPEC.key()
    cache = PlanCache()
    bad = "link:0-15"  # valid syntax; the ISP backbone has no 0-15 adjacency
    with MicroBatchScheduler(cache) as scheduler:
        with session.lock:
            first = scheduler.submit(key, session, "link:0-4")
            deadline = time.perf_counter() + 5
            while scheduler.metrics()["batches"] < 1:  # dispatched, waiting for the lock
                assert time.perf_counter() < deadline
                time.sleep(0.001)
            failing = scheduler.submit(key, session, bad)
            last = scheduler.submit(key, session, "node:3")
        with pytest.raises(ValueError, match="no duplex adjacency between 0 and 15"):
            failing.result(timeout=10)
        for future, spec in ((first, "link:0-4"), (last, "node:3")):
            payload, hit = future.result(timeout=10)
            assert not hit
            assert canonical_body(payload) == canonical_body(
                whatif_payload(session.under_scenario(canonical_spec(spec)))
            )
        stats = scheduler.metrics()
        assert stats["errors"] == 1
        assert stats["batches"] == 2
        assert stats["max_batch_size"] == 2  # the failure and "node:3": one group
        assert len(cache) == 2
        assert cache.lookup(key, canonical_spec(bad)) is None
        with pytest.raises(ValueError, match="no duplex adjacency"):
            scheduler.submit(key, session, bad).result(timeout=10)
        payload, _hit = scheduler.submit(key, session, "surge:3x2.0").result(timeout=10)
        assert canonical_body(payload) == reference["surge:3x2.0"]
    assert scheduler.metrics()["errors"] == 2
