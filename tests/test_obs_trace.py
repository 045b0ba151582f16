"""Span tracing (:mod:`repro.obs.trace`): nesting, JSONL schema, the
no-op default, and the ``REPRO_TRACE`` bootstrap."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs.trace import _NULL_SPAN

RECORD_KEYS = {
    "seq", "span", "parent", "name", "start_s", "dur_ms", "pid", "thread",
    "attrs",
}


@pytest.fixture
def tracer(tmp_path):
    path = tmp_path / "spans.jsonl"
    obs.enable_tracing(path)
    yield path
    obs.disable_tracing()


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_span_is_shared_noop_when_tracing_disabled():
    assert not obs.tracing_enabled()
    span = obs.span("evaluate", mode="load")
    assert span is _NULL_SPAN
    assert obs.span("other") is span  # one shared instance, zero alloc
    with span as inner:
        inner.set(late="attr")  # accepted and dropped


def test_records_match_schema_and_sequence(tracer):
    with obs.span("outer", attrs={"topology": "isp"}, mode="load"):
        time.sleep(0.001)
    records = _records(tracer)
    assert len(records) == 1
    (record,) = records
    assert set(record) == RECORD_KEYS
    assert record["seq"] == 0
    assert record["name"] == "outer"
    assert record["parent"] is None
    assert record["attrs"] == {"topology": "isp", "mode": "load"}
    assert record["dur_ms"] >= 1.0
    assert record["start_s"] >= 0.0


def test_nesting_records_parent_ids_child_first(tracer):
    with obs.span("parent") as outer:
        with obs.span("child"):
            pass
        with obs.span("sibling"):
            pass
    child, sibling, parent = _records(tracer)
    assert [r["name"] for r in (child, sibling, parent)] == [
        "child", "sibling", "parent",
    ]
    assert child["parent"] == parent["span"] == outer.span_id
    assert sibling["parent"] == parent["span"]
    assert [r["seq"] for r in (child, sibling, parent)] == [0, 1, 2]


def test_current_span_id_is_the_innermost_open_span(tracer):
    assert obs.current_span_id() is None
    with obs.span("outer") as outer:
        assert obs.current_span_id() == outer.span_id
        with obs.span("inner") as inner:
            assert obs.current_span_id() == inner.span_id
        assert obs.current_span_id() == outer.span_id
    assert obs.current_span_id() is None


def test_current_span_id_is_none_when_tracing_is_off():
    assert not obs.tracing_enabled()
    with obs.span("ignored"):
        assert obs.current_span_id() is None


def test_late_attributes_land_in_the_record(tracer):
    with obs.span("sized") as span:
        span.set(rows=17)
    (record,) = _records(tracer)
    assert record["attrs"] == {"rows": 17}


def test_nesting_is_per_thread(tracer):
    seen = {}

    def worker():
        with obs.span("thread-root") as span:
            seen["thread_root"] = span.span_id

    with obs.span("main-root"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    by_name = {r["name"]: r for r in _records(tracer)}
    # The worker's root span must not adopt the main thread's open span.
    assert by_name["thread-root"]["parent"] is None
    assert by_name["main-root"]["parent"] is None
    assert by_name["thread-root"]["thread"] != by_name["main-root"]["thread"]


def test_span_ids_unique_under_concurrency(tracer):
    def worker(_i):
        for _ in range(50):
            with obs.span("burst"):
                pass

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    records = _records(tracer)
    assert len(records) == 8 * 50
    assert len({r["span"] for r in records}) == len(records)
    assert sorted(r["seq"] for r in records) == list(range(len(records)))


def test_enable_tracing_replaces_the_previous_tracer(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    obs.enable_tracing(first)
    try:
        with obs.span("one"):
            pass
        obs.enable_tracing(second)
        with obs.span("two"):
            pass
    finally:
        obs.disable_tracing()
    assert [r["name"] for r in _records(first)] == ["one"]
    assert [r["name"] for r in _records(second)] == ["two"]
    obs.disable_tracing()  # idempotent


def test_repro_trace_env_bootstraps_tracing(tmp_path):
    import os

    path = tmp_path / "env.jsonl"
    script = (
        "from repro import obs\n"
        "assert obs.tracing_enabled()\n"
        "with obs.span('booted'):\n"
        "    pass\n"
        "obs.disable_tracing()\n"
    )
    src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
    python_path = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={**os.environ, "REPRO_TRACE": str(path), "PYTHONPATH": python_path},
    )
    assert [r["name"] for r in _records(path)] == ["booted"]
