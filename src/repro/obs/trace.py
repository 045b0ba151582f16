"""Lightweight span tracing: nested timed sections exported as JSONL.

A span is a ``with obs.span("evaluate", attrs={...})`` context manager:
entering pushes it on a thread-local stack (so children record their
parent's id), exiting records a JSONL line through a shared
:class:`repro.ioutil.JsonlAppender` (one persistent handle, locked,
monotonic ``seq``).  Timing is ``perf_counter`` only — offsets from the
tracer's start, never wall clock (rule RL002's contract extends here:
trace files are diagnostics, but they still must not tempt anyone into
result-visible wall-clock reads).

Tracing is **off by default**: :func:`span` returns a shared no-op
context manager when no tracer is installed, so instrumented code pays
one module-level check per span.  Enable with :func:`enable_tracing`
(the ``serve --trace`` flag and ``REPRO_TRACE`` env var do this).

Trace records are out-of-band telemetry (lint rule RL006): they never
flow into canonical result payloads.

Record schema (one JSON object per line, keys sorted)::

    {"seq": int,        # appender-assigned, monotonic per file
     "span": int,       # process-unique span id
     "parent": int|null,# enclosing span's id on this thread
     "name": str,
     "start_s": float,  # perf_counter offset from tracer start
     "dur_ms": float,
     "pid": int,
     "thread": int,
     "attrs": {...}}    # caller-supplied, JSON-safe
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Optional, Union

from repro.ioutil import JsonlAppender


class _NullSpan:
    """The disabled path: a shared, stateless, reentrant no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        """Accept (and drop) late attributes."""


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes after entry (e.g. a result size)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        stack = self.tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.tracer._record(self, self._start, end)


class Tracer:
    """Writes span records to one JSONL file.

    Safe to share across threads: span ids come from a locked counter,
    the per-thread nesting stack is thread-local, and the appender
    serializes writes.
    """

    def __init__(self, path) -> None:
        self._writer = JsonlAppender(path)
        self._id_lock = threading.Lock()
        self._next = 0
        self._local = threading.local()
        self._epoch = perf_counter()
        self.path = self._writer.path

    def _next_id(self) -> int:
        with self._id_lock:
            self._next += 1
            return self._next

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, attrs: Optional[dict] = None) -> _Span:
        return _Span(self, name, dict(attrs) if attrs else {})

    def _record(self, span: _Span, start: float, end: float) -> None:
        self._writer.append(
            {
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start_s": start - self._epoch,
                "dur_ms": (end - start) * 1e3,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
                "attrs": span.attrs,
            }
        )

    def close(self) -> None:
        self._writer.close()


class _TracerState:
    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None


_tracer_state = _TracerState()


def enable_tracing(path) -> Tracer:
    """Install a process-wide tracer writing JSONL spans to ``path``."""
    disable_tracing()
    tracer = Tracer(path)
    _tracer_state.tracer = tracer
    return tracer


def disable_tracing() -> None:
    """Close and remove the process-wide tracer (idempotent)."""
    tracer = _tracer_state.tracer
    _tracer_state.tracer = None
    if tracer is not None:
        tracer.close()


def tracing_enabled() -> bool:
    return _tracer_state.tracer is not None


def get_tracer() -> Optional[Tracer]:
    return _tracer_state.tracer


def current_span_id() -> Optional[int]:
    """The id of the innermost span open on this thread, or ``None``
    (tracing off, or no span open).  Work handed to another thread
    carries it so that thread's spans can name their origin."""
    tracer = _tracer_state.tracer
    if tracer is None:
        return None
    stack = tracer._stack()
    return stack[-1] if stack else None


def span(name: str, attrs: Optional[dict] = None, **kw_attrs) -> Union[_Span, _NullSpan]:
    """A timed span on the process tracer, or a shared no-op when
    tracing is off.  ``attrs`` and keyword attributes merge."""
    tracer = _tracer_state.tracer
    if tracer is None:
        return _NULL_SPAN
    merged = dict(attrs) if attrs else {}
    if kw_attrs:
        merged.update(kw_attrs)
    return tracer.span(name, merged)


def _init_from_env() -> None:
    """Honor ``REPRO_TRACE=<path>`` at import (spawn workers inherit it)."""
    path = os.environ.get("REPRO_TRACE")
    if path:
        enable_tracing(path)
