"""Outside-in layer timing: wrap the program's public functions in place.

Nothing under ``src/`` knows it is being timed.  :meth:`Tracer.install`
replaces each function named in :data:`LAYERS` with a timing wrapper in
every ``repro`` module that binds it (``src/`` uses ``from X import f``,
so patching the defining module alone would miss most callers), and on
the class for methods.  A thread-local stack gives every call a parent,
so each layer gets a call count, inclusive time and self time (its
duration minus its timed children).  :meth:`Tracer.set_active` binds the
originals back and forth, so an operation can run untraced and traced
back to back.

Spans stay in memory and are written once, at the end, in the
``repro.obs`` JSONL schema so ``repro-dtr obs trace-summary`` reads them.
A name that no longer resolves is listed in :attr:`Tracer.unbound`,
never raised: later changes may delete code this table names.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Optional

LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("core.search", ("repro.api:optimize",)),
    ("core.evaluator", ("repro.core.evaluator:DualTopologyEvaluator.evaluate",)),
    ("routing.incremental", (
        "repro.routing.incremental:affected_destinations",
        "repro.routing.incremental:destinations_using_links",
        "repro.routing.incremental:derive_routing",
        "repro.routing.incremental:derive_routings_batch",
    )),
    ("routing.spf", (
        "repro.routing.spf:distances_to_all",
        "repro.routing.spf:distances_to_subset",
        "repro.routing.spf:distances_to_subsets_batched",
    )),
    ("routing.soa.build", (
        "repro.routing.soa:build_arrays_and_schedule",
        "repro.routing.soa:build_destination_dags",
        "repro.routing.soa:build_schedule",
        "repro.routing.soa:slice_destination_dags",
    )),
    ("routing.soa.accumulate", ("repro.routing.soa:accumulate_rows",)),
    ("routing.pair_fractions", (
        "repro.routing.state:Routing.pair_fraction_rows",
        "repro.routing.state:Routing.pair_link_fractions",
    )),
    ("costs.fortz", (
        "repro.costs.fortz:fortz_cost_vector",
        "repro.costs.load_cost:load_cost_from_loads",
    )),
    ("costs.sla", (
        "repro.costs.sla:link_delays_ms",
        "repro.costs.sla:sla_cost_from_loads",
    )),
    ("api.session", (
        "repro.api.session:Session.under_scenario",
        "repro.api.session:Session.sweep",
        "repro.api.session:Session.sweep_space",
        "repro.api.session:Session.evaluate",
    )),
    ("scenarios.batch", (
        "repro.scenarios.batch:SweepEngine.evaluate",
        "repro.scenarios.batch:SweepEngine.evaluate_streaming",
        "repro.scenarios.batch:SweepEngine.sweep",
    )),
    ("scenarios.spaces", (
        "repro.scenarios.spaces:sweep_scenario_space",
        "repro.scenarios.spaces:DominancePruner.dominated",
        "repro.scenarios.spaces:DominancePruner.record",
    )),
    ("serve.scheduler", ("repro.serve.scheduler:MicroBatchScheduler.submit",)),
    ("serve.cache", ("repro.serve.cache:PlanCache.get_or_compute",)),
    ("serve.encoding", (
        "repro.serve.encoding:whatif_payload",
        "repro.serve.encoding:sweep_payload",
        "repro.serve.encoding:space_payload",
        "repro.serve.encoding:canonical_body",
    )),
    # No function: the serve host swaps ``session.lock`` for a timed proxy.
    ("serve.lock", ()),
)
"""Layer name -> the public callables timed as that layer."""

REQUEST = "request"
"""Root span of one served request.  Not a layer: its self time is the
request thread waiting on the scheduler, which the scheduler thread's own
spans already account for."""

REQUEST_TARGETS = (
    "repro.serve.service:ServeService.whatif",
    "repro.serve.service:ServeService.sweep",
)

def _distance_rows(result) -> int:
    """Distance rows in a solve's result: one matrix, or a list of them."""
    blocks = result if isinstance(result, list) else [result]
    return sum(int(getattr(block, "shape", (0,))[0]) for block in blocks)


ROW_COUNTERS: dict[str, Callable[[object], int]] = {
    "routing.spf": _distance_rows,
    "routing.soa.accumulate": _distance_rows,
}
"""Per-layer work counts read off a call's result (rows solved or
accumulated)."""

SPAN_CAP = 200_000
"""Spans kept for the JSONL file; roots are always kept.  A traced search
makes ~10 spans per evaluation, so an uncapped run would hold millions."""

_PRELOAD = ("repro.api", "repro.scenarios", "repro.serve")
"""Packages imported before patching, so every module that binds a timed
name is loaded when the binding scan runs."""


def layer_names() -> list[str]:
    return [name for name, _ in LAYERS]


class _ThreadState:
    __slots__ = ("stack", "depth", "agg", "spans", "ident")

    def __init__(self, num_names: int) -> None:
        self.stack: list[list] = []
        self.depth = [0] * num_names
        # calls, self seconds, inclusive seconds, rows
        self.agg = [[0, 0.0, 0.0, 0] for _ in range(num_names)]
        self.spans: list[tuple] = []
        self.ident = threading.get_ident()


class Tracer:
    """Patches the layer table into the loaded program and records calls."""

    def __init__(self) -> None:
        self.names = layer_names() + [REQUEST]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.functions: list[str] = []
        self.unbound: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._budget = itertools.count()
        self._bindings: list[tuple] = []  # (owner, key, original, wrapper)
        self.epoch = perf_counter()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every resolvable target; record the rest as unbound."""
        for package in _PRELOAD:
            try:
                importlib.import_module(package)
            except ImportError:
                self.unbound.append(package)
        for layer, targets in LAYERS:
            for target in targets:
                self._patch(target, layer)
        for target in REQUEST_TARGETS:
            self._patch(target, REQUEST)
        self.set_active(True)
        return self

    def set_active(self, active: bool) -> None:
        """Bind the wrappers (``True``) or the original callables back.
        An inherited method had no binding of its own on the class, so it
        is restored by deleting the wrapper."""
        for owner, key, original, wrapper in self._bindings:
            if active:
                setattr(owner, key, wrapper)
            elif original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def _patch(self, target: str, name: str) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.unbound.append(target)
            return
        *owner_path, attr = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None) if owner is not None else None
        own = None if owner is None else vars(owner).get(attr)
        raw = own if own is not None or owner is None else getattr(owner, attr, None)
        if raw is None or not callable(getattr(raw, "__func__", raw)):
            self.unbound.append(target)
            return
        fn_index = len(self.functions)
        self.functions.append(qualname)
        count = ROW_COUNTERS.get(name)
        if owner is not module:  # a method: bind once, on the class
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(self.wrap(raw.__func__, name, fn_index))
            else:
                wrapper = self.wrap(raw, name, fn_index, count)
            self._bindings.append((owner, attr, own, wrapper))
            return
        wrapper = self.wrap(raw, name, fn_index, count)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is raw:
                    self._bindings.append((loaded, key, raw, wrapper))

    def _state(self) -> _ThreadState:
        state = _ThreadState(len(self.names))
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def wrap(self, fn: Callable, name: str, fn_index: int,
             count: Optional[Callable[[object], int]] = None) -> Callable:
        """A timing wrapper around ``fn`` recorded under ``name``."""
        layer = self._index[name]
        local = self._local
        ids = self._ids
        budget = self._budget
        new_state = self._state

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            keep = parent is None or (parent[2] and next(budget) < SPAN_CAP)
            frame = [next(ids), 0.0, keep]
            stack.append(frame)
            depth = state.depth
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if parent is not None:
                    parent[1] += dur
                agg = state.agg[layer]
                agg[0] += 1
                agg[1] += dur - frame[1]
                if not depth[layer]:
                    agg[2] += dur
                if keep:
                    state.spans.append(
                        (frame[0], parent[0] if parent else None, layer, fn_index,
                         start, dur)
                    )
            if count is not None:
                agg[3] += count(result)
            return result

        return timed

    def timed_lock(self, lock) -> "TimedLock":
        """A proxy for ``lock`` whose acquisitions time as ``serve.lock``."""
        fn_index = len(self.functions)
        self.functions.append("Session.lock.acquire")
        return TimedLock(lock, self.wrap(lock.acquire, "serve.lock", fn_index))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (call between phases only)."""
        with self._states_lock:
            for state in self._states:
                state.agg = [[0, 0.0, 0.0, 0] for _ in self.names]
                state.spans = []
        self._budget = itertools.count()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``/``self_s``/``incl_s``/``rows``, all threads."""
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "rows": 0}
               for name in self.names}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s, incl_s, rows) in zip(self.names, state.agg):
                entry = out[name]
                entry["calls"] += calls
                entry["self_s"] += self_s
                entry["incl_s"] += incl_s
                entry["rows"] += rows
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as ``repro.obs`` JSONL; returns the count."""
        with self._states_lock:
            states = list(self._states)
        records = sorted(
            (span + (state.ident,) for state in states for span in state.spans),
            key=lambda record: record[4],
        )
        pid = os.getpid()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for seq, (span_id, parent, layer, fn_index, start, dur, thread) in enumerate(records):
                handle.write(json.dumps({
                    "seq": seq,
                    "span": span_id,
                    "parent": parent,
                    "name": self.names[layer],
                    "start_s": start - self.epoch,
                    "dur_ms": dur * 1e3,
                    "pid": pid,
                    "thread": thread,
                    "attrs": {"fn": self.functions[fn_index]},
                }, sort_keys=True) + "\n")
        return len(records)


class TimedLock:
    """Context-manager proxy that times how long acquiring a lock waits."""

    def __init__(self, lock, timed_acquire: Callable) -> None:
        self._lock = lock
        self.acquire = timed_acquire

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
