"""The four workloads: seeded inputs, a timed pass, checks and metrics.

Every workload reaches the program through its public API only
(``repro.api``, ``repro.scenarios``, ``repro.serve``).  Inputs derive from
``(seed, workload, instance)`` alone.

The in-process workloads (searches and space sweeps) build a fixed set of
seeded instances and run them round robin, each operation on a fresh
session, until ``seconds`` have passed; every instance runs at least
twice.  An instance's time is its fastest repeat.  The shared host only
ever makes an operation slower, and one instance's repeats are spread
over the whole run, so the fastest repeat is the program's own speed.
The headline metrics take the median or the total over instances.

serve-mixed is one closed loop against a fresh server.  Its operation
time is the server's own handling time of a what-if that misses the plan
cache, read from the server's request log: loopback transport would
otherwise hide the scenario engine (see README.md, *Observations*).

``repro`` is imported inside functions, never at module level: the setup
probe times those imports, and a directory without the program must fail
at the first call, not at import of this file.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Optional

from .layers import Tracer

SPACE_SPEC = "space:all-link-2"
CLIENTS = 2  # one closed-loop client thread per core of the reference box
OUT_DIR = Path(__file__).resolve().parents[2] / ".bench_out"
"""Span files and the serve host's request log, inside the checkout."""


def rng_for(seed: int, *parts) -> random.Random:
    """A deterministic stream for one named part of one seeded run."""
    return random.Random("/".join(["e2e", str(seed), *map(str, parts)]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\n")
    return digest.hexdigest()


def powerlaw_inputs(rng: random.Random, nodes: int):
    """Power-law network (attachment 3) with the paper's traffic: gravity
    low priority, random high priority (f=0.3, k=0.1), mean utilization 0.6."""
    from repro.network.topology_powerlaw import powerlaw_topology

    net = powerlaw_topology(num_nodes=nodes, attachment=3, rng=rng)
    return (net, *_traffic(net, rng))


def stub_edge_inputs(rng: random.Random, core: int, stubs: int):
    """Power-law core plus single-homed stubs, whose adjacencies are bridges."""
    from repro.network.graph import Network
    from repro.network.topology_powerlaw import powerlaw_topology

    core_net = powerlaw_topology(num_nodes=core, attachment=3, rng=rng)
    net = Network(core + stubs, name="edge")
    for u, v in core_net.duplex_pairs():
        net.add_duplex_link(u, v)
    for stub in range(core, core + stubs):
        net.add_duplex_link(stub, rng.randrange(core))
    return (net, *_traffic(net, rng))


def _traffic(net, rng: random.Random):
    from repro.traffic.gravity import gravity_traffic_matrix
    from repro.traffic.highpriority import random_high_priority
    from repro.traffic.scaling import scale_to_utilization

    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, 0.1, 0.3, rng)
    return scale_to_utilization(net, high.matrix, low, 0.6)


def random_baseline(net, rng: random.Random):
    from repro.routing.weights import random_weights

    return random_weights(net.num_links, rng), random_weights(net.num_links, rng)


class Deltas:
    """Instrument growth between two ``repro.obs`` snapshots.

    A name absent from the later snapshot is noted in ``missing`` and
    reads 0, never raises: later changes may rename instruments.
    """

    def __init__(self, before: list, after: list, missing: list) -> None:
        self.before, self.after, self.missing = before, after, missing

    def _sum(self, samples: list, name: str, labels: dict, part: str) -> float:
        return sum(
            float(sample.get(part, 0.0)) for sample in samples
            if sample["name"] == name
            and all(sample["labels"].get(k) == v for k, v in labels.items())
        )

    def get(self, name: str, labels: Optional[dict] = None, part: str = "value") -> float:
        """Growth of ``part`` summed over every sample of ``name`` whose
        labels include ``labels``."""
        if not any(sample["name"] == name for sample in self.after):
            self.missing.append(f"instrument:{name}")
            return 0.0
        labels = labels or {}
        return self._sum(self.after, name, labels, part) - self._sum(
            self.before, name, labels, part
        )

    def mean(self, name: str, labels: Optional[dict] = None) -> float:
        return frac(self.get(name, labels, "sum"), self.get(name, labels, "count"))


def affected_frac(deltas: Deltas, nodes: int) -> float:
    """Mean share of destinations a weight or topology delta re-routes."""
    affected = "repro_routing_affected_destinations"
    return frac(deltas.get(affected, part="sum"), deltas.get(affected, part="count") * nodes)


def engine_extras(stats: dict, missing: list) -> dict:
    """Sweep-engine reuse ratios from its event counts by kind."""
    keys = ("derived_routings", "full_routings", "reused_rows", "recomputed_rows")
    for key in keys:
        if key not in stats:
            missing.append(f"engine-stat:{key}")
    derived, full, reused, recomputed = (stats.get(key, 0) for key in keys)
    return {
        "scenarios.batch.derived_frac": frac(derived, derived + full),
        "scenarios.batch.reused_row_frac": frac(reused, reused + recomputed),
    }


def _obs_snapshot() -> list:
    from repro import obs

    return obs.snapshot()


@dataclass
class Pass:
    """One pass over a workload's operations."""

    records: list
    wall_s: float  # summed operation time: what the layer shares divide
    elapsed_s: float  # first operation start to last operation end
    peak_rss_mb: float = 0.0
    layers: Optional[dict] = None  # traced passes only
    extras: dict = field(default_factory=dict)
    unbound: list = field(default_factory=list)
    spans: int = 0  # spans written to the JSONL file
    overhead: float = 0.0  # traced over untraced time, minus 1 (traced passes)
    handled: list = field(default_factory=list)  # serve: the server's request log


# ----------------------------------------------------------------------
# In-process workloads: search-load, search-sla, space-sweep
# ----------------------------------------------------------------------
class InProcessWorkload:
    """Rounds over ``instances`` seeded instances; each operation is an
    untimed ``prepare`` (a fresh session) and a timed ``operate``.

    A record holds the instance ``index``, its ``seconds``, its ``work``
    (evaluations or scenarios, the same on every repeat) and its
    ``outcome``, the bytes every repeat of the instance must reproduce.
    """

    name = ""
    instances = 8

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.spans_path: Optional[str] = None
        self._inputs: dict = {}
        if smoke:
            self.instances = 2

    def make_inputs(self, rng: random.Random):
        raise NotImplementedError

    def inputs(self, index):
        """Instance ``index``'s inputs, generated once from the seed."""
        if index not in self._inputs:
            rng = rng_for(self.seed, self.name, index, "inputs")
            self._inputs[index] = self.make_inputs(rng)
        return self._inputs[index]

    def prepare(self, index):
        """A fresh session on instance ``index``, ready for ``operate``."""
        raise NotImplementedError

    def operate(self, index, session) -> dict:
        """Run one timed operation; returns its record."""
        raise NotImplementedError

    def check_outcome(self, record) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation on inputs no timed operation uses."""
        self.operate("warm-up", self.prepare("warm-up"))

    def _rounds(self, seconds: float, min_rounds: int, operation) -> None:
        """Call ``operation(index)`` for every instance, round after round:
        at least ``min_rounds`` rounds, and another while it is expected to
        end within ``seconds``."""
        started = perf_counter()
        rounds = 0
        while rounds < min_rounds or (perf_counter() - started) * (rounds + 1) / rounds <= seconds:
            for index in range(self.instances):
                operation(index)
            rounds += 1

    def run_pass(self, seconds: float) -> Pass:
        """Rounds of operations for about ``seconds``, at least two."""
        records: list = []
        started = perf_counter()

        def operation(index) -> None:
            records.append(self.operate(index, self.prepare(index)))

        self._rounds(seconds, 2, operation)
        return Pass(records, wall_s=sum(r["seconds"] for r in records),
                    elapsed_s=perf_counter() - started, peak_rss_mb=peak_rss_mb())

    def traced_pass(self, seconds: float) -> tuple[Pass, Pass]:
        """Rounds of (untraced, traced) operations back to back, for about
        ``seconds``.  The overhead is the median of the per-pair ratios,
        so neither a drifting host nor a burst on a few pairs moves it.
        Sessions are built with the wrappers unbound, so set-up never
        shows up in the layer shares; the obs ratios cover both runs of
        each pair.  Returns the untraced and the traced pass."""
        tracer = Tracer().install()
        tracer.set_active(False)
        before = _obs_snapshot()
        plain: list = []
        traced: list = []
        ratios: list = []
        started = perf_counter()

        def operation(index) -> None:
            plain.append(self.operate(index, self.prepare(index)))
            session = self.prepare(index)
            tracer.set_active(True)
            traced.append(self.operate(index, session))
            tracer.set_active(False)
            ratios.append(traced[-1]["seconds"] / plain[-1]["seconds"])

        self._rounds(seconds, 1, operation)
        elapsed = perf_counter() - started
        untraced = Pass(plain, wall_s=sum(r["seconds"] for r in plain), elapsed_s=elapsed,
                        peak_rss_mb=peak_rss_mb())
        result = Pass(traced, wall_s=sum(r["seconds"] for r in traced), elapsed_s=elapsed,
                      overhead=statistics.median(ratios) - 1.0, layers=tracer.totals())
        missing = list(tracer.unbound)
        deltas = Deltas(before, _obs_snapshot(), missing)
        result.extras = {
            "routing.incremental.affected_frac": affected_frac(deltas, self.nodes),
            **self.layer_extras(traced, missing),
        }
        result.unbound = missing
        if self.spans_path:
            result.spans = tracer.write_spans(self.spans_path)
        return untraced, result

    def layer_extras(self, records, missing: list) -> dict:
        return {}

    def check(self, run: Pass) -> int:
        """Operations that failed: every repeat must reproduce its
        instance's first outcome, and that outcome must pass
        ``check_outcome``."""
        firsts: dict = {}
        failed = 0
        for record in run.records:
            index = record["index"]
            if index not in firsts:
                firsts[index] = (record["outcome"], self.check_outcome(record))
            outcome, ok = firsts[index]
            failed += not (ok and record["outcome"] == outcome)
        return failed

    def digest(self, run: Pass) -> str:
        """Every instance's first outcome, in instance order."""
        firsts: dict = {}
        for record in run.records:
            firsts.setdefault(record["index"], record["outcome"])
        return sha256(firsts[index] for index in sorted(firsts))

    def metrics(self, run: Pass) -> dict:
        """Per instance the fastest repeat; ``op_ms`` is their median and
        ``work_per_s`` their total work over their total time."""
        best: dict = {}
        work: dict = {}
        for record in run.records:
            index = record["index"]
            best[index] = min(best.get(index, record["seconds"]), record["seconds"])
            work[index] = record["work"]
        return {
            "work_per_s": (sum(work.values()) / sum(best.values()), "1/s"),
            "op_ms": (statistics.median(best.values()) * 1e3, "ms"),
            "instances": (len(best), "count"),
            "operations": (len(run.records), "count"),
        }


class SearchWorkload(InProcessWorkload):
    """DTR weight searches, each instance on its own seeded network and
    traffic with its own search seed."""

    mode = "load"
    nodes, scale = 100, 0.02
    smoke_nodes = 16

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.nodes, self.scale = self.smoke_nodes, 0.01

    def make_inputs(self, rng):
        return powerlaw_inputs(rng, self.nodes)

    def prepare(self, index):
        from repro import api

        return api.Session(*self.inputs(index), cost_model=self.mode)

    def set_up(self) -> float:
        """Seconds to build a session and evaluate unit weights once."""
        net = self.inputs(0)[0]
        started = perf_counter()
        session = self.prepare(0)
        session.set_weights([1] * net.num_links)
        session.evaluate()
        return perf_counter() - started

    def operate(self, index, session):
        from repro import api

        params = api.SearchParams.scaled(self.scale)
        rng = rng_for(self.seed, self.name, index, "search")
        started = perf_counter()
        result = api.optimize(session, "dtr", params=params, rng=rng)
        took = perf_counter() - started
        objective = [float(v) for v in result.objective.values]
        high = [int(w) for w in result.high_weights]
        low = [int(w) for w in result.low_weights]
        return {
            "index": index,
            "seconds": took,
            "work": result.evaluations,
            "outcome": json.dumps([objective, high, low]).encode(),
            "objective": objective,
            "high": high,
            "low": low,
            "cache": session.evaluator.cache_stats(),
        }

    def check_outcome(self, record) -> bool:
        """Re-evaluating the returned weights in a fresh session must give
        the identical objective."""
        from repro import api

        fresh = api.Session(*self.inputs(record["index"]), cost_model=self.mode)
        fresh.set_weights(record["high"], record["low"])
        return [float(v) for v in fresh.objective().values] == record["objective"]

    def layer_extras(self, records, missing: list) -> dict:
        stats: dict[str, int] = {}
        for record in records:
            for key, value in record["cache"].items():
                stats[key] = stats.get(key, 0) + value
        derived = stats.get("high_incremental", 0) + stats.get("low_incremental", 0)
        built = derived + stats.get("high_full", 0) + stats.get("low_full", 0)
        lookups = stats.get("full_hits", 0) + stats.get("full_misses", 0)
        return {
            "core.evaluator.hit_ratio": frac(stats.get("full_hits", 0), lookups),
            "core.evaluator.derived_frac": frac(derived, built),
        }


class SearchLoad(SearchWorkload):
    name = "search-load"


class SearchSla(SearchWorkload):
    name = "search-sla"
    mode = "sla"
    nodes = 30
    smoke_nodes = 12
    instances = 12


class SpaceSweep(InProcessWorkload):
    """``Session.sweep_space("space:all-link-2")`` on core-plus-stub edges,
    from a random baseline weight setting per instance."""

    name = "space-sweep"
    core, stubs = 16, 4
    instances = 6
    check_sample = 32

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.core, self.stubs, self.check_sample = 8, 2, 4
        self.nodes = self.core + self.stubs

    def make_inputs(self, rng):
        net, high, low = stub_edge_inputs(rng, self.core, self.stubs)
        return net, high, low, random_baseline(net, rng)

    def prepare(self, index):
        from repro import api

        net, high, low, weights = self.inputs(index)
        session = api.Session(net, high, low, cost_model="load")
        session.set_weights(*weights)
        return session.prepare()

    def set_up(self) -> float:
        """Seconds to build a session and ``prepare()`` it."""
        self.inputs(0)
        started = perf_counter()
        self.prepare(0)
        return perf_counter() - started

    def operate(self, index, session):
        from repro.serve.encoding import canonical_body, space_payload

        started = perf_counter()
        result = session.sweep_space(SPACE_SPEC)
        took = perf_counter() - started
        return {
            "index": index, "seconds": took, "work": result.scenarios,
            "outcome": canonical_body(space_payload(result)), "result": result,
        }

    def check_outcome(self, record) -> bool:
        """Counts must add up to the space size, and a seeded sample of
        scenarios, each evaluated by a fresh session, must score no worse
        than the aggregate's worst."""
        from repro import api
        from repro.scenarios import parse_space

        net, high, low, weights = self.inputs(record["index"])
        result = record["result"]
        space = parse_space(SPACE_SPEC)
        ok = result.evaluated + result.pruned == result.scenarios == space.size(net)
        fresh = api.Session(net, high, low, cost_model="load")
        fresh.set_weights(*weights)
        scenarios = list(space.scenarios(net))
        sample = rng_for(self.seed, self.name, record["index"], "check").sample(
            scenarios, min(self.check_sample, len(scenarios))
        )
        aggregate = result.aggregate
        for scenario in sample:
            answer = fresh.under_scenario(scenario)
            if answer.disconnected:
                ok = ok and result.disconnected > 0
                continue
            ok = ok and (
                answer.variant_objective.primary <= aggregate.primary.worst
                and answer.variant_objective.secondary <= aggregate.secondary.worst
                and answer.variant.max_utilization <= aggregate.max_utilization.worst
            )
        return ok

    def layer_extras(self, records, missing: list) -> dict:
        # Space sweeps stream through a transient engine whose counts are
        # returned on the result, not mirrored into the obs registry.
        stats: dict[str, int] = {}
        for record in records:
            for key, value in record["result"].stats.items():
                stats[key] = stats.get(key, 0) + value
        scenarios = sum(r["result"].scenarios for r in records)
        pruned = sum(r["result"].pruned for r in records)
        return {
            "scenarios.spaces.pruned_frac": frac(pruned, scenarios),
            **engine_extras(stats, missing),
        }


# ----------------------------------------------------------------------
# serve-mixed: a server subprocess and a closed-loop HTTP client
# ----------------------------------------------------------------------
class RequestStream:
    """The seeded request mix, generated lazily in a fixed order.

    Every block of 20 requests holds, in seeded order, 10 repeats from a
    hot set of single-link failures (plan-cache hits after first sight),
    9 never-seen two-element compositions (cache misses that grow the
    engine memo) and 1 explicit sweep.  Exact shares per block keep the
    server's memory and the hit ratio from varying with the seed.
    """

    BLOCK = ("hot",) * 10 + ("fresh",) * 9 + ("sweep",)

    def __init__(self, net, rng: random.Random, hot: int, sweep_size: int) -> None:
        from repro.scenarios import canonical_spec

        self._canonical = canonical_spec
        self._rng = rng
        self._pairs = sorted(net.duplex_pairs())
        self._nodes = net.num_nodes
        self._sweep_size = sweep_size
        self.hot = [self._link(pair) for pair in rng.sample(self._pairs, hot)]
        self._seen = set(self.hot)
        self._block: list = []

    def _link(self, pair) -> str:
        return self._canonical(f"link:{pair[0]}-{pair[1]}")

    def __next__(self) -> tuple[str, dict]:
        rng = self._rng
        if not self._block:
            self._block = list(self.BLOCK)
            rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "hot":
            return "whatif", {"scenario": rng.choice(self.hot)}
        if kind == "fresh":
            return "whatif", {"scenario": self._fresh()}
        pairs = rng.sample(self._pairs, self._sweep_size)
        return "sweep", {"scenarios": [self._link(pair) for pair in pairs]}

    def _fresh(self) -> str:
        rng = self._rng
        while True:
            (a, b), (c, d) = rng.sample(self._pairs, 2)
            kind = rng.randrange(3)
            if kind == 0:
                text = f"link:{a}-{b}+link:{c}-{d}"
            elif kind == 1:
                factor = rng.choice((1.5, 2.0, 3.0))
                text = f"link:{a}-{b}+surge:{rng.randrange(self._nodes)}x{factor}"
            else:
                text = f"srlg:{a}-{b},{c}-{d}"
            spec = self._canonical(text)
            if spec not in self._seen:
                self._seen.add(spec)
                return spec


def serve_inputs(seed: int, smoke: bool):
    """The served baseline: unit high-priority weights, random low."""
    import numpy as np

    rng = rng_for(seed, "serve-mixed", "inputs")
    net, high, low = powerlaw_inputs(rng, 20 if smoke else 100)
    _high_weights, low_weights = random_baseline(net, rng)
    return net, high, low, np.ones(net.num_links, dtype=np.int64), low_weights


def serve_service(inputs):
    """A session on the served baseline behind ``api.serve_session``."""
    from repro import api

    net, high, low, high_weights, low_weights = inputs
    session = api.Session(net, high, low, cost_model="load")
    session.set_weights(high_weights, low_weights)
    return session, api.serve_session(session)


def start_server(service, log_path=None):
    """A ``WhatIfServer`` on an ephemeral loopback port, serving from a
    thread; returns ``(server, thread)``."""
    from repro.serve import WhatIfServer

    server = WhatIfServer(("127.0.0.1", 0), service, log_path=log_path)
    thread = threading.Thread(target=server.serve_forever, name="serve-http", daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread) -> None:
    server.shutdown()  # also closes the service and the request log
    server.server_close()
    thread.join(timeout=30)


def logged_posts(path: Path, offset: int, count: int) -> list:
    """``[path, cache_hit, seconds]`` of the POST requests the
    server logged after byte ``offset``, once ``count`` are there (the
    server writes a line just after its response, so the last ones may
    lag the client by a moment; gives up after 10 s)."""
    deadline = monotonic() + 10.0
    while True:
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                lines = handle.read().splitlines()
        except FileNotFoundError:
            lines = []
        records = [json.loads(line) for line in lines if line.endswith(b"}")]
        posts = [
            [r["path"], r.get("cache_hit"), r["ms"] / 1e3]
            for r in records if r["method"] == "POST"
        ]
        if len(posts) >= count or monotonic() > deadline:
            return posts
        sleep(0.01)


def serve_host(seed: int, smoke: bool, trace: bool, spans_path: Optional[str]) -> None:
    """Body of the server subprocess: serve until stdin closes.

    Control lines on stdin: ``start`` (zero the layer counters; the
    measured phase begins), ``rss`` (report the peak RSS so far) and
    ``stop N`` (report the phase, whose N requests the client has had
    answered).  Replies are JSON lines on stdout.  Per-request handling
    times come from the server's JSONL request log; instruments are read
    from ``metrics_samples()``, the samples ``GET /metrics?format=prometheus``
    renders.
    """
    from repro import obs

    session, service = serve_service(serve_inputs(seed, smoke))
    tracer = None
    if trace:
        tracer = Tracer().install()
        session.lock = tracer.timed_lock(session.lock)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log_path = OUT_DIR / f"requests-{os.getpid()}.jsonl"
    log_path.unlink(missing_ok=True)
    server, thread = start_server(service, log_path)

    def reply(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    def log_size() -> int:
        return log_path.stat().st_size if log_path.exists() else 0

    reply({"port": server.server_address[1]})
    before, cache_before, offset = service.metrics_samples(), service.cache.metrics(), 0
    try:
        for line in sys.stdin:
            command, *args = line.split()
            if command == "start":
                if tracer is not None:
                    tracer.reset()
                before, cache_before = service.metrics_samples(), service.cache.metrics()
                offset = log_size()
                reply({"ok": True})
            elif command == "rss":
                reply({"peak_rss_mb": peak_rss_mb()})
            elif command == "stop":
                report: dict = {"handled": logged_posts(log_path, offset, int(args[0]))}
                if tracer is not None:
                    missing: list = []
                    deltas = Deltas(before, service.metrics_samples(), missing)
                    cache = service.cache.metrics()
                    report["layers"] = tracer.totals()
                    report["extras"] = {
                        "serve.scheduler.queue_wait_ms": 1e3 * deltas.mean(
                            "repro_serve_scheduler_queue_wait_seconds"
                        ),
                        "serve.scheduler.batch_size": deltas.mean(
                            "repro_serve_scheduler_batch_size"
                        ),
                        "serve.cache.hit_ratio": frac(
                            cache["hits"] - cache_before["hits"],
                            cache["lookups"] - cache_before["lookups"],
                        ),
                        **engine_extras(
                            {
                                key: deltas.get(
                                    "repro_scenarios_engine_events_total", {"event": key}
                                )
                                for key in ("derived_routings", "full_routings",
                                            "reused_rows", "recomputed_rows")
                            },
                            missing,
                        ),
                        "routing.incremental.affected_frac": affected_frac(
                            deltas, session.network.num_nodes
                        ),
                    }
                    report["unbound"] = tracer.unbound + missing
                    if spans_path:
                        report["spans"] = tracer.write_spans(spans_path)
                reply(report)
    finally:
        stop_server(server, thread)
        obs.disable_tracing()
        log_path.unlink(missing_ok=True)


class ServeMixed:
    """Closed loop: ``CLIENTS`` threads on keep-alive loopback connections.

    A pass has two phases.  The first ``rss_after`` requests run, then the
    server reports its peak RSS while no request is in flight; the second
    phase runs until ``seconds`` have passed.  The server's scenario memo
    and plan cache grow with every request, so a fixed request count,
    not the run's length, sets the memory reported.
    """

    name = "serve-mixed"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.digest_ops, self.rss_after = (12, 12) if smoke else (60, 300)
        self.hot, self.sweep_size = (5, 4) if smoke else (50, 16)
        self.check_whatifs, self.check_sweeps = (8, 2) if smoke else (64, 8)
        self.spans_path: Optional[str] = None
        self.inputs = serve_inputs(seed, smoke)

    def warm_up(self) -> None:
        """Each pass warms its own server: one ``GET /health`` per
        connection, which touches no cache."""

    def set_up(self) -> float:
        """Seconds to build the served session and its service, bind the
        server and answer the first ``GET /health``."""
        started = perf_counter()
        _session, service = serve_service(self.inputs)
        server, thread = start_server(service)
        connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        connection.request("GET", "/health")
        connection.getresponse().read()
        took = perf_counter() - started
        connection.close()
        stop_server(server, thread)
        return took

    def _spawn(self, trace: bool) -> subprocess.Popen:
        from .cli import child_command, child_env

        args = ["_serve", "--seed", str(self.seed), "--trace", str(int(trace))]
        if self.smoke:
            args.append("--smoke")
        if trace and self.spans_path:
            args += ["--spans", self.spans_path]
        return subprocess.Popen(
            child_command(args), env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def run_pass(self, seconds: float) -> Pass:
        """Requests until ``seconds`` have passed, against a fresh server."""
        return self._pass(seconds, None, trace=False)

    def traced_pass(self, seconds: float) -> tuple[Pass, Pass]:
        """An untraced pass of a third of ``seconds``, then its requests
        again against a fresh traced server.  Request latency here is set
        by timers more than by the processor, so the untraced pass is the
        overhead's reference."""
        untraced = self.run_pass(seconds / 3)
        traced = self._pass(0.0, len(untraced.records), trace=True)
        traced.overhead = traced.wall_s / untraced.wall_s - 1.0
        return untraced, traced

    def _pass(self, seconds: float, ops: Optional[int], trace: bool) -> Pass:
        net = self.inputs[0]
        stream = RequestStream(net, rng_for(self.seed, self.name, "stream"), self.hot,
                               self.sweep_size)
        server = self._spawn(trace)
        try:
            return self._drive(server, stream, seconds, ops, trace)
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()

    def _drive(self, server, stream, seconds, ops, trace) -> Pass:
        def command(text: str) -> dict:
            server.stdin.write(text + "\n")
            server.stdin.flush()
            return json.loads(server.stdout.readline())

        port = json.loads(server.stdout.readline())["port"]
        connections = [http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                       for _ in range(CLIENTS)]
        for connection in connections:
            connection.request("GET", "/health")
            connection.getresponse().read()
        command("start")

        records: dict[int, tuple] = {}
        lock = threading.Lock()
        sent = 0
        started = perf_counter()

        def client(connection, done) -> None:
            nonlocal sent
            while True:
                with lock:
                    if done(sent):
                        return
                    index, sent = sent, sent + 1
                    kind, payload = next(stream)
                body = json.dumps(payload).encode()
                begin = perf_counter()
                try:
                    connection.request("POST", "/" + kind, body,
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    data, status = response.read(), response.status
                except (OSError, http.client.HTTPException):
                    connection.close()  # reconnects on the next request
                    data, status = b"", 0
                end = perf_counter()
                records[index] = (kind, payload, status, end - begin, data, begin, end)

        def phase(done) -> None:
            threads = [threading.Thread(target=client, args=(c, done)) for c in connections]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        first_phase = self.rss_after if ops is None else min(ops, self.rss_after)
        phase(lambda n: n >= first_phase)
        rss = command("rss")["peak_rss_mb"]
        if ops is None:
            phase(lambda n: n >= self.digest_ops and perf_counter() - started >= seconds)
        else:
            phase(lambda n: n >= ops)
        for connection in connections:
            connection.close()
        report = command(f"stop {len(records)}")
        server.stdin.close()
        server.wait(timeout=60)

        ordered = [records[i] for i in sorted(records)]
        first = min(r[5] for r in ordered)
        last = max(r[6] for r in ordered)
        latency = sum(r[3] for r in ordered)
        result = Pass(ordered, wall_s=latency, elapsed_s=last - first, peak_rss_mb=rss,
                      spans=report.get("spans", 0), handled=report["handled"])
        if trace:
            # Transport: what the client waited beyond the server's own
            # request handling (loopback TCP, HTTP framing, client side).
            transport_s = latency - sum(h[2] for h in result.handled)
            result.layers = {
                **report["layers"],
                "serve.transport": {"calls": len(ordered), "self_s": transport_s,
                                    "incl_s": transport_s, "rows": 0},
            }
            result.extras = {**report["extras"],
                             "serve.transport.ms": 1e3 * frac(transport_s, len(ordered))}
            result.unbound = report["unbound"]
        return result

    @staticmethod
    def _stripped(record) -> tuple[bytes, Optional[bool]]:
        from repro.serve.encoding import canonical_body

        answer = json.loads(record[4])
        served = answer.pop("served", None)
        return canonical_body(answer), (served or {}).get("cache_hit")

    def _bodies(self, run: Pass) -> list:
        if not hasattr(run, "bodies"):
            run.bodies = [
                self._stripped(r) if r[2] == 200 else (b"", None) for r in run.records
            ]
        return run.bodies

    @staticmethod
    def _key(record) -> str:
        payload = record[1]
        return payload.get("scenario") or "|".join(payload["scenarios"])

    def check(self, run: Pass) -> int:
        """Non-200 answers fail; every answer to a repeated query must be
        the same bytes; a seeded sample must equal a fresh session's."""
        from repro import api
        from repro.scenarios import ScenarioSet, parse_scenario
        from repro.serve.encoding import canonical_body, sweep_payload, whatif_payload

        bodies = self._bodies(run)
        first: dict[str, bytes] = {}
        failed = 0
        for record, (body, _hit) in zip(run.records, bodies):
            if record[2] != 200:
                failed += 1
                continue
            key = self._key(record)
            if first.setdefault(key, body) != body:
                failed += 1
        whatifs = sorted({self._key(r) for r in run.records if r[0] == "whatif"} & set(first))
        sweeps = sorted({self._key(r) for r in run.records if r[0] == "sweep"} & set(first))
        rng = rng_for(self.seed, self.name, "check")
        sample_w = rng.sample(whatifs, min(self.check_whatifs, len(whatifs)))
        sample_s = rng.sample(sweeps, min(self.check_sweeps, len(sweeps)))
        net, high, low, high_weights, low_weights = self.inputs
        fresh = api.Session(net, high, low, cost_model="load")
        fresh.set_weights(high_weights, low_weights)
        for spec in sample_w:
            expected = canonical_body(whatif_payload(fresh.under_scenario(spec)))
            failed += expected != first[spec]
        for key in sample_s:
            specs = key.split("|")
            result = fresh.sweep(ScenarioSet([parse_scenario(s) for s in specs]))
            failed += canonical_body(sweep_payload(result, specs)) != first[key]
        return failed

    def digest(self, run: Pass) -> str:
        return sha256(body for body, _hit in self._bodies(run)[: self.digest_ops])

    def metrics(self, run: Pass) -> dict:
        """Client-side latencies by kind, and the server's own handling
        times from its request log (``handled_*``)."""
        bodies = self._bodies(run)
        hits, misses, whatifs, sweeps = [], [], [], []
        for record, (_body, hit) in zip(run.records, bodies):
            ms = record[3] * 1e3
            if record[0] == "sweep":
                sweeps.append(ms)
                continue
            whatifs.append(ms)
            (hits if hit else misses).append(ms)
        handled_miss = [h[2] * 1e3 for h in run.handled if h[0] == "/whatif" and not h[1]]
        handled_hit = [h[2] * 1e3 for h in run.handled if h[0] == "/whatif" and h[1]]
        handled_sweep = [h[2] * 1e3 for h in run.handled if h[0] == "/sweep"]
        return {
            "work_per_s": (len(run.records) / run.elapsed_s, "1/s"),
            "op_ms": (percentile(handled_miss, 50), "ms"),
            "handled_hit_p50_ms": (percentile(handled_hit, 50), "ms"),
            "handled_sweep_p50_ms": (percentile(handled_sweep, 50), "ms"),
            "whatif_hit_p50_ms": (percentile(hits, 50), "ms"),
            "whatif_miss_p50_ms": (percentile(misses, 50), "ms"),
            "whatif_p98_ms": (percentile(whatifs, 98), "ms"),
            "whatif_samples": (len(whatifs), "count"),
            "sweep_p50_ms": (percentile(sweeps, 50), "ms"),
            "plan_cache_hit_frac": (frac(len(hits), len(whatifs)), "ratio"),
        }


WORKLOADS = {
    cls.name: cls for cls in (SearchLoad, SearchSla, ServeMixed, SpaceSweep)
}
"""Workload name -> class, in the order ``run --workload all`` uses."""


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Seconds of imports plus the workload's ``set_up()``: session build
    plus first evaluation or ``prepare()`` (serve: plus server bind and
    the first ``/health``).  Input generation is excluded.  Runs in a
    fresh process per sample."""
    started = perf_counter()
    from repro import api  # noqa: F401
    import repro.network.topology_powerlaw  # noqa: F401
    import repro.traffic.scaling  # noqa: F401
    if name == "serve-mixed":
        import repro.serve  # noqa: F401
    imports = perf_counter() - started
    return imports + WORKLOADS[name](seed, smoke).set_up()
