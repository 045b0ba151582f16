"""Command line of the end-to-end benchmark.

Public commands::

    run     [--workload NAME|all] --seed N [--trace] [--json OUT] [--smoke]
    compare A/ B/

and the single-run form ``--workload NAME --seed N --seconds S --trace 0|1``,
which prints one JSON result object as its last line.  ``run`` measures
each workload for ``run_seconds`` of BENCHMARK.json, the length every
bound was set at.  Each workload runs in a fresh subprocess with a
cleaned environment; set-up time is the median over fresh probe
processes.  The ``_setup``, ``_work`` and ``_serve`` commands are those
subprocesses.  A workload's subprocesses share one deadline, so a run
ends within ``DEADLINE_S`` seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from .layers import layer_names
from .workloads import OUT_DIR, WORKLOADS, serve_host, setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 9
SMOKE_SECONDS = 0.4
DEADLINE_S = 170

REPORTED_LAYERS = [*layer_names(), "serve.transport"]
"""The wrapped layers plus transport, which the serve client derives
from its own latencies and the server's request log."""

EXTRAS = {
    "core.evaluator.hit_ratio": "ratio",
    "core.evaluator.derived_frac": "ratio",
    "routing.incremental.affected_frac": "ratio",
    "routing.spf.rows": "count",
    "routing.soa.accumulate.rows": "count",
    "scenarios.batch.derived_frac": "ratio",
    "scenarios.batch.reused_row_frac": "ratio",
    "scenarios.spaces.pruned_frac": "ratio",
    "serve.scheduler.queue_wait_ms": "ms",
    "serve.scheduler.batch_size": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.lock.wait_ms": "ms",
    "serve.transport.ms": "ms",
}
"""Per-layer ratios, counts and waits; a workload that lacks one reports 0."""


class BenchError(RuntimeError):
    """A run that cannot produce a result (the command exits 1)."""


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------
def child_command(args: list) -> list:
    return [sys.executable, str(HERE / "run.py"), *map(str, args)]


def child_env() -> dict:
    """The parent's environment minus tracing/bench hooks, one BLAS thread."""
    env = {
        key: value for key, value in os.environ.items()
        if key != "REPRO_TRACE" and not key.startswith("REPRO_BENCH_")
    }
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def call_child(args: list, deadline: float) -> dict:
    """Run one child to completion before ``deadline`` (a ``monotonic()``
    time); its last stdout line is a JSON object."""
    try:
        done = subprocess.run(
            child_command(args), env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(0.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} {args[1:]} passed the {DEADLINE_S}s deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} {args[1:]} exited with code {done.returncode}")
    return json.loads(lines[-1])


def spans_path(name: str, seed: int) -> str:
    return str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload end to end: set-up probes, each in a fresh process,
    then the measured child.  Returns metrics, digest and operation
    counts.  A traced run reports per-layer metrics and takes no set-up
    probe, except at smoke size, where one probe lets the traced run
    report every end-to-end metric too."""
    deadline = monotonic() + DEADLINE_S
    flags = ["--smoke"] if smoke else []
    samples = 1 if smoke else 0 if trace else SETUP_SAMPLES
    setups = [
        call_child(["_setup", name, "--seed", seed, *flags], deadline)["setup_s"]
        for _ in range(samples)
    ]
    args = ["_work", name, "--seed", seed, "--seconds", seconds, "--trace", int(trace), *flags]
    if trace:
        args += ["--spans", spans_path(name, seed)]
    result = call_child(args, deadline)
    if setups:
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
    result["workload"] = name
    result["seed"] = seed
    return result


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def layer_metrics(run) -> dict:
    """Per-layer calls, self/inclusive seconds and share of the wall time."""
    metrics: dict = {}
    attributed = 0.0
    for layer in REPORTED_LAYERS:
        totals = run.layers.get(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        metrics[f"{layer}.calls"] = (totals["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals["self_s"], "s")
        metrics[f"{layer}.incl_s"] = (totals["incl_s"], "s")
        metrics[f"{layer}.share"] = (totals["self_s"] / run.wall_s, "ratio")
        attributed += totals["self_s"]
    extras = dict(run.extras)
    extras["routing.spf.rows"] = run.layers["routing.spf"]["rows"]
    extras["routing.soa.accumulate.rows"] = run.layers["routing.soa.accumulate"]["rows"]
    lock = run.layers["serve.lock"]
    extras["serve.lock.wait_ms"] = 1e3 * lock["self_s"] / lock["calls"] if lock["calls"] else 0.0
    for name, unit in EXTRAS.items():
        metrics[name] = (extras.get(name, 0.0), unit)
    metrics["unattributed.share"] = ((run.wall_s - attributed) / run.wall_s, "ratio")
    metrics["trace_overhead"] = (run.overhead, "ratio")
    metrics["unbound.count"] = (len(run.unbound), "count")
    return metrics


def work(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
         spans: str | None) -> dict:
    """The measured process: warm up, time a pass, check it.  A traced run
    times each operation untraced and traced (see ``traced_pass``); its
    untraced half gives the end-to-end metrics and is what is checked."""
    workload = WORKLOADS[name](seed, smoke)
    workload.spans_path = spans
    workload.warm_up()
    if trace:
        untraced, traced = workload.traced_pass(seconds)
    else:
        untraced = workload.run_pass(seconds)
    metrics = workload.metrics(untraced)
    metrics["peak_rss_mb"] = (untraced.peak_rss_mb, "MiB")
    failed = workload.check(untraced)
    attempted = len(untraced.records)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    result = {
        "attempted": attempted,
        "failed": failed,
        "digest": workload.digest(untraced),
        "metrics": metrics,
    }
    if trace:
        result["digest_traced"] = workload.digest(traced)
        if result["digest_traced"] != result["digest"]:
            result["failed"] += 1
        result["layers"] = layer_metrics(traced)
        result["unbound"] = traced.unbound
        result["spans"] = traced.spans
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_object(result: dict, trace: bool) -> dict:
    """The one-line result object; metrics are exactly BENCHMARK.json's."""
    spec = load_benchmark()
    source = result["layers"] if trace else result["metrics"]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in names if name not in source]
    if missing:
        raise BenchError(f"{result['workload']} did not report {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": source[name][0], "unit": source[name][1]} for name in names
        },
    }


def print_result(result: dict, trace: bool) -> None:
    name = result["workload"]
    source = result["layers"] if trace else result["metrics"]
    for metric, (value, unit) in source.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(f"{name} failed {result['failed']} of {result['attempted']}")
    print(f"{name} digest {result['digest']} sha256")
    if trace:
        print(f"{name} digest_traced {result['digest_traced']} sha256")
        for target in result["unbound"]:
            print(f"{name} unbound {target}", file=sys.stderr)
        print(f"{name} spans {result['spans']} {spans_path(name, result['seed'])}",
              file=sys.stderr)


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a: str, dir_b: str) -> int:
    """Median and quartiles of each set per (workload, metric), the verdict
    against the BENCHMARK.json bound, whether any operation of B failed,
    and whether every digest agrees.  Exits 1 on any regression, failure
    or digest mismatch."""
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}

    def load(directory: str) -> dict:
        runs: dict = {}
        for path in sorted(Path(directory).glob("*.json")):
            with open(path) as handle:
                data = json.load(handle)
            if not isinstance(data, dict) or not isinstance(data.get("workloads"), dict):
                raise BenchError(f"{path} is not a run --json file")
            if data.get("trace"):
                continue
            for name, result in data["workloads"].items():
                runs.setdefault(name, []).append(result)
        return runs

    runs_a, runs_b = load(dir_a), load(dir_b)
    if not runs_a or not runs_b:
        print("error: both directories need untraced run --json files", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':<12} {'metric':<20} {'A median [q1, q3]':<33} "
          f"{'B median [q1, q3]':<33} verdict")
    for name in sorted(set(runs_a) & set(runs_b)):
        for metric in runs_a[name][0]["metrics"]:
            if metric == "failed_frac":
                continue  # judged on the failure counts below
            a = [r["metrics"][metric][0] for r in runs_a[name]]
            b = [r["metrics"][metric][0] for r in runs_b[name] if metric in r["metrics"]]
            if not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            verdict = "-"
            spec = bounds.get(metric)
            if spec is not None and qa[1]:
                sign = 1 if spec["better"] == "lower" else -1
                worse = sign * (qb[1] - qa[1]) / qa[1]
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
                if worse > spec["bound"]:
                    verdict, bad = f"REGRESSION {worse:+.1%} > {spec['bound']:.0%}", bad + 1
                else:
                    verdict = f"ok {worse:+.1%} <= {spec['bound']:.0%}"
                verdict += f" spread {spread:.1%}"
                if spread > spec["bound"]:
                    verdict += " (unresolved)"
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
            print(f"{name:<12} {metric:<20} {cells[0]:<33} {cells[1]:<33} {verdict}")
        failed = [sum(r["failed"] for r in runs) for runs in (runs_a[name], runs_b[name])]
        attempted = [sum(r["attempted"] for r in runs) for runs in (runs_a[name], runs_b[name])]
        cells = [f"{f} of {n}" for f, n in zip(failed, attempted)]
        verdict = "REGRESSION: B has failed operations" if failed[1] else "ok"
        bad += bool(failed[1])
        print(f"{name:<12} {'failed':<20} {cells[0]:<33} {cells[1]:<33} {verdict}")
        digests = {r["digest"] for r in runs_a[name] + runs_b[name]}
        same = len(digests) == 1
        bad += not same
        print(f"{name:<12} digests {'equal' if same else 'DIFFER'} "
              f"({len(runs_a[name])} + {len(runs_b[name])} runs)")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", action="store_true", help="report per-layer metrics")
    run.add_argument("--json", default=None, help="also write the results here")
    run.add_argument("--smoke", action="store_true", help="tiny inputs, short runs")

    cmp_ = sub.add_parser("compare", help="compare two directories of run --json files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")

    for internal in ("_setup", "_work"):
        child = sub.add_parser(internal)
        child.add_argument("workload", choices=list(WORKLOADS))
        child.add_argument("--seed", type=int, required=True)
        child.add_argument("--seconds", type=float, default=0.0)
        child.add_argument("--trace", type=int, default=0)
        child.add_argument("--smoke", action="store_true")
        child.add_argument("--spans", default=None)
    serve = sub.add_parser("_serve")
    serve.add_argument("--seed", type=int, required=True)
    serve.add_argument("--trace", type=int, default=0)
    serve.add_argument("--smoke", action="store_true")
    serve.add_argument("--spans", default=None)
    return parser


def _single_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser


def main(argv: list) -> int:
    try:
        if argv and argv[0].startswith("--"):
            args = _single_run_parser().parse_args(argv)
            trace = bool(args.trace)
            result = run_workload(args.workload, args.seed, args.seconds, trace, smoke=False)
            print(json.dumps(result_object(result, trace)))
            return 0
        args = _parser().parse_args(argv)
        if args.command == "_setup":
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed, args.smoke)}))
        elif args.command == "_work":
            print(json.dumps(work(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke, args.spans)))
        elif args.command == "_serve":
            serve_host(args.seed, args.smoke, bool(args.trace), args.spans)
        elif args.command == "compare":
            return compare(args.a, args.b)
        else:
            return _run(args)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Every requested workload; exits 1 if any operation failed."""
    seconds = SMOKE_SECONDS if args.smoke else load_benchmark()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, args.smoke)
        print_result(result, args.trace)
        sys.stdout.flush()
        results[name] = result
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                       "workloads": results}, handle, indent=1, sort_keys=True)
    failed = [name for name, result in results.items() if result["failed"]]
    if failed:
        print(f"error: failed operations in {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
