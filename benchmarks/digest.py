"""Same answers as one command: a digest per surface of the program.

Run from the repository root::

    python -m benchmarks.digest [--src DIR] > digests.txt
    python -m benchmarks.digest compare BASE.txt HEAD.txt --moved FILE

The first form prints one ``surface digest`` line per surface: a seeded
search, a CLI command's output and exit code, a library call.  A digest is
the first 16 hex digits of the SHA-256 of the surface's answer, written
with every float as ``float.hex``, so a last-bit change shows and gets
named.  Wall-clock times are left out.  A surface that raises is digested
as its exception's type and message (and named on stderr), so a surface
that one checkout cannot answer shows as moved.  ``--src`` picks the
``repro`` package to digest (default: this checkout's ``src/``), so this
script can digest an older checkout that predates it.  The whole run is
in-process.

``compare`` prints the surfaces whose digests differ, or that only one
file has.  It exits 1 unless ``--moved`` lists each of them with a
reason, one ``surface reason...`` line per moved surface (blank lines and
``#`` comments are ignored), and also exits 1 on a listed surface that
did not move, so a listing lasts for one change only.  It exits 2 when a
digest file lists no surfaces.

Not covered here: the e2e benchmark's serve-mixed workload, whose server
process imports its own checkout's ``src/`` whatever ``--src`` says.  The
``cli.whatif`` and ``cli.sweep`` surfaces run the same session code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]

STRATEGIES = ("str", "dtr", "joint", "anneal")
TOPOLOGIES = ("isp", "random", "powerlaw")
MODES = ("load", "sla")
CLI_CONFIG = ["--topology", "isp", "--utilization", "0.5"]
CAMPAIGN = [
    "--topologies", "isp", "--modes", "load", "--utilizations", "0.5", "0.6",
    "--seeds", "1", "2", "--scale", "0.05", "--workers", "2", "--quiet",
]


# ----------------------------------------------------------------------
# Canonical text
# ----------------------------------------------------------------------
def canonical(value):
    """``value`` as JSON-ready data, every float as ``float.hex``."""
    import numpy as np

    if isinstance(value, (bool, type(None), str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), canonical(value.ravel().tolist())]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, {
            f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(value.items(), key=repr)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return repr(value)


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Surfaces
# ----------------------------------------------------------------------
def _cli(*argv: str) -> tuple:
    """Exit code, stdout and any JSON file ``--json`` wrote, of one CLI call."""
    from repro.cli import main

    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        json_out = os.path.join(tmp, "out.json")
        argv = [json_out if arg == "JSON" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        payload = None
        if os.path.exists(json_out):
            with open(json_out) as handle:
                payload = json.load(handle)
    if isinstance(payload, dict):
        payload.pop("wall_time_s", None)
    text = out.getvalue().replace(json_out, "JSON")
    return code, [line for line in text.splitlines() if "wall_time=" not in line], payload


def _search_params():
    from repro.core.search_params import SearchParams

    return SearchParams(
        iterations_high=12, iterations_low=12, iterations_refine=12,
        diversification_interval=6, progress_interval=1000,
    )


def _search(strategy: str, topology: str, mode: str):
    """Two seeded runs, the second from the first's weights, each with the
    evaluator's cache counters."""
    from repro.api import Session, optimize
    from repro.core.annealing import AnnealingParams
    from repro.eval.experiment import ExperimentConfig

    session = Session.from_config(ExperimentConfig(topology=topology, mode=mode, seed=3))
    options = {}
    if strategy == "str":
        options["relaxation_epsilons"] = (0.05, 0.2)
    if strategy == "anneal":
        options["annealing_params"] = AnnealingParams(iterations=60)
    runs = []
    for start in (None, "previous"):
        if start is not None:
            result = runs[-1][0]
            if strategy == "dtr":
                options.update(initial_high=result.high_weights, initial_low=result.low_weights)
            else:
                options["initial_weights"] = result.high_weights
        result = optimize(session, strategy, _search_params(), rng=random.Random(17), **options)
        runs.append((result, session.evaluator.cache_stats()))
    return [
        [
            result.high_weights, result.low_weights, result.objective.values,
            result.evaluation, result.evaluations, result.cost_trace, result.metadata,
            result.relaxed, stats,
        ]
        for result, stats in runs
    ]


def _session(topology: str, mode: str, seed: int = 3):
    from repro.api import Session
    from repro.eval.experiment import ExperimentConfig
    from repro.routing.weights import random_weights

    session = Session.from_config(ExperimentConfig(topology=topology, mode=mode, seed=seed))
    rng = random.Random(seed)
    n = session.network.num_links
    session.set_weights(random_weights(n, rng), random_weights(n, rng))
    return session


def _traffic_scaling(topology: str):
    """Scaled traffic of three seeded configs, then a second rescale of each."""
    from repro.api import Session
    from repro.eval.experiment import ExperimentConfig
    from repro.traffic.scaling import scale_to_utilization

    out = []
    for seed in (1, 2, 3):
        session = Session.from_config(ExperimentConfig(topology=topology, seed=seed))
        high, low = session.high_traffic, session.low_traffic
        rescaled = scale_to_utilization(session.network, high, low, 0.35)
        out.append([high.demands, low.demands, [tm.demands for tm in rescaled]])
    return out


def _session_answers(topology: str, mode: str):
    """What-ifs, scaled traffic and a mixed sweep, with their stats."""
    from repro.scenarios.spec import enumerate_scenarios, parse_scenario

    session = _session(topology, mode)
    net = session.network
    scenarios = [s for kind in ("link", "node", "surge") for s in enumerate_scenarios(net, kind)]
    scenarios.append(parse_scenario("link:0-4+surge:3x2.0") if topology == "isp"
                     else parse_scenario("scale:1.25"))
    sweep = session.sweep(scenarios)
    return [
        session.evaluate(),
        session.what_if((3, 17)),
        session.under_scenario("node:2"),
        session.scaled_traffic(1.3), session.evaluator.cache_stats(),
        sweep.baseline, sweep.outcomes, sweep.stats,
    ]


def _space_sweep(topology: str):
    session = _session(topology, "load")
    return [session.sweep_space(spec) for spec in ("space:all-link-2", "space:all-node")]


def _costs(topology: str, which: str):
    from repro.costs.load_cost import evaluate_load_cost
    from repro.costs.sla import evaluate_sla_cost
    from repro.queueing.network_delay import network_delay_report
    from repro.routing.state import Routing

    session = _session(topology, "sla")
    net = session.network
    high, low = Routing(net, session.high_weights), Routing(net, session.low_weights)
    args = (net, high, low, session.high_traffic, session.low_traffic)
    if which == "load":
        return evaluate_load_cost(*args)
    if which == "sla":
        return evaluate_sla_cost(*args, session.sla_params)
    return network_delay_report(*args)


def _sliced(topology: str):
    from repro.core.slicing import optimize_sliced_low

    session = _session(topology, "load")
    result = optimize_sliced_low(
        session.evaluator, session.high_weights, 3, _search_params(), rng=random.Random(5)
    )
    return [result, session.evaluator.cache_stats()]


def _routing(topology: str):
    """Forwarding tables, every pair's shortest paths and per-class loads."""
    from repro.routing.forwarding import build_forwarding_table
    from repro.routing.multi_topology import HIGH_CLASS, LOW_CLASS, MultiTopology

    session = _session(topology, "load")
    net = session.network
    mtr = MultiTopology(net, {HIGH_CLASS: session.high_weights, LOW_CLASS: session.low_weights})
    tables = [build_forwarding_table(mtr, label) for label in (HIGH_CLASS, LOW_CLASS)]
    high = mtr.routing(HIGH_CLASS)
    nodes = range(net.num_nodes)
    paths = [high.all_shortest_paths(s, t) for s in nodes for t in nodes]
    traffic = {HIGH_CLASS: session.high_traffic, LOW_CLASS: session.low_traffic}
    return [tables, paths, mtr.link_loads(LOW_CLASS, session.low_traffic), mtr.total_loads(traffic)]


def _campaign():
    """The CI campaign-smoke store, file by file, and its aggregate."""
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        # Exit codes and the aggregate JSON: both commands print the store path.
        code, _, _ = _cli("campaign", "run", "--out", store, *CAMPAIGN)
        aggregate_code, _, aggregate = _cli(
            "campaign", "aggregate", "--out", store, "--json", "JSON"
        )
        files = {}
        for path in sorted(Path(store).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(store))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return [code, aggregate_code, aggregate, files]


def _e2e(name: str):
    """An in-process e2e workload at smoke size: its ``digest`` row."""
    from benchmarks.e2e.workloads import WORKLOADS, sha256

    workload = WORKLOADS[name](1, True)
    return sha256(
        workload.operate(i, workload.prepare(i))["outcome"] for i in range(workload.instances)
    )


def surfaces() -> Iterator[tuple[str, Callable[[], object]]]:
    """Every surface, by name, with the call that answers it."""
    for strategy in STRATEGIES:
        for topology in TOPOLOGIES:
            for mode in MODES:
                if strategy == "joint" and mode == "sla":
                    continue
                yield f"search.{strategy}.{topology}.{mode}", (
                    lambda s=strategy, t=topology, m=mode: _search(s, t, m)
                )
    for strategy in STRATEGIES:
        yield f"cli.optimize.{strategy}", lambda s=strategy: _cli(
            "optimize", "--strategy", s, *CLI_CONFIG, "--scale", "0.05", "--seed", "1",
            "--json", "JSON",
        )
    for mode in MODES:
        yield f"cli.compare.{mode}", lambda m=mode: _cli(
            "compare", "--topology", "isp", "--mode", m, "--scale", "0.05", "--seed", "2"
        )
    whatifs = {
        "link": ["--link", "3", "--new-weight", "17"],
        "failure": ["--failure", "0", "4"],
        "failure-reversed": ["--failure", "4", "0"],
        "scale": ["--traffic-scale", "1.2"],
        "scenario": ["--scenario", "link:0-4+surge:3x2.0"],
        "sla-node": ["--mode", "sla", "--scenario", "node:3"],
        "bad-pair": ["--failure", "0", "15"],
        "bad-loop": ["--failure", "3", "3"],
        "bad-scale": ["--traffic-scale", "-1"],
        "bad-kind": ["--scenario", "bogus:1"],
    }
    for name, query in whatifs.items():
        yield f"cli.whatif.{name}", lambda q=query: _cli("whatif", *CLI_CONFIG, *q)
    sweeps = {
        "all-link-2": ["--space", "space:all-link-2"],
        "all-link-2-unpruned": ["--space", "space:all-link-2", "--no-prune"],
        "sla-all-node": ["--mode", "sla", "--space", "space:all-node"],
        "bad-space": ["--space", "space:bogus"],
    }
    for name, query in sweeps.items():
        yield f"cli.sweep.{name}", lambda q=query: _cli("sweep", *CLI_CONFIG, *q)
    yield "cli.figure.fig2a", lambda: _cli(
        "figure", "--id", "fig2a", "--scale", "0.02", "--json", "JSON"
    )
    yield "cli.campaign-smoke", _campaign
    for topology in TOPOLOGIES:
        yield f"traffic.scaling.{topology}", lambda t=topology: _traffic_scaling(t)
        for mode in MODES:
            yield f"session.{topology}.{mode}", lambda t=topology, m=mode: _session_answers(t, m)
        yield f"session.space-sweep.{topology}", lambda t=topology: _space_sweep(t)
        for which in ("load", "sla"):
            yield f"costs.evaluate_{which}_cost.{topology}", (
                lambda t=topology, w=which: _costs(t, w)
            )
        yield f"queueing.network_delay_report.{topology}", lambda t=topology: _costs(t, "delay")
        yield f"slicing.{topology}", lambda t=topology: _sliced(t)
        yield f"routing.forwarding-paths-loads.{topology}", lambda t=topology: _routing(t)
    for name in ("search-load", "search-sla", "space-sweep"):
        yield f"e2e.{name}", lambda n=name: _e2e(n)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def run(src: Path) -> int:
    sys.path.insert(0, str(src))
    for name, answer in surfaces():
        try:
            value = answer()
        except Exception as exc:
            message = str(exc).replace(str(src), "src")
            print(f"{name} raised {type(exc).__name__}: {message}", file=sys.stderr)
            value = ["error", type(exc).__name__, message]
        print(f"{name} {digest(value)}", flush=True)
    return 0


def _read_digests(path: str) -> dict[str, str]:
    with open(path) as handle:
        return dict(line.split() for line in handle if line.strip())


def compare(base: str, head: str, moved_path: str) -> int:
    before, after = _read_digests(base), _read_digests(head)
    if not before or not after:
        print("error: a digest file lists no surfaces", file=sys.stderr)
        return 2
    moved = {}
    with open(moved_path) as handle:
        for line in handle:
            name, _, reason = line.strip().partition(" ")
            if name and not name.startswith("#"):
                moved[name] = reason.strip()
    differ = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    unlisted = [n for n in differ if not moved.get(n)]
    stale = sorted(moved.keys() - set(differ))
    for name in differ:
        note = f"listed: {moved[name]}" if moved.get(name) else "NOT LISTED"
        print(f"moved {name} {before.get(name, '-')} -> {after.get(name, '-')} ({note})")
    for name in stale:
        print(f"stale {name}: listed in {moved_path} but did not move")
    print(
        f"{len(after)} surfaces, {len(differ)} moved, {len(unlisted)} not listed with a "
        f"reason, {len(stale)} listed but not moved"
    )
    return 1 if unlisted or stale else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.digest", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command")
    cmp_ = sub.add_parser("compare", help="list the surfaces two digest files disagree on")
    cmp_.add_argument("base")
    cmp_.add_argument("head")
    cmp_.add_argument("--moved", required=True, help="surfaces allowed to move, with reasons")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ to digest")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.base, args.head, args.moved)
    return run(args.src.resolve())


if __name__ == "__main__":
    sys.exit(main())
