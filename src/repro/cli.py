"""Command-line interface: ``repro-dtr``.

Subcommands::

    repro-dtr topology  --family isp --out isp.json
    repro-dtr figure    --id fig2a --scale 0.2 --seed 1 [--json out.json]
    repro-dtr compare   --topology random --mode load --utilization 0.6
    repro-dtr optimize  --strategy dtr --topology isp --scale 0.1 \
                        [--alpha 2.0] [--json out.json]
    repro-dtr whatif    --topology isp --link 3 --new-weight 17
    repro-dtr whatif    --topology isp --failure 0 4
    repro-dtr whatif    --topology isp --traffic-scale 1.2
    repro-dtr whatif    --topology isp --scenario node:3
    repro-dtr whatif    --topology isp --scenario link:0-4+surge:3x2.0
    repro-dtr sweep     --topology isp --space space:all-link-2 [--no-prune]
    repro-dtr campaign run       --out DIR [--spec spec.json] [--workers 4] ...
    repro-dtr campaign run       --out DIR --scenarios link node srlg ...
    repro-dtr campaign run       --out DIR --spaces space:all-link-2 ...
    repro-dtr campaign status    --out DIR
    repro-dtr campaign aggregate --out DIR [--json agg.json]
    repro-dtr serve     --port 8093 --topology isp --utilization 0.5 \
                        [--log serve.jsonl] [--pool-size 4] [--trace spans.jsonl]
    repro-dtr query     --url http://127.0.0.1:8093 --scenario node:3
    repro-dtr query     --url ... --sweep link node [--metrics]
    repro-dtr query     --url ... --space space:all-link-2
    repro-dtr obs snapshot      [--url http://127.0.0.1:8093] \
                        [--format json|prometheus]
    repro-dtr obs dump          --trace spans.jsonl [--limit 20]
    repro-dtr obs trace-summary --trace spans.jsonl
    repro-dtr lint      [PATH ...] [--strict] [--format json] \
                        [--baseline .repro-lint-baseline.json] \
                        [--update-baseline] [--select RL001,RL004] [--list-rules]
    repro-dtr bench compare         --current-dir bench-trends [--strict] \
                        [--baseline-dir benchmarks/baselines] [--json out.json]
    repro-dtr bench baseline-update --current-dir bench-trends \
                        [--baseline-dir benchmarks/baselines] [--no-new]
    repro-dtr bench trends          [--baseline-dir ...] [--current-dir ...]
    repro-dtr results render --out results/ [--campaign DIR] \
                        [--trends bench-trends] [--baselines DIR] \
                        [--figures fig2c fig9 ...] [--scale 0.05] [--seed 1]

``figure`` accepts: fig2a..fig2f, fig3a..fig3c, fig4, fig5a, fig5b, fig6,
fig7, fig8a, fig8b, fig9, table1.  ``compare`` runs the STR baseline and
the DTR search on one config and prints both objectives and the paper's
``R_H``/``R_L`` ratios.  ``optimize`` runs any strategy registered in the
``repro.api`` registry (``str``, ``dtr``, ``joint``, ``anneal`` built
in) on a session built from the experiment flags; an unknown strategy
name lists the registered alternatives.  ``whatif`` answers incremental
queries — a one-link weight move, an adjacency failure, a traffic
rescale, or any composable ``--scenario`` spec (link/node/SRLG failures,
traffic surges and shifts; see :mod:`repro.scenarios`) — against a
baseline weight setting (``--weights`` JSON, or hop-count weights by
default) without a full re-evaluation; an unknown scenario kind lists
the registered ones, exactly like an unknown strategy.
``sweep`` streams a whole combinatorial scenario space
(:mod:`repro.scenarios.spaces`) through the dominance-pruned lazy
sweeper and prints the streaming robustness aggregate — worst case,
mean, percentiles, CVaR — without ever materializing the space; an
unknown or malformed ``--space`` exits 2 listing the registered space
names, exactly like an unknown scenario kind.
``campaign`` expands a declarative sweep spec into experiment configs,
fans them out across a worker pool into a content-addressed result
store, and aggregates the stored records; re-running a partially
completed campaign executes only the missing configs.
``serve`` starts the online what-if service (:mod:`repro.serve`): a
stdlib threaded HTTP frontend over a warm-session pool, micro-batch
scheduler, and plan cache.  ``query`` is its client — it validates the
scenario spec locally (a malformed spec or unknown kind exits 2 with
the registry listing, before any network traffic) and prints the
server's answer.
``bench`` consumes the ``BENCH_*.json`` perf-trend artifacts
(:mod:`repro.eval.trends`): ``compare`` classifies every committed
baseline metric as improved/within-band/regressed under the tolerance
policy and exits 0 when clean, 2 on a schema or coverage mismatch (a
bench or metric present in the baselines but missing from the run —
gating cannot silently narrow), and 3 with ``--strict`` when any
metric regressed beyond its band; ``baseline-update`` refreshes the
committed baselines all-or-nothing, keeping a bounded per-metric
history; ``trends`` prints the per-metric sparklines.
``results render`` is the raw → table → figure pipeline
(:mod:`repro.eval.pipeline`): campaign store + bench trends in, CSV
tables, ASCII figures 2–9, and trend sparklines out.
``obs`` is the telemetry inspector (:mod:`repro.obs`): ``snapshot``
prints a metrics snapshot — from a running service's ``/metrics`` when
``--url`` is given, from this process's registry otherwise — as JSON or
Prometheus text; ``dump`` prints the tail of a span-trace JSONL file;
``trace-summary`` aggregates a trace by span name (count, total/mean/max
duration).  ``serve --trace PATH`` enables span tracing into ``PATH``.
``lint`` runs the AST invariant linter (:mod:`repro.analysis`) over the
given paths (default ``src/repro``) with the same CI-grade exit-code
contract as ``bench compare``: 0 clean, 1 unsuppressed findings, 2 on a
usage/config error (unknown rule id — listed alternatives verbatim —
bad path, malformed baseline).  ``--strict`` additionally fails on
stale baseline entries; ``--update-baseline`` grandfathers the current
findings atomically.

Every usage error — unknown strategy, unknown scenario kind, malformed
spec, bad campaign grid — exits 2 through one shared helper, with the
registry's "registered names: ..." listing verbatim where applicable;
argparse's own unknown-subcommand error exits 2 with the subcommand
listing the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.eval.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_campaign,
    run_campaign,
)
from repro.eval.experiment import ExperimentConfig, run_comparison, scaled_config
from repro.eval.report import RUNNERS
from repro.eval.results import save_result
from repro.ioutil import atomic_write_json
from repro.network.io import save_network
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology

DEFAULT_BASELINE_DIR = "benchmarks/baselines"


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dtr",
        description="Dual Topology Routing reproduction (Kwong et al., CoNEXT 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The experiment flags every session-building subcommand shares.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--topology", choices=["random", "powerlaw", "isp"], default="random")
    config.add_argument("--mode", choices=[LOAD_MODE, SLA_MODE], default=LOAD_MODE)
    config.add_argument("--utilization", type=float, default=0.6)
    config.add_argument("--fraction", type=float, default=0.30,
                        help="high-priority volume fraction f")
    config.add_argument("--density", type=float, default=0.10,
                        help="high-priority SD-pair density k")
    config.add_argument("--seed", type=int, default=1)
    baseline = argparse.ArgumentParser(add_help=False)
    baseline.add_argument(
        "--weights", default=None,
        help="baseline weights JSON: a list (both classes) or "
             '{"high": [...], "low": [...]}; hop-count weights if omitted',
    )

    topo = sub.add_parser("topology", help="generate a topology and save it as JSON")
    topo.add_argument("--family", choices=["random", "powerlaw", "isp"], default="isp")
    topo.add_argument("--seed", type=int, default=1)
    topo.add_argument("--out", required=True, help="output JSON path")

    fig = sub.add_parser("figure", help="reproduce a figure or table from the paper")
    fig.add_argument("--id", dest="figure_id", choices=sorted(RUNNERS), required=True)
    fig.add_argument("--scale", type=float, default=1.0, help="search budget scale")
    fig.add_argument("--seed", type=int, default=1)
    fig.add_argument("--json", dest="json_out", default=None, help="also save JSON here")

    cmp_ = sub.add_parser("compare", parents=[config], help="run one STR vs DTR comparison")
    cmp_.add_argument("--scale", type=float, default=1.0)

    opt = sub.add_parser(
        "optimize", parents=[config],
        help="run one registered strategy via the repro.api facade",
    )
    opt.add_argument(
        "--strategy",
        default="dtr",
        help="registered strategy name (str, dtr, joint, anneal, or a plugin)",
    )
    opt.add_argument("--scale", type=float, default=1.0, help="search budget scale")
    opt.add_argument("--alpha", type=float, default=None,
                     help="joint-cost trade-off (joint strategy only)")
    opt.add_argument("--json", dest="json_out", default=None, help="also save JSON here")

    wif = sub.add_parser(
        "whatif", parents=[config, baseline],
        help="incremental what-if query against a baseline weight setting",
    )
    query = wif.add_mutually_exclusive_group(required=True)
    query.add_argument("--link", type=int, default=None, help="link index of a weight move")
    query.add_argument("--failure", type=int, nargs=2, metavar=("U", "V"),
                       help="fail the duplex adjacency between nodes U and V")
    query.add_argument("--traffic-scale", type=float, default=None,
                       help="rescale both traffic classes by this factor")
    query.add_argument("--scenario", default=None, metavar="SPEC",
                       help="evaluate a scenario spec, e.g. node:3, srlg:0-4,2-5, "
                            "surge:3x2.0, or link:0-4+surge:3x2.0 (composition); "
                            "an unknown kind lists the registered ones")
    wif.add_argument("--new-weight", type=int, default=None,
                     help="new weight of --link")
    wif.add_argument("--apply-to", choices=["high", "low", "both"], default=None,
                     help="which class's weight vector the move applies to "
                          "(default: both)")

    swp = sub.add_parser(
        "sweep", parents=[config, baseline],
        help="stream a combinatorial scenario space and print its "
             "robustness aggregate",
    )
    swp.add_argument(
        "--space", required=True, metavar="SPEC",
        help="scenario-space spec, e.g. space:all-link-2, space:all-node, "
             "space:srlg-closure, space:surge-sample:n=64:seed=7; an "
             "unknown name exits 2 listing the registered spaces",
    )
    swp.add_argument(
        "--no-prune", dest="prune", action="store_false", default=True,
        help="disable dominance pruning (evaluate every scenario)",
    )

    camp = sub.add_parser(
        "campaign", help="run, inspect, or aggregate an experiment campaign"
    )
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)

    run_p = camp_sub.add_parser("run", help="execute (or resume) a sweep into a store")
    run_p.add_argument("--out", required=True, help="campaign directory")
    run_p.add_argument("--spec", default=None, help="JSON CampaignSpec file (overrides grid flags)")
    run_p.add_argument("--workers", type=int, default=1, help="worker processes")
    run_p.add_argument("--topologies", nargs="+", default=["random"],
                       choices=["random", "powerlaw", "isp"])
    run_p.add_argument("--modes", nargs="+", default=[LOAD_MODE],
                       choices=[LOAD_MODE, SLA_MODE])
    run_p.add_argument("--fractions", nargs="+", type=float, default=[0.30],
                       help="high-priority volume fractions f")
    run_p.add_argument("--densities", nargs="+", type=float, default=[0.10],
                       help="high-priority SD-pair densities k")
    run_p.add_argument("--utilizations", nargs="+", type=float, default=[0.6],
                       help="target utilization grid")
    run_p.add_argument("--seeds", nargs="+", type=int, default=[1])
    run_p.add_argument("--scale", type=float, default=1.0, help="search budget scale")
    run_p.add_argument("--failures", action="store_true",
                       help="also sweep single-adjacency failures per record")
    run_p.add_argument("--scenarios", nargs="+", default=[], metavar="KIND",
                       help="scenario kinds to sweep per record (link, node, "
                            "srlg, surge, scale); an unknown kind lists the "
                            "registered ones")
    run_p.add_argument("--spaces", nargs="+", default=[], metavar="SPEC",
                       help="scenario spaces to stream per record (e.g. "
                            "space:all-link-2); only the streaming aggregate "
                            "is stored")
    run_p.add_argument("--quiet", action="store_true", help="suppress per-config lines")

    status_p = camp_sub.add_parser("status", help="completion state of a store")
    status_p.add_argument("--out", required=True, help="campaign directory")

    agg_p = camp_sub.add_parser("aggregate", help="seed-averaged metrics of a store")
    agg_p.add_argument("--out", required=True, help="campaign directory")
    agg_p.add_argument("--json", dest="json_out", default=None, help="also save JSON here")

    srv = sub.add_parser(
        "serve", parents=[config, baseline],
        help="run the online what-if query service (HTTP, stdlib only)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8093)
    srv.add_argument("--pool-size", type=int, default=4,
                     help="warm sessions kept (LRU)")
    srv.add_argument("--log", dest="log_path", default=None,
                     help="JSONL request log path")
    srv.add_argument("--trace", dest="trace_path", default=None,
                     help="span-trace JSONL path (enables tracing)")

    bench = sub.add_parser(
        "bench", help="compare, refresh, or plot the perf-trend baselines"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bcmp = bench_sub.add_parser(
        "compare",
        help="gate a bench-trends directory against the committed baselines",
    )
    bcmp.add_argument("--current-dir", required=True,
                      help="directory of BENCH_*.json artifacts from this run")
    bcmp.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                      help="committed baseline store (with policy.json)")
    bcmp.add_argument("--strict", action="store_true",
                      help="exit 3 when any metric regressed beyond its band")
    bcmp.add_argument("--json", dest="json_out", default=None,
                      help="also save the machine-readable verdict here")

    bupd = bench_sub.add_parser(
        "baseline-update",
        help="refresh the committed baselines from a bench-trends directory",
    )
    bupd.add_argument("--current-dir", required=True,
                      help="directory of BENCH_*.json artifacts to commit")
    bupd.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                      help="committed baseline store to refresh")
    bupd.add_argument("--no-new", dest="allow_new", action="store_false",
                      default=True,
                      help="refuse benches that have no baseline yet")

    btr = bench_sub.add_parser(
        "trends", help="print per-metric sparklines over the baseline history"
    )
    btr.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                     help="committed baseline store")
    btr.add_argument("--current-dir", default=None,
                     help="optionally append this run's artifacts as the last point")

    res = sub.add_parser(
        "results", help="the raw -> table -> figure results pipeline"
    )
    res_sub = res.add_subparsers(dest="results_command", required=True)
    render = res_sub.add_parser(
        "render", help="render CSV tables, ASCII figures, and trend sparklines"
    )
    render.add_argument("--out", required=True, help="output directory")
    render.add_argument("--campaign", default=None,
                        help="campaign store backing figures 2/4/5")
    render.add_argument("--trends", dest="trends_dir", default=None,
                        help="BENCH_*.json directory (current perf point)")
    render.add_argument("--baselines", dest="baselines_dir", default=None,
                        help="baseline store providing the trend history")
    render.add_argument("--figures", nargs="+", default=None, metavar="ID",
                        help="subset of figure ids (default: all)")
    render.add_argument("--scale", type=float, default=0.05,
                        help="search-budget scale for recomputed figures")
    render.add_argument("--seed", type=int, default=1)
    render.add_argument("--echo", action="store_true",
                        help="print each figure's text as it completes")

    lint = sub.add_parser(
        "lint", help="run the AST invariant linter (repro.analysis)"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="output format")
    lint.add_argument("--baseline", default=None,
                      help="grandfather baseline file (default: "
                           ".repro-lint-baseline.json when present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings "
                           "(atomic) and exit 0")
    lint.add_argument("--strict", action="store_true",
                      help="also fail (exit 1) on stale baseline entries")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids (default: all); an "
                           "unknown id exits 2 listing the registered rules")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    obs_p = sub.add_parser(
        "obs", help="inspect telemetry: metrics snapshots and span traces"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    snap_p = obs_sub.add_parser(
        "snapshot", help="print a metrics snapshot (local or from a server)"
    )
    snap_p.add_argument("--url", default=None,
                        help="base URL of a running `repro-dtr serve`; "
                             "omitted: this process's own registry")
    snap_p.add_argument("--format", dest="obs_format",
                        choices=["json", "prometheus"], default="json",
                        help="output format")

    dump_p = obs_sub.add_parser(
        "dump", help="print the tail of a span-trace JSONL file"
    )
    dump_p.add_argument("--trace", required=True, help="span-trace JSONL file")
    dump_p.add_argument("--limit", type=int, default=20,
                        help="records from the end (0: all)")

    tsum_p = obs_sub.add_parser(
        "trace-summary", help="aggregate a span trace by span name"
    )
    tsum_p.add_argument("--trace", required=True, help="span-trace JSONL file")

    qry = sub.add_parser(
        "query", help="query a running what-if service (validates specs locally)"
    )
    qry.add_argument("--url", default="http://127.0.0.1:8093",
                     help="base URL of a running `repro-dtr serve`")
    what = qry.add_mutually_exclusive_group(required=True)
    what.add_argument("--scenario", default=None, metavar="SPEC",
                      help="what-if scenario spec, e.g. node:3 or "
                           "link:0-4+surge:3x2.0; an unknown kind exits 2 "
                           "listing the registered ones")
    what.add_argument("--sweep", nargs="+", default=None, metavar="KIND",
                      help="sweep whole scenario kinds (link, node, srlg, ...)")
    what.add_argument("--space", default=None, metavar="SPEC",
                      help="stream a scenario space server-side (e.g. "
                           "space:all-link-2); the answer is its streaming "
                           "robustness aggregate")
    what.add_argument("--metrics", action="store_true",
                      help="print the server's /metrics counters")
    return parser


def _usage_error(exc: object) -> int:
    """Report a usage error and return the conventional exit status 2.

    One path for every bad-input failure — unknown strategy, unknown or
    malformed scenario spec, bad campaign grid, bad query flags — so all
    subcommands fail the same way: ``error: <message>`` on stderr (with
    the registry's "registered names: ..." listing verbatim where the
    message carries one) and exit code 2, matching argparse's own
    unknown-subcommand behavior.
    """
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _run_topology(args: argparse.Namespace) -> int:
    from repro.determinism import derive_rng

    rng = derive_rng(args.seed, "cli/topology")
    if args.family == "random":
        net = random_topology(rng=rng)
    elif args.family == "powerlaw":
        net = powerlaw_topology(rng=rng)
    else:
        net = isp_topology()
    save_network(net, args.out)
    print(f"wrote {net!r} to {args.out}")
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    result = RUNNERS[args.figure_id](args.scale, args.seed)
    print(result.format())
    if args.json_out:
        save_result(result, args.json_out)
        print(f"saved JSON to {args.json_out}")
    return 0


def _config_from_args(args: argparse.Namespace, scale: float = 1.0) -> ExperimentConfig:
    """The experiment config of the shared config flags, budgets scaled by ``scale``."""
    return scaled_config(
        ExperimentConfig(
            topology=args.topology,
            mode=args.mode,
            target_utilization=args.utilization,
            high_fraction=args.fraction,
            high_density=args.density,
            seed=args.seed,
        ),
        scale,
    )


def _run_compare(args: argparse.Namespace) -> int:
    result = run_comparison(_config_from_args(args, args.scale))
    print(f"topology={args.topology} mode={args.mode} AD={result.average_utilization:.3f}")
    print(f"STR objective: {result.str_result.evaluation.objective}")
    print(f"DTR objective: {result.dtr_result.evaluation.objective}")
    print(f"R_H={result.ratio_high:.3f}  R_L={result.ratio_low:.3f}")
    return 0


def _session_from_args(args: argparse.Namespace, scale: float = 1.0):
    """Build a ``repro.api`` session from the shared experiment flags."""
    from repro.api import Session

    config = _config_from_args(args, scale)
    return Session.from_config(config), config


def _run_optimize(args: argparse.Namespace) -> int:
    from repro.api import UnknownNameError, get_strategy, optimize
    from repro.core.annealing import AnnealingParams

    try:
        get_strategy(args.strategy)  # fail fast, before building the session
    except UnknownNameError as exc:
        return _usage_error(exc)
    session, config = _session_from_args(args, args.scale)
    options = {}
    if args.alpha is not None:
        options["alpha"] = args.alpha
    if args.strategy == "anneal":
        # Scale the annealing budget like the local searches' budgets.
        options["annealing_params"] = AnnealingParams(
            iterations=max(1, round(AnnealingParams().iterations * args.scale))
        )
    try:
        result = optimize(
            session, strategy=args.strategy, params=config.search_params, **options
        )
    except (UnknownNameError, ValueError) as exc:
        return _usage_error(exc)
    print(
        f"strategy={result.strategy} topology={args.topology} mode={args.mode} "
        f"seed={args.seed}"
    )
    print(f"objective: {result.objective}")
    print(
        f"evaluations={result.evaluations} wall_time={result.wall_time_s:.2f}s "
        f"dual={result.dual}"
    )
    if args.json_out:
        payload = {
            "strategy": result.strategy,
            "objective": list(result.objective.values),
            "high_weights": result.high_weights.tolist(),
            "low_weights": result.low_weights.tolist(),
            "evaluations": result.evaluations,
            "wall_time_s": result.wall_time_s,
            "metadata": result.metadata,
        }
        atomic_write_json(args.json_out, payload, indent=2, sort_keys=True)
        print(f"saved JSON to {args.json_out}")
    return 0


def _set_baseline(session, path: Optional[str]) -> None:
    """Pin ``--weights`` (a JSON list, or ``{"high": ..., "low": ...}``),
    or hop-count weights without it.

    Raises:
        OSError, ValueError, KeyError: an unreadable file, bad JSON or
            weights, or a mapping without ``"high"``.
    """
    from repro.routing.weights import unit_weights

    if not path:
        session.set_weights(unit_weights(session.network.num_links))
        return
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        session.set_weights(data["high"], data.get("low"))
    else:
        session.set_weights(data)


def _run_whatif(args: argparse.Namespace) -> int:
    from repro.api.queries import KIND_FAILURE
    from repro.scenarios.algebra import LinkFailure

    if args.link is None and (args.new_weight is not None or args.apply_to is not None):
        return _usage_error("--new-weight/--apply-to only apply to --link queries")
    if args.link is not None and args.new_weight is None:
        return _usage_error("--link requires --new-weight")

    try:
        session, _config = _session_from_args(args)
        _set_baseline(session, args.weights)

        if args.link is not None:
            result = session.what_if(
                (args.link, args.new_weight), topology=args.apply_to or "both"
            )
        elif args.failure is not None:
            u, v = sorted(args.failure)
            result = session.under_scenario(
                LinkFailure.single(u, v),
                kind=KIND_FAILURE,
                description=f"failure of adjacency {(u, v)}",
            )
        elif args.scenario is not None:
            result = session.under_scenario(args.scenario)
        else:
            result = session.scaled_traffic(args.traffic_scale)
    except (KeyError, OSError, ValueError) as exc:
        return _usage_error(exc)
    print(result.format())
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.eval.robustness import space_sweep_session
    from repro.scenarios.spec import parse_space

    try:
        # Validate the space spec before paying for a session build.
        space = parse_space(args.space)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        session, _config = _session_from_args(args)
        _set_baseline(session, args.weights)
        report = space_sweep_session(session, space, prune=args.prune)
    except (KeyError, OSError, ValueError) as exc:
        return _usage_error(exc)
    print(report.format())
    return 0


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        with open(args.spec) as handle:
            return CampaignSpec.from_jsonable(json.load(handle))
    return CampaignSpec(
        topologies=tuple(args.topologies),
        modes=tuple(args.modes),
        high_fractions=tuple(args.fractions),
        high_densities=tuple(args.densities),
        target_utilizations=tuple(args.utilizations),
        seeds=tuple(args.seeds),
        scale=args.scale,
        failure_scenarios=args.failures,
        scenario_kinds=tuple(args.scenarios),
        scenario_spaces=tuple(args.spaces),
    )


def _run_campaign_run(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError) as exc:
        # Covers unknown/non-enumerable scenario kinds (the registry error
        # lists the registered alternatives) and malformed spec files.
        return _usage_error(exc)
    progress = None
    if not args.quiet:

        def progress(event: str, key: str) -> None:
            print(f"[{event:>4}] {key}", flush=True)

    summary = run_campaign(spec, args.out, workers=args.workers, progress=progress)
    print(
        f"campaign {summary.root}: {summary.total} configs, "
        f"{summary.skipped} already stored, {summary.executed} executed "
        f"(workers={summary.workers})"
    )
    return 0


def _run_campaign_status(args: argparse.Namespace) -> int:
    try:
        status = CampaignStore(args.out).status()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(status.format())
    return 0


def _run_campaign_aggregate(args: argparse.Namespace) -> int:
    try:
        aggregate = aggregate_campaign(args.out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(aggregate.format())
    if args.json_out:
        save_result(aggregate, args.json_out)
        print(f"saved JSON to {args.json_out}")
    return 0


def _run_bench_compare(args: argparse.Namespace) -> int:
    from repro.eval.results import to_jsonable
    from repro.eval.trends import BenchFormatError, compare_dirs

    try:
        report = compare_dirs(args.current_dir, args.baseline_dir)
    except (FileNotFoundError, BenchFormatError) as exc:
        return _usage_error(exc)
    print(report.format())
    if args.json_out:
        payload = {
            "metrics": to_jsonable(report.metrics),
            "problems": list(report.problems),
            "new_benches": list(report.new_benches),
            "regressions": [m.path for m in report.regressions],
            "exit_code": report.exit_code(strict=args.strict),
            "strict": args.strict,
        }
        atomic_write_json(args.json_out, payload, indent=2, sort_keys=True)
        print(f"saved JSON to {args.json_out}")
    code = report.exit_code(strict=args.strict)
    if code == 2:
        print("error: schema/coverage mismatch between run and baselines",
              file=sys.stderr)
    elif code == 3:
        names = ", ".join(m.path for m in report.regressions)
        print(f"error: perf regression beyond tolerance band: {names}",
              file=sys.stderr)
    return code


def _run_bench_baseline_update(args: argparse.Namespace) -> int:
    from repro.eval.trends import BenchFormatError, load_policy, update_baselines

    try:
        # Surface a malformed policy now: a baseline refresh that the
        # comparator cannot consume afterwards is a partial update too.
        load_policy(args.baseline_dir)
        update = update_baselines(
            args.current_dir, args.baseline_dir, allow_new=args.allow_new
        )
    except (FileNotFoundError, BenchFormatError) as exc:
        return _usage_error(exc)
    print(update.format())
    return 0


def _run_bench_trends(args: argparse.Namespace) -> int:
    from repro.eval.trends import BenchFormatError, trend_lines

    try:
        blocks = trend_lines(args.baseline_dir, args.current_dir)
    except (FileNotFoundError, BenchFormatError) as exc:
        return _usage_error(exc)
    for name, block in blocks.items():
        print(f"== {name}")
        print(block)
        print()
    return 0


def _run_results_render(args: argparse.Namespace) -> int:
    from repro.eval.pipeline import render_results
    from repro.eval.trends import BenchFormatError

    try:
        summary = render_results(
            args.out,
            campaign_dir=args.campaign,
            trends_dir=args.trends_dir,
            baseline_dir=args.baselines_dir,
            figure_ids=args.figures,
            scale=args.scale,
            seed=args.seed,
            echo=args.echo,
        )
    except (KeyError, FileNotFoundError, BenchFormatError, ValueError) as exc:
        return _usage_error(exc)
    print(summary.format())
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE,
        Baseline,
        BaselineError,
        LintConfigError,
        UnknownRuleError,
        lint_paths,
        render_rule_catalog,
    )

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    rules = None
    if args.select is not None:
        rules = [part.strip() for part in args.select.split(",") if part.strip()]
        if not rules:
            return _usage_error("--select needs at least one rule id")

    baseline_path = args.baseline if args.baseline is not None else DEFAULT_BASELINE
    baseline = None
    try:
        if args.no_baseline:
            if args.baseline is not None:
                return _usage_error("--baseline and --no-baseline are exclusive")
        elif args.update_baseline:
            pass  # rewriting from scratch: the old content is irrelevant
        elif args.baseline is not None or os.path.exists(baseline_path):
            baseline = Baseline.load(baseline_path)
        report = lint_paths(args.paths, rules=rules, baseline=baseline)
    except (UnknownRuleError, BaselineError, LintConfigError) as exc:
        return _usage_error(exc)

    if args.update_baseline:
        updated = Baseline.from_findings(report.findings + report.grandfathered)
        updated.save(baseline_path)
        print(
            f"baseline {baseline_path}: grandfathered "
            f"{len(updated.entries)} entr(y/ies) covering "
            f"{len(report.findings) + len(report.grandfathered)} finding(s)"
        )
        return 0
    if args.format == "json":
        payload = report.to_jsonable()
        payload["exit_code"] = report.exit_code(strict=args.strict)
        payload["strict"] = args.strict
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format(strict=args.strict))
    code = report.exit_code(strict=args.strict)
    if code == 1 and report.findings:
        print(
            f"error: {len(report.findings)} unsuppressed lint finding(s)",
            file=sys.stderr,
        )
    elif code == 1:
        print(
            "error: stale baseline entries under --strict: prune them with "
            "--update-baseline",
            file=sys.stderr,
        )
    return code


def _run_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.serve import ServeService, SessionPool, SessionSpec, serve_forever

    if args.trace_path:
        obs.enable_tracing(args.trace_path)
    weights = "unit"
    try:
        if args.weights:
            with open(args.weights) as handle:
                weights = json.load(handle)
        spec = SessionSpec(
            topology=args.topology,
            mode=args.mode,
            utilization=args.utilization,
            fraction=args.fraction,
            density=args.density,
            seed=args.seed,
            weights=weights,
        )
        service = ServeService(spec, pool=SessionPool(capacity=args.pool_size))
        service.pool.get(spec)  # warm the default baseline before binding
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    try:
        serve_forever(service, host=args.host, port=args.port, log_path=args.log_path)
    except OSError as exc:
        # Bind failures (port in use, privileged port) are environment
        # errors, not usage errors: clean message, exit 1.
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    return 0


def _read_trace(path: str) -> list[dict]:
    """Parse a span-trace JSONL file (one record per line)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _run_obs(args: argparse.Namespace) -> int:
    from urllib.error import URLError

    from repro import obs

    if args.obs_command == "snapshot":
        prometheus = args.obs_format == "prometheus"
        if args.url:
            import urllib.request

            url = args.url.rstrip("/") + "/metrics"
            if prometheus:
                url += "?format=prometheus"
            try:
                with urllib.request.urlopen(url) as response:
                    body = response.read().decode("utf-8")
            except (URLError, OSError) as exc:
                print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
                return 1
            if prometheus:
                print(body, end="" if body.endswith("\n") else "\n")
            else:
                print(json.dumps(json.loads(body), indent=2, sort_keys=True))
        else:
            samples = obs.snapshot()
            if prometheus:
                print(obs.render_prometheus(samples), end="")
            else:
                print(json.dumps(samples, indent=2, sort_keys=True))
        return 0

    try:
        records = _read_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    if args.obs_command == "dump":
        tail = records[-args.limit:] if args.limit > 0 else records
        for record in tail:
            print(json.dumps(record, sort_keys=True))
        return 0
    # trace-summary: aggregate by span name, heaviest first.
    totals: dict = {}
    for record in records:
        entry = totals.setdefault(
            record["name"], {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += record["dur_ms"]
        entry["max_ms"] = max(entry["max_ms"], record["dur_ms"])
    print(f"{len(records)} span(s), {len(totals)} name(s)")
    for name, entry in sorted(
        totals.items(), key=lambda item: -item[1]["total_ms"]
    ):
        mean = entry["total_ms"] / entry["count"]
        print(
            f"  {name:>24}: n={entry['count']} total={entry['total_ms']:.2f}ms "
            f"mean={mean:.3f}ms max={entry['max_ms']:.3f}ms"
        )
    return 0


def _http_json(url: str, payload: Optional[dict] = None) -> dict:
    """One JSON round trip to the service (POST when a payload is given)."""
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _run_query(args: argparse.Namespace) -> int:
    from urllib.error import HTTPError, URLError

    from repro.scenarios.spec import (
        canonical_space_spec,
        canonical_spec,
        require_enumerable,
    )

    base = args.url.rstrip("/")
    try:
        # Validate locally first: malformed specs, unknown kinds or
        # spaces, and kinds without a sweep grid (e.g. shift) exit 2
        # with the registry listing without any network traffic.
        if args.scenario is not None:
            request = ("/whatif", {"scenario": canonical_spec(args.scenario)})
        elif args.sweep is not None:
            for kind in args.sweep:
                require_enumerable(kind)
            request = ("/sweep", {"kinds": list(args.sweep)})
        elif args.space is not None:
            request = ("/sweep", {"space": canonical_space_spec(args.space)})
        else:
            request = ("/metrics", None)
    except ValueError as exc:
        return _usage_error(exc)

    try:
        answer = _http_json(base + request[0], request[1])
    except HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        try:
            message = json.loads(body).get("error", body)
        except json.JSONDecodeError:
            message = body
        print(f"error: server answered {exc.code}: {message}", file=sys.stderr)
        return 1
    except (URLError, OSError) as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 1

    if args.metrics:
        print(json.dumps(answer, indent=2, sort_keys=True))
    elif args.scenario is not None:
        print(f"what-if [{answer['kind']}] {answer['description']}")
        if answer["disconnected"]:
            print(
                f"  disconnected: {answer['lost_demand']:.2f} Mb/s of demand "
                "is unroutable and was excluded"
            )
        print(
            f"  objective: {answer['baseline_objective']} -> "
            f"{answer['variant_objective']}  "
            f"(primary {answer['primary_delta']:+.4f}, "
            f"secondary {answer['secondary_delta']:+.4f})"
        )
        print(
            f"  max utilization: {answer['baseline_max_utilization']:.4f} -> "
            f"{answer['variant_max_utilization']:.4f} "
            f"({answer['max_utilization_delta']:+.4f})"
        )
        print(f"  served: cache_hit={answer['served']['cache_hit']}")
    elif args.space is not None:
        print(
            f"space {answer['space']}: {answer['scenarios']} scenarios, "
            f"{answer['evaluated']} evaluated, {answer['pruned']} pruned, "
            f"{answer['disconnected']} disconnected"
        )
        for metric in ("primary", "secondary", "max_utilization"):
            summary = answer[metric]
            levels = " ".join(
                f"p{level:g}={value:.4f}" for level, value in summary["percentiles"]
            )
            print(
                f"  {metric:>15}: worst={summary['worst']:.4f} "
                f"mean={summary['mean']:.4f} {levels} cvar={summary['cvar']:.4f}"
            )
    else:
        print(
            f"sweep: {answer['scenarios']} scenarios, "
            f"{answer['disconnected_count']} disconnected, "
            f"baseline objective {answer['baseline_objective']}"
        )
        for kind, summary in sorted(answer["by_class"].items()):
            print(
                f"  {kind:>6}: {summary['scenarios']} scenarios, "
                f"worst primary {summary['worst_primary']:.4f}, "
                f"worst max utilization {summary['worst_max_utilization']:.4f}"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "topology":
        return _run_topology(args)
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "optimize":
        return _run_optimize(args)
    if args.command == "whatif":
        return _run_whatif(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "campaign":
        if args.campaign_command == "run":
            return _run_campaign_run(args)
        if args.campaign_command == "status":
            return _run_campaign_status(args)
        if args.campaign_command == "aggregate":
            return _run_campaign_aggregate(args)
    if args.command == "bench":
        if args.bench_command == "compare":
            return _run_bench_compare(args)
        if args.bench_command == "baseline-update":
            return _run_bench_baseline_update(args)
        if args.bench_command == "trends":
            return _run_bench_trends(args)
    if args.command == "results":
        if args.results_command == "render":
            return _run_results_render(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
