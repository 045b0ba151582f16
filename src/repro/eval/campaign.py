"""Parallel experiment campaigns with a persistent, resumable result store.

The paper's evaluation (Section 5) is a sweep: STR vs DTR across
topology families, cost modes, and grids of the high-priority fraction
``f`` and density ``k``, averaged over seeds.  This module runs such
sweeps as *campaigns*:

* a declarative :class:`CampaignSpec` expands to a deterministic list of
  :class:`~repro.eval.experiment.ExperimentConfig`,
* :func:`run_campaign` executes the configs serially or across a
  ``multiprocessing`` pool, writing each outcome as one JSON record into
  a content-addressed directory (``records/<config-hash>.json``),
* interrupted campaigns resume by skipping configs whose record already
  exists,
* :func:`aggregate_campaign` folds stored records into per-grid-point
  means that the figure runners consume without recomputing anything.

Determinism contract: a record is a pure function of its config (see
:func:`~repro.eval.experiment.run_comparison`), and records are
serialized canonically, so a ``workers=N`` campaign produces
byte-identical record files to the same campaign run serially — only the
completion *order* differs.  Workers report liveness by writing
heartbeat files (``heartbeats/<config-hash>.json``) through the search
progress hooks; heartbeats are transient and removed when a record
lands.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro import obs
from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.core.search_params import SearchParams
from repro.costs.sla import SlaParams
from repro.eval.ascii_plot import format_table
from repro.eval.experiment import (
    ComparisonResult,
    ExperimentConfig,
    build_network,
    run_comparison,
    scaled_config,
)
from repro.eval.results import canonical_dumps, load_result, to_jsonable
from repro.ioutil import atomic_write_text

RECORD_FORMAT = 2
SPEC_FILENAME = "spec.json"
RECORDS_DIRNAME = "records"
HEARTBEATS_DIRNAME = "heartbeats"

ProgressFn = Callable[[str, str], None]
"""Campaign progress callback ``(event, config_hash)``.

Events: ``"skip"`` (record already stored), ``"run"`` (config handed to
a worker), ``"done"`` (record written).
"""


# ----------------------------------------------------------------------
# Declarative sweep specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep over the paper's experiment dimensions.

    The cartesian product ``topologies x modes x high_fractions x
    high_densities x target_utilizations x seeds`` expands to one
    :class:`ExperimentConfig` per point, in exactly that nesting order.
    ``scale`` shrinks every config's search budgets proportionally
    (`SearchParams.scaled`); ``failure_scenarios`` additionally sweeps
    each optimized weight setting across all single-adjacency failures
    and stores the degradation summary in the record.
    ``scenario_kinds`` generalizes that: each named kind (``"link"``,
    ``"node"``, ``"srlg"``, ``"surge"``, ``"scale"`` — see
    :mod:`repro.scenarios`) expands to its deterministic scenario grid
    over the record's topology, and the per-class degradation summary
    of both the STR and DTR settings lands in the record.
    ``scenario_spaces`` goes further still: each spec (e.g.
    ``"space:all-link-2"``) names a combinatorial scenario space that is
    swept lazily with dominance pruning, and only its streaming
    aggregate (worst / mean / percentiles / CVaR) lands in the record —
    the space itself is never materialized.
    """

    topologies: tuple[str, ...] = ("random",)
    modes: tuple[str, ...] = (LOAD_MODE,)
    high_fractions: tuple[float, ...] = (0.30,)
    high_densities: tuple[float, ...] = (0.10,)
    target_utilizations: tuple[float, ...] = (0.6,)
    seeds: tuple[int, ...] = (1,)
    high_model: str = "random"
    sink_placement: str = "uniform"
    relaxation_epsilons: tuple[float, ...] = ()
    sla_theta_ms: Optional[float] = None
    scale: float = 1.0
    failure_scenarios: bool = False
    scenario_kinds: tuple[str, ...] = ()
    scenario_spaces: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Normalize sequences to tuples so specs hash and compare by value
        # regardless of whether they were built from JSON lists.
        allowed_empty = ("relaxation_epsilons", "scenario_kinds", "scenario_spaces")
        for name in (
            "topologies",
            "modes",
            "high_fractions",
            "high_densities",
            "target_utilizations",
            "seeds",
            "relaxation_epsilons",
            "scenario_kinds",
            "scenario_spaces",
        ):
            value = tuple(getattr(self, name))
            if name not in allowed_empty and not value:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, value)
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.scenario_kinds:
            # Fail at spec time, not mid-campaign: every kind must be
            # registered AND enumerable (raises UnknownNameError or
            # ValueError listing the registered/enumerable alternatives).
            from repro.scenarios.spec import require_enumerable

            for kind_name in self.scenario_kinds:
                require_enumerable(kind_name)
        if self.scenario_spaces:
            # Same fail-fast contract for space specs: normalize each to
            # its canonical spelling (raises with the registered space
            # names or the kind's syntax help on a bad spec).
            from repro.scenarios.spec import canonical_space_spec

            object.__setattr__(
                self,
                "scenario_spaces",
                tuple(canonical_space_spec(s) for s in self.scenario_spaces),
            )

    def expand(self) -> list[ExperimentConfig]:
        """The sweep's configs, in deterministic nesting order."""
        sla_params = (
            SlaParams(theta_ms=float(self.sla_theta_ms))
            if self.sla_theta_ms is not None
            else SlaParams()
        )
        configs = []
        for topology in self.topologies:
            for mode in self.modes:
                for fraction in self.high_fractions:
                    for density in self.high_densities:
                        for target in self.target_utilizations:
                            for seed in self.seeds:
                                config = ExperimentConfig(
                                    topology=topology,
                                    mode=mode,
                                    target_utilization=float(target),
                                    high_fraction=float(fraction),
                                    high_density=float(density),
                                    high_model=self.high_model,
                                    sink_placement=self.sink_placement,
                                    relaxation_epsilons=self.relaxation_epsilons,
                                    sla_params=sla_params,
                                    seed=int(seed),
                                )
                                configs.append(scaled_config(config, self.scale))
        return configs

    @classmethod
    def from_jsonable(cls, data: dict) -> "CampaignSpec":
        """Rebuild a spec from a ``to_jsonable`` dict (e.g. a spec file)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign spec fields {sorted(unknown)}")
        return cls(**data)


def config_hash(config: ExperimentConfig) -> str:
    """Content hash of a config: the record filename in the store.

    SHA-256 over the canonical JSON of the config, with the retired
    ``incremental`` field added back, truncated to 20 hex characters.
    Stable across processes and interpreter runs (no ``hash()``
    salting), and any change to any config field — including search
    budgets — changes the hash.
    """
    # Configs once had an ``incremental`` field, always true in a campaign,
    # and every stored record is named by a hash that includes it; hashing
    # it back in keeps those names, so a resumed store skips their configs.
    text = canonical_dumps(to_jsonable(config) | {"incremental": True})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def config_from_jsonable(data: dict) -> ExperimentConfig:
    """Inverse of ``to_jsonable`` for :class:`ExperimentConfig`."""
    data = dict(data)
    data["sla_params"] = SlaParams(**data.get("sla_params", {}))
    search = dict(data.get("search_params", {}))
    if "weight_steps" in search:
        search["weight_steps"] = tuple(search["weight_steps"])
    data["search_params"] = SearchParams(**search)
    data["relaxation_epsilons"] = tuple(data.get("relaxation_epsilons", ()))
    return ExperimentConfig(**data)


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------
def build_record(
    config: ExperimentConfig,
    result: ComparisonResult,
    robustness: Optional[dict] = None,
    scenarios: Optional[dict] = None,
    spaces: Optional[dict] = None,
) -> dict:
    """One campaign record: the config plus everything aggregation needs.

    Deliberately a plain dict of JSON types — ``canonical_dumps`` of a
    record is the byte-identity unit of the store.
    """
    record: dict[str, Any] = {
        "format": RECORD_FORMAT,
        "config": to_jsonable(config),
        "metrics": {
            "ratio_high": result.ratio_high,
            "ratio_low": result.ratio_low,
            "measured_utilization": result.average_utilization,
            "str": {
                "objective": list(result.str_result.evaluation.objective.values),
                "phi_low": result.str_result.evaluation.phi_low,
                "max_utilization": result.str_result.evaluation.max_utilization,
                "evaluations": result.str_result.evaluations,
            },
            "dtr": {
                "objective": list(result.dtr_result.evaluation.objective.values),
                "phi_low": result.dtr_result.evaluation.phi_low,
                "max_utilization": result.dtr_result.evaluation.max_utilization,
                "evaluations": result.dtr_result.evaluations,
            },
        },
        "relaxed_ratio_low": {
            repr(eps): result.relaxed_ratio_low(eps)
            for eps in config.relaxation_epsilons
        },
        "weights": {
            "str": result.str_result.weights.tolist(),
            "dtr_high": result.dtr_result.high_weights.tolist(),
            "dtr_low": result.dtr_result.low_weights.tolist(),
        },
    }
    if config.mode == SLA_MODE:
        record["metrics"]["str"]["violations"] = result.str_result.evaluation.violations
        record["metrics"]["dtr"]["violations"] = result.dtr_result.evaluation.violations
    if robustness is not None:
        record["robustness"] = robustness
    if scenarios is not None:
        record["scenarios"] = scenarios
    if spaces is not None:
        record["scenario_spaces"] = spaces
    return record


def _failure_robustness(config: ExperimentConfig, result: ComparisonResult) -> dict:
    """Single-adjacency failure degradation of the STR and DTR settings."""
    from repro.eval.robustness import deployment_sessions, failure_sweep_session

    net = build_network(config.topology, config.seed)
    summaries = {}
    for label, session in deployment_sessions(net, result):
        report = failure_sweep_session(session)
        summaries[label] = {
            "scenarios": len(report.outcomes),
            "skipped_disconnecting": report.disconnected_count,
            "worst_phi_high": report.worst_phi_high,
            "worst_phi_low": report.worst_phi_low,
            "mean_phi_low": report.mean_phi_low,
            "degradation_factor": report.degradation_factor(),
        }
    return summaries


def _scenario_robustness(
    config: ExperimentConfig,
    result: ComparisonResult,
    scenario_kinds: Sequence[str],
) -> dict:
    """Per-scenario-class degradation of the STR and DTR settings."""
    from repro.eval.robustness import deployment_sessions, scenario_sweep_session
    from repro.scenarios.spec import ScenarioSet

    net = build_network(config.topology, config.seed)
    grid = ScenarioSet.from_kinds(net, scenario_kinds)
    summaries: dict[str, Any] = {"kinds": sorted(scenario_kinds)}
    for label, session in deployment_sessions(net, result):
        report = scenario_sweep_session(session, grid)
        degradation = report.degradation_by_class()
        summaries[label] = {
            "baseline_phi_high": report.baseline_primary,
            "baseline_phi_low": report.baseline_secondary,
            "classes": {
                kind: {
                    "scenarios": s.scenarios,
                    "disconnected": s.disconnected,
                    "worst_phi_high": s.worst_primary,
                    "mean_phi_high": s.mean_primary,
                    "worst_phi_low": s.worst_secondary,
                    "mean_phi_low": s.mean_secondary,
                    "worst_max_utilization": s.worst_max_utilization,
                    "degradation_factor": degradation[kind],
                }
                for kind, s in report.by_class().items()
            },
        }
    return summaries


def _space_robustness(
    config: ExperimentConfig,
    result: ComparisonResult,
    scenario_spaces: Sequence[str],
) -> dict:
    """Streaming scenario-space aggregates of the STR and DTR settings.

    One dominance-pruned lazy sweep per (setting, space); only the
    streaming aggregate lands in the record, so record size is
    independent of how many scenarios each space enumerates.
    """
    from repro.eval.robustness import deployment_sessions, space_sweep_session

    net = build_network(config.topology, config.seed)
    summaries: dict[str, Any] = {"spaces": sorted(scenario_spaces)}
    for label, session in deployment_sessions(net, result):
        by_space = {}
        for spec in sorted(scenario_spaces):
            report = space_sweep_session(session, spec)
            sweep = report.result
            aggregate = sweep.aggregate
            by_space[spec] = {
                "scenarios": sweep.scenarios,
                "evaluated": sweep.evaluated,
                "pruned": sweep.pruned,
                "disconnected": sweep.disconnected,
                "baseline_primary": sweep.baseline_primary,
                "baseline_secondary": sweep.baseline_secondary,
                "worst_primary": aggregate.primary.worst,
                "worst_secondary": aggregate.secondary.worst,
                "mean_secondary": aggregate.secondary.mean,
                "cvar_secondary": aggregate.secondary.cvar,
                "worst_max_utilization": aggregate.max_utilization.worst,
                "degradation_factor": report.degradation_factor(),
            }
        summaries[label] = by_space
    return summaries


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CampaignSpecMismatch(ValueError):
    """A campaign directory already holds a *different* spec."""


class CampaignStore:
    """A content-addressed campaign directory.

    Layout::

        <root>/spec.json                  the expanded spec (canonical JSON)
        <root>/records/<hash>.json        one record per completed config
        <root>/heartbeats/<hash>.json     transient worker liveness files
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_FILENAME

    @property
    def records_dir(self) -> Path:
        return self.root / RECORDS_DIRNAME

    @property
    def heartbeats_dir(self) -> Path:
        return self.root / HEARTBEATS_DIRNAME

    # -- lifecycle -------------------------------------------------------
    def initialize(self, spec: CampaignSpec) -> None:
        """Create the directory layout and pin the spec.

        Re-initializing with the identical spec is a no-op (resume);
        a different spec raises :class:`CampaignSpecMismatch` rather than
        silently mixing two sweeps' records in one store.
        """
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeats_dir.mkdir(parents=True, exist_ok=True)
        text = canonical_dumps(spec)
        if self.spec_path.exists():
            if self.spec_path.read_text() != text:
                raise CampaignSpecMismatch(
                    f"{self.root} already holds a different campaign spec; "
                    "use a fresh directory or delete the old campaign"
                )
            return
        atomic_write_text(self.spec_path, text)

    def load_spec(self) -> CampaignSpec:
        """Read back the pinned spec.

        Raises:
            FileNotFoundError: if ``root`` is not an initialized campaign
                directory (no ``spec.json``).
        """
        if not self.spec_path.is_file():
            raise FileNotFoundError(
                f"{self.root} is not a campaign directory (no {SPEC_FILENAME}); "
                "run `repro-dtr campaign run` first or check the path"
            )
        return CampaignSpec.from_jsonable(load_result(self.spec_path))

    # -- records ---------------------------------------------------------
    def record_path(self, key: str) -> Path:
        return self.records_dir / f"{key}.json"

    def completed_keys(self) -> set[str]:
        """Hashes of all configs with a stored record."""
        if not self.records_dir.is_dir():
            return set()
        return {path.stem for path in self.records_dir.glob("*.json")}

    def write_record(self, key: str, record: dict) -> None:
        """Atomically write one record (tmp file + rename).

        A crashed or interrupted worker can never leave a truncated
        record behind — resume logic may trust every ``*.json`` present.
        """
        path = self.record_path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        tmp.write_text(canonical_dumps(record))
        os.replace(tmp, path)

    def load_record(self, key: str) -> dict:
        """Read one record back as a plain dict."""
        return load_result(self.record_path(key))

    def iter_records(self) -> Iterator[dict]:
        """All stored records, in sorted-hash (deterministic) order."""
        for path in sorted(self.records_dir.glob("*.json")):
            yield load_result(path)

    # -- heartbeats ------------------------------------------------------
    def write_heartbeat(self, key: str, payload: dict) -> None:
        path = self.heartbeats_dir / f"{key}.json"
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        tmp.write_text(canonical_dumps(payload))
        os.replace(tmp, path)

    def clear_heartbeat(self, key: str) -> None:
        try:
            (self.heartbeats_dir / f"{key}.json").unlink()
        except FileNotFoundError:
            pass

    def clear_all_heartbeats(self) -> None:
        """Remove every heartbeat file (crashed workers leave them behind)."""
        if not self.heartbeats_dir.is_dir():
            return
        for path in self.heartbeats_dir.glob("*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def heartbeats(self) -> dict[str, dict]:
        """Live heartbeat payloads by config hash."""
        if not self.heartbeats_dir.is_dir():
            return {}
        found = {}
        for path in sorted(self.heartbeats_dir.glob("*.json")):
            try:
                found[path.stem] = load_result(path)
            except (OSError, ValueError):
                continue  # racing with a worker's os.replace/unlink
        return found

    def status(self) -> "CampaignStatus":
        """Progress of this campaign against its pinned spec.

        Heartbeats of already-completed configs are stale by definition
        (a crashed worker's leftovers) and are excluded.
        """
        spec = self.load_spec()
        keys = [config_hash(config) for config in spec.expand()]
        done = self.completed_keys()
        live = {k: v for k, v in self.heartbeats().items() if k not in done}
        return CampaignStatus(
            total=len(keys),
            completed=sum(1 for k in keys if k in done),
            pending=tuple(k for k in keys if k not in done),
            heartbeats=live,
        )


@dataclass(frozen=True)
class CampaignStatus:
    """Completion state of a campaign directory."""

    total: int
    completed: int
    pending: tuple[str, ...]
    heartbeats: dict[str, dict]

    def format(self) -> str:
        lines = [f"campaign: {self.completed}/{self.total} records complete"]
        for key, beat in self.heartbeats.items():
            lines.append(
                f"  running {key}: phase={beat.get('phase')} "
                f"iteration={beat.get('iteration')}/{beat.get('total')}"
            )
        if self.pending:
            lines.append(f"  {len(self.pending)} configs pending")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_config(
    root: str,
    config_data: dict,
    heartbeats: bool,
    failure_scenarios: bool,
    scenario_kinds: Sequence[str] = (),
    scenario_spaces: Sequence[str] = (),
) -> str:
    """Run one config and store its record; the multiprocessing task body.

    Takes only picklable JSON types and rebuilds everything inside the
    worker, so no RNG, evaluator, or network state ever crosses a process
    boundary.
    """
    store = CampaignStore(root)
    config = config_from_jsonable(config_data)
    key = config_hash(config)

    progress = None
    if heartbeats:
        heartbeat_count = obs.counter(
            "repro_campaign_heartbeats_total",
            "Worker heartbeat files written (liveness signal).",
        )

        def progress(phase: str, iteration: int, total: int) -> None:
            store.write_heartbeat(
                key,
                {"phase": phase, "iteration": iteration, "total": total,
                 "pid": os.getpid()},
            )
            heartbeat_count.inc()

    with obs.span("campaign.config", config=key):
        result = run_comparison(config, progress=progress)
    robustness = _failure_robustness(config, result) if failure_scenarios else None
    scenarios = (
        _scenario_robustness(config, result, scenario_kinds)
        if scenario_kinds
        else None
    )
    spaces = (
        _space_robustness(config, result, scenario_spaces)
        if scenario_spaces
        else None
    )
    store.write_record(
        key,
        build_record(
            config, result, robustness=robustness, scenarios=scenarios, spaces=spaces
        ),
    )
    store.clear_heartbeat(key)
    return key


@dataclass(frozen=True)
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did."""

    root: Path
    total: int
    skipped: int
    executed: int
    workers: int


def run_campaign(
    spec: CampaignSpec,
    root: Union[str, Path],
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    heartbeats: bool = True,
) -> CampaignRunSummary:
    """Execute (or resume) a campaign into ``root``.

    Expands ``spec``, skips every config whose record is already stored,
    and runs the rest — inline when ``workers <= 1``, otherwise across a
    spawn-context ``multiprocessing`` pool.  The spawn context is chosen
    deliberately: workers start from a fresh interpreter, so nothing —
    module-level RNG state included — can leak from the parent or between
    tasks, and the bit-identity contract holds on every platform.

    Records land independently and atomically, so interrupting a
    campaign (Ctrl-C, OOM, node failure) loses at most the in-flight
    configs; re-invoking with the same spec finishes the remainder.
    """
    store = CampaignStore(root)
    store.initialize(spec)
    store.clear_all_heartbeats()  # anything left from a prior run is stale
    configs = spec.expand()
    done = store.completed_keys()

    pending: list[tuple[str, dict]] = []
    skipped = 0
    for config in configs:
        key = config_hash(config)
        if key in done:
            skipped += 1
            if progress is not None:
                progress("skip", key)
        else:
            pending.append((key, to_jsonable(config)))

    failures = spec.failure_scenarios
    kinds = list(spec.scenario_kinds)
    space_specs = list(spec.scenario_spaces)
    if workers <= 1 or len(pending) <= 1:
        for key, config_data in pending:
            if progress is not None:
                progress("run", key)
            _execute_config(
                str(store.root), config_data, heartbeats, failures, kinds, space_specs
            )
            if progress is not None:
                progress("done", key)
    else:
        ctx = multiprocessing.get_context("spawn")
        tasks = [
            (str(store.root), config_data, heartbeats, failures, kinds, space_specs)
            for _, config_data in pending
        ]
        if progress is not None:
            for key, _ in pending:
                progress("run", key)
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            for key in pool.imap_unordered(_execute_star, tasks):
                if progress is not None:
                    progress("done", key)

    return CampaignRunSummary(
        root=store.root,
        total=len(configs),
        skipped=skipped,
        executed=len(pending),
        workers=max(1, workers),
    )


def _execute_star(task: tuple[str, dict, bool, bool, list, list]) -> str:
    return _execute_config(*task)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregatePoint:
    """Seed-averaged metrics at one sweep grid point."""

    topology: str
    mode: str
    high_fraction: float
    high_density: float
    target_utilization: float
    seeds: int
    measured_utilization: float
    ratio_high: float
    ratio_low: float
    ratio_low_min: float
    ratio_low_max: float


@dataclass(frozen=True)
class CampaignAggregate:
    """All grid points of a campaign, seed-averaged and ordered."""

    points: tuple[AggregatePoint, ...]
    records: int

    def select(
        self,
        topology: Optional[str] = None,
        mode: Optional[str] = None,
        high_fraction: Optional[float] = None,
        high_density: Optional[float] = None,
    ) -> tuple[AggregatePoint, ...]:
        """Grid points matching every given dimension, sweep-ordered."""
        out = []
        for p in self.points:
            if topology is not None and p.topology != topology:
                continue
            if mode is not None and p.mode != mode:
                continue
            if high_fraction is not None and p.high_fraction != high_fraction:
                continue
            if high_density is not None and p.high_density != high_density:
                continue
            out.append(p)
        return tuple(out)

    def format(self) -> str:
        header = f"campaign aggregate — {self.records} records, {len(self.points)} grid points"
        rows = [
            (
                p.topology,
                p.mode,
                p.high_fraction,
                p.high_density,
                p.target_utilization,
                p.seeds,
                p.measured_utilization,
                p.ratio_high,
                p.ratio_low,
            )
            for p in self.points
        ]
        body = format_table(
            ["topology", "mode", "f", "k", "target", "seeds", "AD", "R_H", "R_L"],
            rows,
        )
        return f"{header}\n{body}"


def aggregate_campaign(store: Union[CampaignStore, str, Path]) -> CampaignAggregate:
    """Fold every stored record into seed-averaged grid points.

    Grouping key: ``(topology, mode, f, k, target_utilization)``; every
    other config field (seed aside) is constant within a campaign by
    construction.  Points come back sorted by that key, so aggregation
    output is independent of record completion order.

    Raises:
        FileNotFoundError: if ``store`` is not an initialized campaign
            directory — a typoed path must not masquerade as a valid,
            empty campaign.
    """
    if not isinstance(store, CampaignStore):
        store = CampaignStore(store)
    store.load_spec()  # existence check: fail loudly on a wrong path
    groups: dict[tuple, list[dict]] = {}
    records = 0
    for record in store.iter_records():
        records += 1
        config = record["config"]
        key = (
            config["topology"],
            config["mode"],
            float(config["high_fraction"]),
            float(config["high_density"]),
            float(config["target_utilization"]),
        )
        groups.setdefault(key, []).append(record["metrics"])

    points = []
    for key in sorted(groups):
        metrics = groups[key]
        ratio_lows = [m["ratio_low"] for m in metrics]
        points.append(
            AggregatePoint(
                topology=key[0],
                mode=key[1],
                high_fraction=key[2],
                high_density=key[3],
                target_utilization=key[4],
                seeds=len(metrics),
                measured_utilization=_mean(
                    [m["measured_utilization"] for m in metrics]
                ),
                ratio_high=_mean([m["ratio_high"] for m in metrics]),
                ratio_low=_mean(ratio_lows),
                ratio_low_min=min(ratio_lows),
                ratio_low_max=max(ratio_lows),
            )
        )
    return CampaignAggregate(points=tuple(points), records=records)


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values))
