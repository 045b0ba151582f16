"""Reproduction entry points for every figure and table in the paper.

Each ``figN`` function runs the underlying experiments and returns a result
dataclass carrying the same series the paper plots; each result renders to
text via ``format()``.  A ``scale`` argument proportionally shrinks the
search budgets (1.0 = library defaults; the paper's budgets are
``SearchParams.paper()``), and ``seed`` fixes all randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.costs.sla import SlaParams
from repro.eval.ascii_plot import format_histogram, format_series, format_table
from repro.eval.experiment import (
    ComparisonResult,
    ExperimentConfig,
    run_comparison,
    scaled_config,
    sweep_utilization,
)
from repro.eval.metrics import sorted_high_utilization, utilization_histogram

DEFAULT_TARGETS: tuple[float, ...] = (0.4, 0.5, 0.6, 0.7, 0.8)
"""Default utilization sweep, covering the x-ranges of Figs. 2, 4, 5 and 8."""


# ----------------------------------------------------------------------
# Shared result shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RatioPoint:
    """One sweep point: cost ratios at a network load level."""

    target_utilization: float
    measured_utilization: float
    ratio_high: float
    ratio_low: float


@dataclass(frozen=True)
class RatioSeries:
    """A labeled series of :class:`RatioPoint` (one curve of a figure)."""

    label: str
    points: tuple[RatioPoint, ...]

    def rows(self) -> list[tuple[float, float, float, float]]:
        """``(target, measured AD, R_H, R_L)`` per point."""
        return [
            (
                p.target_utilization,
                p.measured_utilization,
                p.ratio_high,
                p.ratio_low,
            )
            for p in self.points
        ]


def _series_from_results(label: str, results: Sequence[ComparisonResult]) -> RatioSeries:
    return RatioSeries(
        label=label,
        points=tuple(
            RatioPoint(
                target_utilization=r.config.target_utilization,
                measured_utilization=r.average_utilization,
                ratio_high=r.ratio_high,
                ratio_low=r.ratio_low,
            )
            for r in results
        ),
    )


def _base_config(scale: float, seed: int, **overrides) -> ExperimentConfig:
    return scaled_config(ExperimentConfig(seed=seed, **overrides), scale)


# ----------------------------------------------------------------------
# Figure 2 — cost ratios vs average link utilization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2Result:
    """One panel of Fig. 2: R_H and R_L across network loads."""

    topology: str
    mode: str
    series: RatioSeries

    def format(self) -> str:
        header = f"Fig.2 [{self.topology}, {self.mode}-based cost] f=30% k=10%"
        body = format_series(
            "target_util", ["measured_AD", "R_H", "R_L"], self.series.rows()
        )
        return f"{header}\n{body}"


def fig2(
    topology: str,
    mode: str,
    targets: Sequence[float] = DEFAULT_TARGETS,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig2Result:
    """Reproduce one panel of Fig. 2 (a-c load-based, d-f SLA-based)."""
    config = _base_config(scale, seed, topology=topology, mode=mode)
    results = sweep_utilization(config, targets)
    return Fig2Result(
        topology=topology, mode=mode, series=_series_from_results(topology, results)
    )


# ----------------------------------------------------------------------
# Figure 3 — link-utilization histograms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """One panel of Fig. 3: utilization histograms under STR and DTR."""

    mode: str
    high_density: float
    bin_edges: np.ndarray
    str_counts: np.ndarray
    dtr_counts: np.ndarray

    def format(self) -> str:
        header = (
            f"Fig.3 [{self.mode}-based cost, k={self.high_density:.0%}] "
            "link-utilization histogram"
        )
        str_part = format_histogram(self.bin_edges, self.str_counts, "STR (single routing)")
        dtr_part = format_histogram(self.bin_edges, self.dtr_counts, "DTR (dual routing)")
        return f"{header}\n{str_part}\n{dtr_part}"


def fig3(
    panel: str,
    target_utilization: float = 0.65,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig3Result:
    """Reproduce one panel of Fig. 3.

    Panels: ``"a"`` = load cost / k=10 %, ``"b"`` = SLA cost / k=10 %,
    ``"c"`` = SLA cost / k=30 %; all on the 30-node random topology, f=30 %.
    """
    settings = {
        "a": (LOAD_MODE, 0.10),
        "b": (SLA_MODE, 0.10),
        "c": (SLA_MODE, 0.30),
    }
    if panel not in settings:
        raise ValueError(f"panel must be one of {sorted(settings)}, got {panel!r}")
    mode, density = settings[panel]
    config = _base_config(
        scale,
        seed,
        topology="random",
        mode=mode,
        high_density=density,
        target_utilization=target_utilization,
    )
    result = run_comparison(config)
    top = max(
        1.0,
        float(result.str_result.evaluation.utilization.max()),
        float(result.dtr_result.evaluation.utilization.max()),
    )
    edges, str_counts = utilization_histogram(
        result.str_result.evaluation.utilization, max_utilization=top
    )
    _, dtr_counts = utilization_histogram(
        result.dtr_result.evaluation.utilization, max_utilization=top
    )
    return Fig3Result(
        mode=mode,
        high_density=density,
        bin_edges=edges,
        str_counts=str_counts,
        dtr_counts=dtr_counts,
    )


# ----------------------------------------------------------------------
# Figure 4 — impact of the high-priority volume fraction f
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Result:
    """Fig. 4: R_L vs load for f = 20 % and f = 40 % (load cost, k = 10 %)."""

    series: tuple[RatioSeries, ...]

    def format(self) -> str:
        blocks = ["Fig.4 [random, load-based cost] impact of f, k=10%"]
        for s in self.series:
            blocks.append(f"-- {s.label}")
            blocks.append(
                format_series("target_util", ["measured_AD", "R_H", "R_L"], s.rows())
            )
        return "\n".join(blocks)


def fig4(
    fractions: Sequence[float] = (0.20, 0.40),
    targets: Sequence[float] = DEFAULT_TARGETS,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig4Result:
    """Reproduce Fig. 4: higher f makes DTR's advantage larger."""
    series = []
    for f in fractions:
        config = _base_config(
            scale, seed, topology="random", mode=LOAD_MODE, high_fraction=f
        )
        results = sweep_utilization(config, targets)
        series.append(_series_from_results(f"f={f:.0%}", results))
    return Fig4Result(series=tuple(series))


# ----------------------------------------------------------------------
# Figure 5 — impact of the high-priority SD-pair density k
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Result:
    """Fig. 5: R_L vs load for k = 10 % and 30 %, one cost mode per panel."""

    mode: str
    series: tuple[RatioSeries, ...]

    def format(self) -> str:
        blocks = [f"Fig.5 [random, {self.mode}-based cost] impact of k, f=30%"]
        for s in self.series:
            blocks.append(f"-- {s.label}")
            blocks.append(
                format_series("target_util", ["measured_AD", "R_H", "R_L"], s.rows())
            )
        return "\n".join(blocks)


def fig5(
    mode: str,
    densities: Sequence[float] = (0.10, 0.30),
    targets: Sequence[float] = DEFAULT_TARGETS,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig5Result:
    """Reproduce Fig. 5(a) (``mode="load"``) or 5(b) (``mode="sla"``)."""
    series = []
    for k in densities:
        config = _base_config(
            scale, seed, topology="random", mode=mode, high_density=k
        )
        results = sweep_utilization(config, targets)
        series.append(_series_from_results(f"k={k:.0%}", results))
    return Fig5Result(mode=mode, series=tuple(series))


# ----------------------------------------------------------------------
# Figure 6 — sorted high-priority link utilization under STR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Result:
    """Fig. 6: descending per-link H-utilization under STR for two densities."""

    curves: dict[float, np.ndarray]

    def format(self) -> str:
        lines = ["Fig.6 [random, load-based cost] sorted link H-utilization under STR"]
        for k, curve in sorted(self.curves.items()):
            head = ", ".join(f"{u:.3f}" for u in curve[:10])
            lines.append(
                f"k={k:.0%}: top10=[{head}] max={curve[0]:.3f} mean={curve.mean():.3f}"
            )
        return "\n".join(lines)


def fig6(
    densities: Sequence[float] = (0.10, 0.30),
    target_utilization: float = 0.65,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig6Result:
    """Reproduce Fig. 6: higher k flattens the H-utilization curve."""
    curves = {}
    for k in densities:
        config = _base_config(
            scale,
            seed,
            topology="random",
            mode=LOAD_MODE,
            high_density=k,
            target_utilization=target_utilization,
        )
        result = run_comparison(config)
        curves[k] = sorted_high_utilization(
            result.str_result.evaluation.high_loads, _capacities_of(result)
        )
    return Fig6Result(curves=curves)


def _capacities_of(result: ComparisonResult) -> np.ndarray:
    from repro.eval.experiment import build_network

    return build_network(result.config.topology, result.config.seed).capacities()


# ----------------------------------------------------------------------
# Figure 7 — link load vs propagation delay (SLA cost)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Result:
    """Fig. 7: per-link (propagation delay, utilization) under STR and DTR."""

    prop_delays_ms: np.ndarray
    str_utilization: np.ndarray
    dtr_utilization: np.ndarray

    def correlation(self, scheme: str) -> float:
        """Pearson correlation between link delay and link utilization."""
        util = self.str_utilization if scheme == "str" else self.dtr_utilization
        return float(np.corrcoef(self.prop_delays_ms, util)[0, 1])

    def format(self) -> str:
        lines = [
            "Fig.7 [random, SLA-based cost] link load vs propagation delay",
            f"corr(delay, util) STR={self.correlation('str'):+.3f} "
            f"DTR={self.correlation('dtr'):+.3f}",
        ]
        order = np.argsort(self.prop_delays_ms)
        rows = [
            (
                float(self.prop_delays_ms[i]),
                float(self.str_utilization[i]),
                float(self.dtr_utilization[i]),
            )
            for i in order[:: max(1, len(order) // 15)]
        ]
        lines.append(format_table(["delay_ms", "STR_util", "DTR_util"], rows))
        return "\n".join(lines)


def fig7(
    target_utilization: float = 0.6,
    high_density: float = 0.30,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig7Result:
    """Reproduce Fig. 7: under STR, short links attract disproportionate load."""
    config = _base_config(
        scale,
        seed,
        topology="random",
        mode=SLA_MODE,
        high_density=high_density,
        target_utilization=target_utilization,
    )
    result = run_comparison(config)
    from repro.eval.experiment import build_network

    net = build_network(config.topology, config.seed)
    return Fig7Result(
        prop_delays_ms=net.prop_delays(),
        str_utilization=result.str_result.evaluation.utilization,
        dtr_utilization=result.dtr_result.evaluation.utilization,
    )


# ----------------------------------------------------------------------
# Figure 8 — sink communication pattern, uniform vs local clients
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Result:
    """Fig. 8: R_L vs load for uniformly vs locally placed sink clients."""

    mode: str
    series: tuple[RatioSeries, ...]

    def format(self) -> str:
        blocks = [
            f"Fig.8 [powerlaw, {self.mode}-based cost] sink model, f=20% k=10%"
        ]
        for s in self.series:
            blocks.append(f"-- {s.label}")
            blocks.append(
                format_series("target_util", ["measured_AD", "R_H", "R_L"], s.rows())
            )
        return "\n".join(blocks)


def fig8(
    mode: str,
    targets: Sequence[float] = DEFAULT_TARGETS,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig8Result:
    """Reproduce Fig. 8(a) (``mode="load"``) or 8(b) (``mode="sla"``)."""
    series = []
    for placement in ("uniform", "local"):
        config = _base_config(
            scale,
            seed,
            topology="powerlaw",
            mode=mode,
            high_model="sink",
            sink_placement=placement,
            high_fraction=0.20,
        )
        results = sweep_utilization(config, targets)
        series.append(_series_from_results(placement.capitalize(), results))
    return Fig8Result(mode=mode, series=tuple(series))


# ----------------------------------------------------------------------
# Figure 9 — impact of the SLA delay bound
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig9Point:
    """One SLA-bound setting of Fig. 9, STR vs DTR side by side."""

    theta_ms: float
    str_violations: int
    dtr_violations: int
    str_phi_low: float
    dtr_phi_low: float
    str_max_utilization: float
    dtr_max_utilization: float


@dataclass(frozen=True)
class Fig9Result:
    """Fig. 9(a-c): SLA violations, low-priority cost, and max utilization."""

    points: tuple[Fig9Point, ...]

    def format(self) -> str:
        rows = [
            (
                p.theta_ms,
                p.str_violations,
                p.dtr_violations,
                p.str_phi_low,
                p.dtr_phi_low,
                p.str_max_utilization,
                p.dtr_max_utilization,
            )
            for p in self.points
        ]
        header = "Fig.9 [random, SLA sweep] f=30% k=30% AD~0.5"
        body = format_table(
            [
                "theta_ms",
                "STR_viol",
                "DTR_viol",
                "STR_PhiL",
                "DTR_PhiL",
                "STR_maxU",
                "DTR_maxU",
            ],
            rows,
        )
        return f"{header}\n{body}"


def fig9(
    thetas_ms: Sequence[float] = (25.0, 27.5, 30.0, 32.5, 35.0),
    target_utilization: float = 0.5,
    scale: float = 1.0,
    seed: int = 1,
) -> Fig9Result:
    """Reproduce Fig. 9: loosening theta closes most of the STR-DTR gap."""
    points = []
    for theta in thetas_ms:
        config = _base_config(
            scale,
            seed,
            topology="random",
            mode=SLA_MODE,
            high_density=0.30,
            target_utilization=target_utilization,
        )
        config = replace(config, sla_params=SlaParams(theta_ms=float(theta)))
        result = run_comparison(config)
        points.append(
            Fig9Point(
                theta_ms=float(theta),
                str_violations=result.str_result.evaluation.violations,
                dtr_violations=result.dtr_result.evaluation.violations,
                str_phi_low=result.str_result.evaluation.phi_low,
                dtr_phi_low=result.dtr_result.evaluation.phi_low,
                str_max_utilization=result.str_result.evaluation.max_utilization,
                dtr_max_utilization=result.dtr_result.evaluation.max_utilization,
            )
        )
    return Fig9Result(points=tuple(points))


# ----------------------------------------------------------------------
# Table 1 — relaxed STR vs DTR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One load level of Table 1 for one topology."""

    average_utilization: float
    ratio_low: float
    ratio_low_5pct: float
    ratio_low_30pct: float


@dataclass(frozen=True)
class Table1Result:
    """Table 1: low-priority performance of epsilon-relaxed STR vs DTR."""

    rows_by_topology: dict[str, tuple[Table1Row, ...]]

    def format(self) -> str:
        blocks = ["Table 1 [load-based cost] relaxed STR vs DTR, f=30% k=10%"]
        for topology, rows in self.rows_by_topology.items():
            blocks.append(f"-- {topology} topology")
            blocks.append(
                format_table(
                    ["AD", "R_L", "R_L,5%", "R_L,30%"],
                    [
                        (
                            r.average_utilization,
                            r.ratio_low,
                            r.ratio_low_5pct,
                            r.ratio_low_30pct,
                        )
                        for r in rows
                    ],
                )
            )
        return "\n".join(blocks)


# ----------------------------------------------------------------------
# Campaign-backed figures: aggregate stored records instead of recomputing
# ----------------------------------------------------------------------
def series_from_campaign(
    store,
    label: str,
    topology: str,
    mode: str,
    high_fraction: Optional[float] = None,
    high_density: Optional[float] = None,
) -> RatioSeries:
    """One figure curve from a campaign store's aggregated records.

    ``store`` is a campaign directory path, a
    :class:`~repro.eval.campaign.CampaignStore`, or an already computed
    :class:`~repro.eval.campaign.CampaignAggregate`.  Points are
    seed-averaged and come back ordered by target utilization, exactly
    like a freshly computed :func:`sweep_utilization` series — but
    reading records costs milliseconds, so a stored campaign can be
    re-plotted, re-filtered, and re-aggregated for free.
    """
    from repro.eval.campaign import CampaignAggregate, aggregate_campaign

    aggregate = store if isinstance(store, CampaignAggregate) else aggregate_campaign(store)
    points = aggregate.select(
        topology=topology,
        mode=mode,
        high_fraction=high_fraction,
        high_density=high_density,
    )
    if not points:
        raise ValueError(
            f"campaign holds no records for topology={topology!r} mode={mode!r}"
        )
    return RatioSeries(
        label=label,
        points=tuple(
            RatioPoint(
                target_utilization=p.target_utilization,
                measured_utilization=p.measured_utilization,
                ratio_high=p.ratio_high,
                ratio_low=p.ratio_low,
            )
            for p in points
        ),
    )


def fig2_from_campaign(
    store,
    topology: str,
    mode: str,
    high_fraction: float = 0.30,
    high_density: float = 0.10,
) -> Fig2Result:
    """A Fig. 2 panel aggregated from stored campaign records.

    The non-swept dimensions default to the paper's base configuration
    (f=30 %, k=10 %) and are always pinned — a campaign that sweeps both
    grids would otherwise leak foreign grid points into the curve.
    """
    return Fig2Result(
        topology=topology,
        mode=mode,
        series=series_from_campaign(
            store,
            topology,
            topology,
            mode,
            high_fraction=high_fraction,
            high_density=high_density,
        ),
    )


def fig4_from_campaign(
    store,
    fractions: Sequence[float] = (0.20, 0.40),
    high_density: float = 0.10,
) -> Fig4Result:
    """Fig. 4 (impact of ``f``) aggregated from stored campaign records."""
    return Fig4Result(
        series=tuple(
            series_from_campaign(
                store,
                f"f={f:.0%}",
                "random",
                LOAD_MODE,
                high_fraction=float(f),
                high_density=high_density,
            )
            for f in fractions
        )
    )


def fig5_from_campaign(
    store,
    mode: str,
    densities: Sequence[float] = (0.10, 0.30),
    high_fraction: float = 0.30,
) -> Fig5Result:
    """Fig. 5 (impact of ``k``) aggregated from stored campaign records."""
    return Fig5Result(
        mode=mode,
        series=tuple(
            series_from_campaign(
                store,
                f"k={k:.0%}",
                "random",
                mode,
                high_fraction=high_fraction,
                high_density=float(k),
            )
            for k in densities
        ),
    )


def table1(
    topologies: Sequence[str] = ("random", "powerlaw", "isp"),
    targets: Sequence[float] = (0.45, 0.55, 0.65, 0.75, 0.85),
    scale: float = 1.0,
    seed: int = 1,
) -> Table1Result:
    """Reproduce Table 1: relaxation narrows but never closes the gap."""
    rows_by_topology = {}
    for topology in topologies:
        config = _base_config(
            scale,
            seed,
            topology=topology,
            mode=LOAD_MODE,
            relaxation_epsilons=(0.05, 0.30),
        )
        rows = []
        for result in sweep_utilization(config, targets):
            rows.append(
                Table1Row(
                    average_utilization=result.average_utilization,
                    ratio_low=result.ratio_low,
                    ratio_low_5pct=result.relaxed_ratio_low(0.05),
                    ratio_low_30pct=result.relaxed_ratio_low(0.30),
                )
            )
        rows_by_topology[topology] = tuple(rows)
    return Table1Result(rows_by_topology=rows_by_topology)


# ----------------------------------------------------------------------
# Scenario-robustness figure — degradation by scenario class
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioClassRow:
    """One scenario class: STR vs DTR worst-case degradation."""

    kind: str
    scenarios: int
    disconnected: int
    str_worst_degradation: float
    dtr_worst_degradation: float
    str_mean_phi_low: float
    dtr_mean_phi_low: float


@dataclass(frozen=True)
class FigScenariosResult:
    """Extension figure: per-scenario-class degradation of STR vs DTR.

    For every scenario class (single-link, node, SRLG, hot-spot surge,
    ...) the worst-case low-priority cost under the class's sweep grid
    is reported relative to the scheme's own intact baseline.  The
    robustness companion to the paper's intact-network comparisons:
    whether DTR's advantage survives degraded conditions.
    """

    topology: str
    mode: str
    kinds: tuple[str, ...]
    baseline_str_phi_low: float
    baseline_dtr_phi_low: float
    rows: tuple[ScenarioClassRow, ...]

    def format(self) -> str:
        header = (
            f"Scenario robustness [{self.topology}, {self.mode}-based cost] "
            f"worst-case degradation by scenario class"
        )
        body = format_table(
            ["class", "n", "cut", "STR_worst", "DTR_worst",
             "STR_meanPhiL", "DTR_meanPhiL"],
            [
                (
                    r.kind,
                    r.scenarios,
                    r.disconnected,
                    r.str_worst_degradation,
                    r.dtr_worst_degradation,
                    r.str_mean_phi_low,
                    r.dtr_mean_phi_low,
                )
                for r in self.rows
            ],
        )
        return f"{header}\n{body}"


def fig_scenarios(
    topology: str = "isp",
    kinds: Sequence[str] = ("link", "node", "srlg", "surge"),
    target_utilization: float = 0.6,
    scale: float = 1.0,
    seed: int = 1,
) -> FigScenariosResult:
    """Sweep STR and DTR settings across scenario grids, per class.

    Optimizes both schemes on the intact network (one
    :func:`run_comparison`), then sweeps each weight setting — unchanged,
    as deployed OSPF/MT-OSPF would — across the concatenated scenario
    grids of ``kinds`` via the batched scenario engine.
    """
    from repro.eval.experiment import build_network
    from repro.eval.robustness import deployment_sessions, scenario_sweep_session
    from repro.scenarios.spec import ScenarioSet

    config = _base_config(
        scale,
        seed,
        topology=topology,
        mode=LOAD_MODE,
        target_utilization=target_utilization,
    )
    result = run_comparison(config)
    net = build_network(topology, seed)
    grid = ScenarioSet.from_kinds(net, kinds)
    reports = {}
    for label, session in deployment_sessions(net, result):
        reports[label] = scenario_sweep_session(session, grid)

    str_by_class = reports["str"].by_class()
    dtr_by_class = reports["dtr"].by_class()
    str_deg = reports["str"].degradation_by_class()
    dtr_deg = reports["dtr"].degradation_by_class()
    rows = tuple(
        ScenarioClassRow(
            kind=kind,
            scenarios=str_by_class[kind].scenarios,
            disconnected=str_by_class[kind].disconnected,
            str_worst_degradation=str_deg[kind],
            dtr_worst_degradation=dtr_deg[kind],
            str_mean_phi_low=str_by_class[kind].mean_secondary,
            dtr_mean_phi_low=dtr_by_class[kind].mean_secondary,
        )
        for kind in sorted(str_by_class)
    )
    return FigScenariosResult(
        topology=topology,
        mode=LOAD_MODE,
        kinds=tuple(kinds),
        baseline_str_phi_low=reports["str"].baseline_secondary,
        baseline_dtr_phi_low=reports["dtr"].baseline_secondary,
        rows=rows,
    )
