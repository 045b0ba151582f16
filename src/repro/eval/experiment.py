"""End-to-end STR vs DTR comparison experiments (paper Section 5)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.determinism import derive_rng as _derive_rng
from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.core.progress import ProgressFn
from repro.core.result import OptimizationResult
from repro.core.search_params import SearchParams
from repro.costs.sla import SlaParams
from repro.eval.metrics import safe_ratio
from repro.network.graph import Network
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import (
    HighPriorityTraffic,
    random_high_priority,
    sink_high_priority,
)
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.scaling import scale_to_utilization

RANDOM_TOPOLOGY = "random"
POWERLAW_TOPOLOGY = "powerlaw"
ISP_TOPOLOGY = "isp"

RANDOM_HIGH_MODEL = "random"
SINK_HIGH_MODEL = "sink"


# Canonical home is repro.determinism; re-exported here because session,
# campaign, and the test suites historically import it from this module.
derive_rng = _derive_rng


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one STR-vs-DTR comparison.

    Defaults mirror the paper's base configuration: 30 % high-priority
    volume (``f``), 10 % high-priority pair density (``k``), random
    high-priority model, load-based cost function.
    """

    topology: str = RANDOM_TOPOLOGY
    mode: str = LOAD_MODE
    target_utilization: float = 0.6
    high_fraction: float = 0.30
    high_density: float = 0.10
    high_model: str = RANDOM_HIGH_MODEL
    sink_count: int = 3
    client_count: int = 9
    sink_placement: str = "uniform"
    sla_params: SlaParams = field(default_factory=SlaParams)
    search_params: SearchParams = field(default_factory=SearchParams)
    relaxation_epsilons: tuple[float, ...] = ()
    seed: int = 1

    def __post_init__(self) -> None:
        if self.topology not in (RANDOM_TOPOLOGY, POWERLAW_TOPOLOGY, ISP_TOPOLOGY):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.mode not in (LOAD_MODE, SLA_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.high_model not in (RANDOM_HIGH_MODEL, SINK_HIGH_MODEL):
            raise ValueError(f"unknown high-priority model {self.high_model!r}")
        if self.target_utilization <= 0:
            raise ValueError("target_utilization must be positive")


@dataclass
class ComparisonResult:
    """Outcome of one STR-vs-DTR comparison.

    ``ratio_high`` and ``ratio_low`` are the paper's ``R_H`` and ``R_L``:
    STR cost divided by DTR cost, per class.
    """

    config: ExperimentConfig
    str_result: OptimizationResult
    dtr_result: OptimizationResult
    high_traffic: TrafficMatrix
    low_traffic: TrafficMatrix

    @property
    def ratio_high(self) -> float:
        """``R_H``: STR high-priority cost over DTR high-priority cost."""
        return safe_ratio(
            self.str_result.evaluation.objective.primary,
            self.dtr_result.evaluation.objective.primary,
        )

    @property
    def ratio_low(self) -> float:
        """``R_L``: STR low-priority cost over DTR low-priority cost."""
        return safe_ratio(
            self.str_result.evaluation.phi_low, self.dtr_result.evaluation.phi_low
        )

    def relaxed_ratio_low(self, epsilon: float) -> float:
        """``R_L,eps``: relaxed-STR low-priority cost over DTR low-priority cost."""
        solution = self.str_result.relaxed.get(epsilon)
        if solution is None:
            raise KeyError(f"no relaxed solution tracked for epsilon={epsilon}")
        return safe_ratio(solution.phi_low, self.dtr_result.evaluation.phi_low)

    @property
    def average_utilization(self) -> float:
        """Measured mean link utilization under the STR solution (the paper's AD)."""
        return self.str_result.evaluation.average_utilization


def build_network(topology: str, seed: int) -> Network:
    """Construct one of the paper's three topology families.

    Random and power-law instances are seeded; the ISP backbone is fixed.
    """
    rng = random.Random(seed)
    if topology == RANDOM_TOPOLOGY:
        return random_topology(num_nodes=30, num_directed_links=150, rng=rng)
    if topology == POWERLAW_TOPOLOGY:
        return powerlaw_topology(num_nodes=30, attachment=3, rng=rng)
    if topology == ISP_TOPOLOGY:
        return isp_topology()
    raise ValueError(f"unknown topology {topology!r}")


def build_traffic(
    net: Network, config: ExperimentConfig, rng: random.Random
) -> tuple[TrafficMatrix, TrafficMatrix, HighPriorityTraffic]:
    """Generate, then jointly scale, the two traffic matrices of a config.

    Returns:
        ``(high_matrix, low_matrix, high_traffic_metadata)`` scaled so the
        hop-count-routed mean utilization equals the config target.
    """
    low = gravity_traffic_matrix(net.num_nodes, rng)
    if config.high_model == RANDOM_HIGH_MODEL:
        high_traffic = random_high_priority(
            low, config.high_density, config.high_fraction, rng
        )
    else:
        high_traffic = sink_high_priority(
            net,
            low,
            config.high_fraction,
            num_sinks=config.sink_count,
            num_clients=config.client_count,
            placement=config.sink_placement,
            rng=rng,
        )
    high_scaled, low_scaled = scale_to_utilization(
        net, high_traffic.matrix, low, config.target_utilization
    )
    return high_scaled, low_scaled, high_traffic


def run_comparison(
    config: ExperimentConfig, progress: Optional["ProgressFn"] = None
) -> ComparisonResult:
    """Run STR and DTR on one configuration and compare their costs.

    Both searches run through the :mod:`repro.api` strategy registry on
    one shared :class:`~repro.api.Session`.  The STR baseline runs
    first; the DTR search is seeded with the STR solution, so the DTR
    result can never be lexicographically worse — matching the paper's
    consistent ``R_H ≈ 1``, ``R_L >= 1`` findings.

    All randomness is drawn from per-config streams derived by
    :func:`derive_rng`: the traffic matrices depend only on
    ``(seed, "traffic")`` and the searches only on ``(seed, "search")``
    (plus the traffic they route), so the result is a pure function of
    ``config`` — the property the parallel campaign runner relies on for
    its serial-vs-parallel bit-identity guarantee.

    ``progress``, if given, receives ``(phase, iteration, total)``
    heartbeats from both searches.
    """
    from repro.api import Session, optimize

    session = Session.from_config(config)
    rng_search = session.derive_rng("search")
    str_result = optimize(
        session,
        strategy="str",
        params=config.search_params,
        rng=rng_search,
        relaxation_epsilons=config.relaxation_epsilons,
        progress=progress,
    )
    dtr_result = optimize(
        session,
        strategy="dtr",
        params=config.search_params,
        rng=rng_search,
        initial_high=str_result.weights,
        initial_low=str_result.weights,
        progress=progress,
    )
    return ComparisonResult(
        config=config,
        str_result=str_result,
        dtr_result=dtr_result,
        high_traffic=session.high_traffic,
        low_traffic=session.low_traffic,
    )


def sweep_utilization(
    config: ExperimentConfig, targets: Iterable[float]
) -> list[ComparisonResult]:
    """Run :func:`run_comparison` across a range of target utilizations."""
    return [
        run_comparison(replace(config, target_utilization=float(target)))
        for target in targets
    ]


def scaled_config(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    """A copy of ``config`` with proportionally scaled search budgets."""
    return replace(config, search_params=SearchParams.scaled(scale, config.search_params))
