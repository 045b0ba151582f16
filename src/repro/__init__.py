"""Dual Topology Routing (DTR) for IP service differentiation.

A full reproduction of Kwong, Guerin, Shaikh, Tao — "Improving Service
Differentiation in IP Networks through Dual Topology Routing"
(ACM CoNEXT 2007): topology generators, OSPF/ECMP routing engine,
traffic models, load-based and SLA-based lexicographic cost functions,
the STR baseline and the paper's DTR weight-search heuristic, plus an
evaluation harness that regenerates every figure and table.

Quickstart (the ``repro.api`` facade)::

    import random
    from repro import (
        Session, optimize_session,
        gravity_traffic_matrix, random_high_priority,
        isp_topology, scale_to_utilization,
    )

    rng = random.Random(7)
    net = isp_topology()
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.1, fraction=0.3, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.6)
    session = Session(net, high_tm, low_tm, cost_model="load")
    str_result = optimize_session(session, strategy="str", rng=rng)
    dtr_result = optimize_session(
        session, strategy="dtr", rng=rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )
    print(str_result.objective, dtr_result.objective)
    print(session.what_if((3, 17)).format())   # incremental what-if query

Every search runs through ``optimize_session`` (``repro.api.optimize``)
and returns one :class:`OptimizationResult`; wrap a hand-built
:class:`DualTopologyEvaluator` with ``Session.from_evaluator`` to search
on it.
"""

from repro.api import (
    OptimizationResult,
    Session,
    WhatIfResult,
    available_cost_models,
    available_strategies,
    register_cost_model,
    register_strategy,
)
from repro.api import optimize as optimize_session
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.lexicographic import LexCost
from repro.core.search_params import SearchParams
from repro.costs.fortz import fortz_cost, fortz_cost_vector
from repro.costs.joint import joint_cost
from repro.costs.load_cost import evaluate_load_cost
from repro.costs.residual import residual_capacities
from repro.costs.sla import SlaParams, evaluate_sla_cost
from repro.eval.experiment import ExperimentConfig, run_comparison
from repro.network.graph import Network
from repro.network.link import Link
from repro.network.topology_isp import isp_topology
from repro.network.topology_powerlaw import powerlaw_topology
from repro.network.topology_random import random_topology
from repro.routing.multi_topology import DualRouting, MultiTopology
from repro.routing.state import Routing
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority, sink_high_priority
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.scaling import average_utilization, scale_to_utilization

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Network",
    "Link",
    "random_topology",
    "powerlaw_topology",
    "isp_topology",
    "Routing",
    "MultiTopology",
    "DualRouting",
    "TrafficMatrix",
    "gravity_traffic_matrix",
    "random_high_priority",
    "sink_high_priority",
    "scale_to_utilization",
    "average_utilization",
    "fortz_cost",
    "fortz_cost_vector",
    "residual_capacities",
    "evaluate_load_cost",
    "evaluate_sla_cost",
    "SlaParams",
    "joint_cost",
    "LexCost",
    "SearchParams",
    "DualTopologyEvaluator",
    "ExperimentConfig",
    "run_comparison",
    "Session",
    "optimize_session",
    "OptimizationResult",
    "WhatIfResult",
    "register_strategy",
    "register_cost_model",
    "available_strategies",
    "available_cost_models",
]
