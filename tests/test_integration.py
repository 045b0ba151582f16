"""End-to-end integration tests of the paper's headline claims.

Uses small-but-meaningful budgets on the ISP backbone so that the suite
verifies actual optimization behavior, not just plumbing.
"""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.costs.sla import SlaParams
from repro.network.topology_isp import isp_topology
from repro.routing.multi_topology import DualRouting
from repro.traffic.gravity import gravity_traffic_matrix
from repro.traffic.highpriority import random_high_priority
from repro.traffic.scaling import scale_to_utilization

PARAMS = SearchParams(
    iterations_high=40,
    iterations_low=40,
    iterations_refine=60,
    diversification_interval=15,
)


@pytest.fixture(scope="module")
def pipeline():
    net = isp_topology()
    rng = random.Random(2024)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.1, fraction=0.3, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.65)
    evaluator = DualTopologyEvaluator(net, high_tm, low_tm, mode="load")
    session = Session.from_evaluator(evaluator)
    str_result = optimize(session, "str", PARAMS, rng=random.Random(1))
    dtr_result = optimize(
        session,
        "dtr",
        PARAMS,
        rng=random.Random(1),
        initial_high=str_result.weights,
        initial_low=str_result.weights,
    )
    return net, evaluator, str_result, dtr_result


def test_high_priority_never_sacrificed(pipeline):
    """Paper headline: DTR improves low priority at no high-priority cost."""
    _, _, str_result, dtr_result = pipeline
    assert dtr_result.evaluation.phi_high <= str_result.evaluation.phi_high + 1e-9


def test_low_priority_substantially_improved(pipeline):
    """R_L must exceed 1; on a moderately loaded network, clearly so."""
    _, _, str_result, dtr_result = pipeline
    ratio_low = str_result.evaluation.phi_low / dtr_result.evaluation.phi_low
    assert ratio_low > 1.05


def test_dtr_reduces_overloaded_links(pipeline):
    """The paper's Fig. 3 effect: DTR leaves fewer overloaded links."""
    _, _, str_result, dtr_result = pipeline
    str_overloaded = np.count_nonzero(str_result.evaluation.utilization > 1.0)
    dtr_overloaded = np.count_nonzero(dtr_result.evaluation.utilization > 1.0)
    assert dtr_overloaded <= str_overloaded


def test_forwarding_consistent_with_costs(pipeline):
    """Replaying the found weights through DualRouting reproduces loads."""
    net, evaluator, _, dtr_result = pipeline
    dual = DualRouting(net, dtr_result.high_weights, dtr_result.low_weights)
    high_loads = dual.link_loads("high", evaluator.high_traffic)
    low_loads = dual.link_loads("low", evaluator.low_traffic)
    np.testing.assert_allclose(high_loads, dtr_result.evaluation.high_loads)
    np.testing.assert_allclose(low_loads, dtr_result.evaluation.low_loads)


def test_sla_relaxation_narrows_gap():
    """The paper's Fig. 9 effect: a looser theta lets STR catch up."""
    net = isp_topology()
    rng = random.Random(77)
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.3, fraction=0.3, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.5)

    def gap(theta_ms: float) -> float:
        session = Session.from_evaluator(
            DualTopologyEvaluator(
                net, high_tm, low_tm, mode="sla", sla_params=SlaParams(theta_ms=theta_ms)
            )
        )
        str_result = optimize(session, "str", PARAMS, rng=random.Random(5))
        dtr_result = optimize(
            session,
            "dtr",
            PARAMS,
            rng=random.Random(5),
            initial_high=str_result.weights,
            initial_low=str_result.weights,
        )
        return str_result.evaluation.phi_low / max(dtr_result.evaluation.phi_low, 1e-9)

    tight = gap(25.0)
    loose = gap(40.0)
    assert loose <= tight * 1.5


def test_lexicographic_paper_semantics(pipeline):
    """Verifies objective ordering is <Phi_H, Phi_L> as in Eq. 2."""
    _, _, str_result, dtr_result = pipeline
    assert dtr_result.objective.primary == dtr_result.evaluation.phi_high
    assert dtr_result.objective.secondary == dtr_result.evaluation.phi_low
    assert dtr_result.objective <= str_result.objective
