"""Cost functions: Fortz-Thorup load cost, SLA penalty, and joint cost.

Implements the paper's Section 3: the piecewise-linear load cost Phi
(Eq. 1), the residual-capacity model ``C~ = max(C - H, 0)`` induced by
strict priority queueing, the load-based objective ``A = <Phi_H, Phi_L>``
(Eq. 2), the SLA delay model (Eq. 3) with penalty ``Lambda`` (Eq. 4) and
objective ``S = <Lambda, Phi_L>`` (Eq. 5), and the joint scalar cost
``J = alpha * Phi_H + Phi_L`` discussed in Section 3.3.1.  Every
evaluation path prices through :mod:`repro.costs.pricing`: the high
class against full capacity, then the low class against the residual.
"""

from repro.costs.fortz import (
    FORTZ_SEGMENTS,
    fortz_cost,
    fortz_cost_vector,
    fortz_segment_index,
)
from repro.costs.residual import residual_capacities
from repro.costs.load_cost import LoadCostEvaluation, evaluate_load_cost
from repro.costs.sla import SlaCostEvaluation, SlaParams, evaluate_sla_cost, link_delays_ms
from repro.costs.pricing import LOAD_MODE, SLA_MODE, Evaluation, HighPrice, price_high
from repro.costs.joint import joint_cost

__all__ = [
    "FORTZ_SEGMENTS",
    "fortz_cost",
    "fortz_cost_vector",
    "fortz_segment_index",
    "residual_capacities",
    "LoadCostEvaluation",
    "evaluate_load_cost",
    "SlaParams",
    "SlaCostEvaluation",
    "evaluate_sla_cost",
    "link_delays_ms",
    "LOAD_MODE",
    "SLA_MODE",
    "Evaluation",
    "HighPrice",
    "price_high",
    "joint_cost",
]
