"""SLA-aware routing on the ISP backbone (paper Section 3.2 / Fig. 9 setting).

High-priority customers have a 25 ms end-to-end delay SLA between city
pairs.  The script optimizes STR and DTR under the SLA-based objective
S = <Lambda, Phi_L> and reports, per scheme: the SLA penalty, the number
of violating city pairs (with names), the worst pair delay, and the
low-priority load cost.

Run:  python examples/sla_aware_backbone.py
"""

import random

from repro import (
    SearchParams,
    Session,
    SlaParams,
    gravity_traffic_matrix,
    isp_topology,
    optimize_session,
    random_high_priority,
    scale_to_utilization,
)
from repro.network.topology_isp import isp_city_name


def describe(label: str, evaluation) -> None:
    print(f"\n{label}:")
    print(f"  SLA penalty Lambda : {evaluation.penalty:.1f}")
    print(f"  violating pairs    : {evaluation.violations}")
    print(f"  worst pair delay   : {evaluation.worst_delay_ms:.2f} ms")
    print(f"  low-priority Phi_L : {evaluation.phi_low:.3e}")
    print(f"  max link util      : {evaluation.max_utilization:.2f}")
    violators = sorted(
        (
            (delay, pair)
            for pair, delay in evaluation.pair_delays_ms.items()
            if delay > evaluation.params.theta_ms
        ),
        reverse=True,
    )
    for delay, (s, t) in violators[:5]:
        print(f"    {isp_city_name(s)} -> {isp_city_name(t)}: {delay:.2f} ms")


def main() -> None:
    rng = random.Random(11)
    net = isp_topology()
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.30, fraction=0.30, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.55)

    sla = SlaParams(theta_ms=25.0)
    session = Session(net, high_tm, low_tm, cost_model="sla", sla_params=sla)
    params = SearchParams.scaled(0.3)

    print(f"SLA bound: {sla.theta_ms} ms, penalty a={sla.penalty_const}, b={sla.penalty_per_ms}/ms")
    print(f"{high_tm.pair_count()} high-priority city pairs")

    str_result = optimize_session(session, strategy="str", params=params, rng=rng)
    describe("STR (single topology)", str_result.evaluation)

    dtr_result = optimize_session(
        session,
        strategy="dtr",
        params=params,
        rng=rng,
        initial_high=str_result.weights,
        initial_low=str_result.weights,
    )
    describe("DTR (dual topology)", dtr_result.evaluation)

    gap = str_result.evaluation.phi_low / max(dtr_result.evaluation.phi_low, 1e-9)
    print(f"\nlow-priority cost ratio R_L = {gap:.2f}")
    print("High-priority SLAs are untouched; low-priority traffic breathes again.")


if __name__ == "__main__":
    main()
