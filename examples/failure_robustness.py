"""Failure robustness: do DTR's gains survive a link failure?

Optimizes STR and DTR on the intact ISP backbone, then replays both
weight settings — unchanged, as deployed OSPF/MT-OSPF would — under every
single-adjacency failure, and reports the worst failures by low-priority
cost.

Run:  python examples/failure_robustness.py
"""

import random

from repro import (
    SearchParams,
    Session,
    gravity_traffic_matrix,
    isp_topology,
    optimize_session,
    random_high_priority,
    scale_to_utilization,
)
from repro.eval.robustness import failure_sweep_session
from repro.network.topology_isp import isp_city_name


def main() -> None:
    rng = random.Random(23)
    net = isp_topology()
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.10, fraction=0.30, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.55)

    session = Session(net, high_tm, low_tm, cost_model="load")
    params = SearchParams.scaled(0.25)
    str_result = optimize_session(session, strategy="str", params=params, rng=rng)
    dtr_result = optimize_session(
        session, strategy="dtr", params=params, rng=rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )

    print("single-adjacency failure sweep over the 35 ISP adjacencies\n")
    reports = {}
    for label, result in (("STR", str_result), ("DTR", dtr_result)):
        session.set_weights(result.high_weights, result.low_weights)
        reports[label] = failure_sweep_session(session)
    for label, report in reports.items():
        print(f"{label}:")
        print(f"  intact   Phi_L = {report.baseline.phi_low:.3e}")
        print(f"  mean     Phi_L = {report.mean_phi_low:.3e}")
        print(f"  worst    Phi_L = {report.worst_phi_low:.3e}"
              f"  ({report.degradation_factor():.1f}x the intact cost)")
        worst = sorted(report.outcomes, key=lambda o: -o.phi_low)[:3]
        for outcome in worst:
            u, v = outcome.failed_pair
            print(
                f"    losing {isp_city_name(u)}--{isp_city_name(v)}: "
                f"Phi_L = {outcome.phi_low:.3e}, max util = {outcome.max_utilization:.2f}"
            )
        print()

    gain_intact = reports["STR"].baseline.phi_low / reports["DTR"].baseline.phi_low
    gain_mean = reports["STR"].mean_phi_low / reports["DTR"].mean_phi_low
    print(f"DTR advantage: {gain_intact:.2f}x intact, {gain_mean:.2f}x averaged over failures")


if __name__ == "__main__":
    main()
