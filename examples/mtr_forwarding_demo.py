"""Multi-topology forwarding demo: per-class paths through the backbone.

After a DTR optimization the two traffic classes follow different paths
between the same cities — exactly what RFC 4915 multi-topology routers do
with per-topology link metrics.  This script optimizes a small instance
and prints, for a few city pairs, the shortest paths each class uses and
the weight differences that cause the divergence.

Run:  python examples/mtr_forwarding_demo.py
"""

import random

from repro import (
    DualRouting,
    SearchParams,
    Session,
    gravity_traffic_matrix,
    isp_topology,
    optimize_session,
    random_high_priority,
    scale_to_utilization,
)
from repro.network.topology_isp import isp_city_name


def path_names(path: list[int]) -> str:
    return " -> ".join(isp_city_name(node) for node in path)


def main() -> None:
    rng = random.Random(5)
    net = isp_topology()
    low = gravity_traffic_matrix(net.num_nodes, rng)
    high = random_high_priority(low, density=0.15, fraction=0.30, rng=rng)
    high_tm, low_tm = scale_to_utilization(net, high.matrix, low, 0.7)

    session = Session(net, high_tm, low_tm, cost_model="load")
    params = SearchParams.scaled(0.25)
    str_result = optimize_session(session, strategy="str", params=params, rng=rng)
    dtr_result = optimize_session(
        session, strategy="dtr", params=params, rng=rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )

    dual = DualRouting(net, dtr_result.high_weights, dtr_result.low_weights)
    differing = [
        link
        for link in net.links
        if dtr_result.high_weights[link.index] != dtr_result.low_weights[link.index]
    ]
    print(f"links with class-specific weights: {len(differing)}/{net.num_links}")

    shown = 0
    for s, t, _rate in high_tm.pairs():
        high_paths = dual.high.all_shortest_paths(s, t, limit=50)
        low_paths = dual.low.all_shortest_paths(s, t, limit=50)
        if high_paths == low_paths:
            continue
        print(f"\n{isp_city_name(s)} -> {isp_city_name(t)}")
        print(f"  high-priority topology ({len(high_paths)} ECMP path(s)):")
        for path in high_paths[:3]:
            print(f"    {path_names(path)}")
        print(f"  low-priority topology ({len(low_paths)} ECMP path(s)):")
        for path in low_paths[:3]:
            print(f"    {path_names(path)}")
        shown += 1
        if shown == 4:
            break

    if shown == 0:
        print("all class paths coincide at this load; try a higher utilization")
    else:
        print(
            "\nlow-priority flows detour around the links the high-priority "
            "class fills; the priority queue then guarantees precedence on "
            "any link they still share."
        )


if __name__ == "__main__":
    main()
