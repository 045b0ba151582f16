"""Shortest-path (OSPF-style) routing engine with ECMP splitting.

This package is the destination-based SPF forwarding substrate the paper
assumes: given a link-weight vector, traffic between each source-destination
pair follows all shortest paths, splitting evenly at every node over the
outgoing links that lie on a shortest path (the standard OSPF/ECMP load
model of Fortz-Thorup).  :class:`~repro.routing.state.Routing` snapshots one
weight setting; :class:`~repro.routing.multi_topology.MultiTopology` holds
several (the MTR substrate, of which dual-topology routing is the
two-topology case).
"""

from repro.routing.spf import (
    RoutingError,
    distances_to_all,
    distances_to_subset,
    distances_to_subsets_batched,
    shortest_path_dag_mask,
    shortest_path_dag_masks,
)
from repro.routing.soa import (
    DestinationDag,
    Schedule,
    accumulate_rows,
    build_destination_dags,
    build_schedule,
)
from repro.routing.state import Routing
from repro.routing.incremental import (
    WeightDelta,
    affected_destinations,
    derive_children,
    derive_routing,
)
from repro.routing.multi_topology import DualRouting, MultiTopology
from repro.routing.forwarding import (
    ForwardingTable,
    PacketTrace,
    build_forwarding_table,
    empirical_link_usage,
    trace_many,
    trace_packet,
)
from repro.routing.weights import (
    MAX_WEIGHT,
    MIN_WEIGHT,
    as_weight_array,
    unit_weights,
    random_weights,
    validate_weights,
)

__all__ = [
    "ForwardingTable",
    "PacketTrace",
    "build_forwarding_table",
    "trace_packet",
    "trace_many",
    "empirical_link_usage",
    "Routing",
    "MultiTopology",
    "DualRouting",
    "RoutingError",
    "distances_to_all",
    "distances_to_subset",
    "distances_to_subsets_batched",
    "shortest_path_dag_mask",
    "shortest_path_dag_masks",
    "DestinationDag",
    "Schedule",
    "accumulate_rows",
    "build_destination_dags",
    "build_schedule",
    "WeightDelta",
    "affected_destinations",
    "derive_children",
    "derive_routing",
    "as_weight_array",
    "unit_weights",
    "random_weights",
    "validate_weights",
    "MIN_WEIGHT",
    "MAX_WEIGHT",
]
