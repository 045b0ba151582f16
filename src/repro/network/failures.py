"""Link-failure modeling.

The related work the paper builds on (Nucci et al. [5], the MTR-resilience
line [7-9]) evaluates weight settings under link failures: when a link (in
IP practice, a whole duplex adjacency) fails, OSPF re-floods and every
router re-runs SPF over the surviving links with *unchanged* weights.
This module produces those degraded networks and weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.network.graph import Network


@dataclass(frozen=True)
class FailureScenario:
    """A degraded network after one duplex adjacency failed.

    Attributes:
        failed_pair: The ``(u, v)`` adjacency that failed (``u < v``).
        network: The surviving network (both directions removed).
        surviving_links: Original link indices that survive, in the order
            they appear in the degraded network.
    """

    failed_pair: tuple[int, int]
    network: Network
    surviving_links: tuple[int, ...]

    def project_weights(self, weights: Sequence[int]) -> np.ndarray:
        """Restrict a full weight vector to the surviving links."""
        weights = np.asarray(weights)
        return weights[list(self.surviving_links)]

    def project_loads_back(self, loads: np.ndarray, num_links: int) -> np.ndarray:
        """Expand degraded-network loads to full link indexing (failed links = 0).

        Args:
            loads: Per-link loads over the degraded network.
            num_links: Link count of the original intact network.
        """
        if len(loads) != len(self.surviving_links):
            raise ValueError(
                f"expected {len(self.surviving_links)} loads, got {len(loads)}"
            )
        full = np.zeros(num_links)
        full[list(self.surviving_links)] = loads
        return full


def remove_adjacency(net: Network, u: int, v: int) -> FailureScenario:
    """Build the network that survives the failure of adjacency ``(u, v)``.

    Raises:
        ValueError: if the adjacency does not exist in both directions.
    """
    if not (net.has_link(u, v) and net.has_link(v, u)):
        raise ValueError(f"no duplex adjacency between {u} and {v}")
    keep = np.ones(net.num_links, dtype=bool)
    keep[[net.link_between(u, v).index, net.link_between(v, u).index]] = False
    return FailureScenario(
        failed_pair=(min(u, v), max(u, v)),
        network=net.sub_network(keep, name=f"{net.name}-fail-{u}-{v}"),
        surviving_links=tuple(np.flatnonzero(keep).tolist()),
    )


def single_failure_scenarios(
    net: Network, require_connected: bool = True
) -> Iterator[FailureScenario]:
    """Yield one :class:`FailureScenario` per duplex adjacency.

    Args:
        net: The intact network.
        require_connected: Skip failures that disconnect the network
            (traffic to/from the cut-off part cannot be routed at all, so
            cost comparisons are not meaningful there).
    """
    for u, v in net.duplex_pairs():
        scenario = remove_adjacency(net, u, v)
        if require_connected and not scenario.network.is_strongly_connected():
            continue
        yield scenario


def count_critical_adjacencies(net: Network) -> int:
    """Number of duplex adjacencies whose failure disconnects the network."""
    critical = 0
    for u, v in net.duplex_pairs():
        if not remove_adjacency(net, u, v).network.is_strongly_connected():
            critical += 1
    return critical
