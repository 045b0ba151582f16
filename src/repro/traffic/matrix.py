"""Traffic matrix container."""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np


def check_factor(factor: float, name: str = "scale factor") -> None:
    """A ValueError naming ``factor`` unless it is a finite, non-negative multiplier."""
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {factor}")


def scale_by(values: np.ndarray, factor: float, name: str = "scale factor") -> np.ndarray:
    """``values * factor``, if ``factor`` passes :func:`check_factor` and no
    product overflows; else a ValueError that names the factor."""
    check_factor(factor, name)
    with np.errstate(over="ignore"):
        product = values * factor
    if not np.isfinite(product).all():
        raise ValueError(f"{name} must keep traffic finite, got {factor}")
    return product


class TrafficMatrix:
    """A ``|V| x |V|`` demand matrix ``[r(s, t)]`` in Mb/s.

    The diagonal is always zero (``r(s, s) = 0`` per the paper's problem
    formulation).  Instances are immutable from the outside: mutating
    operations return new matrices.
    """

    def __init__(self, demands: np.ndarray) -> None:
        demands = np.asarray(demands, dtype=float)
        if demands.ndim != 2 or demands.shape[0] != demands.shape[1]:
            raise ValueError(f"demands must be square, got shape {demands.shape}")
        if not np.isfinite(demands).all():
            raise ValueError("demands must be finite")
        if np.any(demands < 0):
            raise ValueError("demands must be non-negative")
        if np.any(np.diag(demands) != 0):
            raise ValueError("diagonal demands r(s, s) must be zero")
        self._demands = demands.copy()
        self._demands.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_nodes: int) -> "TrafficMatrix":
        """An all-zero demand matrix."""
        return cls(np.zeros((num_nodes, num_nodes)))

    @classmethod
    def from_pairs(
        cls, num_nodes: int, entries: Iterable[tuple[int, int, float]]
    ) -> "TrafficMatrix":
        """Build from ``(src, dst, rate)`` triples; repeated pairs accumulate."""
        demands = np.zeros((num_nodes, num_nodes))
        for src, dst, rate in entries:
            if src == dst:
                raise ValueError(f"demand from node {src} to itself is not allowed")
            demands[src, dst] += rate
        return cls(demands)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes the matrix spans."""
        return self._demands.shape[0]

    @property
    def demands(self) -> np.ndarray:
        """Read-only view of the demand array."""
        return self._demands

    def rate(self, src: int, dst: int) -> float:
        """Demand from ``src`` to ``dst`` in Mb/s."""
        return float(self._demands[src, dst])

    def total(self) -> float:
        """Total demand volume (the paper's η)."""
        return float(self._demands.sum())

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate non-zero ``(src, dst, rate)`` entries."""
        srcs, dsts = np.nonzero(self._demands)
        for s, t in zip(srcs.tolist(), dsts.tolist()):
            yield s, t, float(self._demands[s, t])

    def pair_count(self) -> int:
        """Number of source-destination pairs with non-zero demand."""
        return int(np.count_nonzero(self._demands))

    def density(self) -> float:
        """Fraction of the ``n(n-1)`` ordered pairs carrying demand."""
        n = self.num_nodes
        return self.pair_count() / (n * (n - 1))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "TrafficMatrix":
        """A copy with every demand multiplied by ``factor`` (finite, >= 0)."""
        return TrafficMatrix(scale_by(self._demands, factor))

    def __add__(self, other: "TrafficMatrix") -> "TrafficMatrix":
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        if other.num_nodes != self.num_nodes:
            raise ValueError("cannot add traffic matrices of different sizes")
        return TrafficMatrix(self._demands + other._demands)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self.num_nodes == other.num_nodes and np.array_equal(
            self._demands, other._demands
        )

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(nodes={self.num_nodes}, pairs={self.pair_count()}, "
            f"total={self.total():.2f} Mbps)"
        )
