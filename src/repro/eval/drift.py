"""Robustness of weight settings to traffic drift.

The paper notes DTR's extra configuration/recomputation overhead on
network changes (Section 1).  A practical mitigation is *not*
re-optimizing on every traffic shift — so it matters how well weights
tuned at one load level hold up when traffic drifts.  This module
evaluates fixed STR/DTR weight settings across scaled versions of the
traffic they were optimized for.

A drift sweep is a scenario sweep: each scale is a
:class:`~repro.scenarios.TrafficScale` scenario, and the whole sweep
rides :meth:`repro.api.Session.sweep` — the identity projection keeps
the baseline routings shared across every point, exactly the
one-routing-many-matrices structure the original direct implementation
hand-rolled, now with the engine's bit-identity contract behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session

DEFAULT_SCALES = (0.8, 0.9, 1.0, 1.1, 1.2)


@dataclass(frozen=True)
class DriftPoint:
    """Cost of a fixed weight setting at one drifted traffic level."""

    scale: float
    phi_high: float
    phi_low: float
    max_utilization: float


@dataclass(frozen=True)
class DriftReport:
    """Costs of one weight setting across a traffic-scale sweep.

    ``points[i]`` corresponds to traffic multiplied by ``scales[i]``;
    scale 1.0 is the load the weights were optimized for.
    """

    points: tuple[DriftPoint, ...]

    def point_at(self, scale: float) -> DriftPoint:
        """The drift point for an exact scale value.

        Raises:
            KeyError: if the scale was not part of the sweep.
        """
        for point in self.points:
            if point.scale == scale:
                return point
        raise KeyError(f"scale {scale} not in sweep")

    def low_cost_growth(self) -> float:
        """Ratio of the largest to the smallest Phi_L across the sweep."""
        values = [p.phi_low for p in self.points if p.phi_low > 0]
        if not values:
            return 1.0
        return max(values) / min(values)


def drift_sweep_session(
    session: "Session", scales: Sequence[float] = DEFAULT_SCALES
) -> DriftReport:
    """Evaluate a session's baseline weights across scaled traffic.

    One batched :meth:`~repro.api.Session.sweep` of
    :class:`~repro.scenarios.TrafficScale` scenarios: traffic-only
    scenarios share the baseline routings (identity projection), so the
    sweep prices each scale with a costing pass instead of a rebuild.

    Args:
        session: A session with a pinned baseline weight setting.
        scales: Multipliers applied to both matrices.

    Returns:
        A :class:`DriftReport` with one point per scale, in input order.

    Raises:
        ValueError: on an empty or non-positive scale list.
    """
    from repro.scenarios.algebra import TrafficScale

    if not scales:
        raise ValueError("need at least one scale")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    result = session.sweep(
        [TrafficScale(factor=float(scale)) for scale in scales]
    )
    return DriftReport(
        points=tuple(
            DriftPoint(
                scale=float(scale),
                phi_high=outcome.evaluation.phi_high,
                phi_low=outcome.evaluation.phi_low,
                max_utilization=outcome.evaluation.max_utilization,
            )
            for scale, outcome in zip(scales, result.outcomes)
        )
    )
