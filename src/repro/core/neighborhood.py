"""Neighborhood construction of Algorithm 2 (FindH / FindL).

Given the links sorted by decreasing cost, two candidate sets are formed:
``A`` holds ``m`` consecutive links starting at a heavy-tailed random rank
near the top (high cost — weight should *increase* to push traffic away),
and ``B`` holds ``m`` consecutive links ending at a heavy-tailed random
rank from the bottom (low cost — weight should *decrease* to attract
traffic).  Each of the ``m`` neighbors pairs one link drawn from ``A``
(without replacement) with one from ``B`` and moves both weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.rank_selection import draw_rank
from repro.core.search_params import SearchParams
from repro.routing.incremental import WeightDelta, integer_weights


def descending_high_link_order(evaluation) -> list[int]:
    """Links by decreasing FindH key ``high_link_sort_keys()``, ties by
    ascending link index: the order FindH and the STR step sample from.

    Equal to ``sorted(range(n), key=lambda i: keys[i], reverse=True)``
    over the :class:`~repro.core.lexicographic.LexCost` keys (a stable
    sort keeps equal keys in index order even reversed), computed by one
    stable ``np.lexsort`` on the negated components.
    """
    primary, secondary = evaluation.high_link_costs()
    return np.lexsort((-np.asarray(secondary), -np.asarray(primary))).tolist()


@dataclass(frozen=True)
class CandidateSets:
    """The high-cost set ``A`` and low-cost set ``B`` of one neighborhood."""

    high_cost_links: tuple[int, ...]
    low_cost_links: tuple[int, ...]


class NeighborhoodSampler:
    """Samples Algorithm-2 neighborhoods for one weight vector at a time."""

    def __init__(self, params: SearchParams, rng: random.Random) -> None:
        self._params = params
        self._rng = rng

    def candidate_sets(self, order_desc: Sequence[int]) -> CandidateSets:
        """Pick the sets ``A`` and ``B`` from a cost-descending link order.

        Args:
            order_desc: Link indices sorted by decreasing link cost
                (``L_{Pi(1)} >= L_{Pi(2)} >= ...`` in the paper's notation).

        Returns:
            The two candidate sets, each of size ``min(m, n)``.
        """
        n = len(order_desc)
        m = min(self._params.neighborhood_size, n)
        max_rank = n - m + 1
        k1 = draw_rank(max_rank, self._params.tau, self._rng)
        k2 = draw_rank(max_rank, self._params.tau, self._rng)
        high = tuple(order_desc[k1 - 1 : k1 - 1 + m])
        low = tuple(order_desc[n - k2 - j] for j in range(m))
        return CandidateSets(high_cost_links=high, low_cost_links=low)

    def neighbor_deltas(
        self, weights: np.ndarray, order_desc: Sequence[int]
    ) -> list[WeightDelta]:
        """Generate ``m`` neighbors of ``weights`` as sparse weight deltas.

        Each neighbor increases the weight of one link drawn without
        replacement from ``A`` and decreases the weight of one link drawn
        without replacement from ``B``, clamped to the weight range.  A
        move that clamps to no change on both links yields an empty delta,
        preserving the neighbor count.  Deltas are the native currency of
        the evaluator's incremental-SPF path; one step's deltas go to one
        :meth:`repro.core.evaluator.DualTopologyEvaluator.evaluate_moves`
        call, as ``(d, None)`` moves for FindH and ``(None, d)`` for FindL.
        A weight that is not an integer raises ``ValueError``, naming its link.
        """
        base = integer_weights(weights)
        sets = self.candidate_sets(order_desc)
        ups = list(sets.high_cost_links)
        downs = list(sets.low_cost_links)
        self._rng.shuffle(ups)
        self._rng.shuffle(downs)
        params = self._params
        out = []
        for up_link, down_link in zip(ups, downs):
            step_up = self._rng.choice(params.weight_steps)
            step_down = self._rng.choice(params.weight_steps)
            neighbor = np.array(base, copy=True)
            neighbor[up_link] = min(params.max_weight, neighbor[up_link] + step_up)
            neighbor[down_link] = max(params.min_weight, neighbor[down_link] - step_down)
            out.append(WeightDelta.from_weights(base, neighbor))
        return out

    def neighbors(
        self, weights: np.ndarray, order_desc: Sequence[int]
    ) -> list[np.ndarray]:
        """Generate ``m`` neighbors of ``weights`` as full weight vectors.

        Array-vector view of :meth:`neighbor_deltas` (same moves, same
        RNG stream).
        """
        base = integer_weights(weights)
        return [d.apply(base) for d in self.neighbor_deltas(base, order_desc)]

    def single_change_deltas(
        self, weights: np.ndarray, order_desc: Sequence[int]
    ) -> list[WeightDelta]:
        """Deltas changing a *single* link weight, no-op moves dropped.

        Used by the STR baseline ("single weight change" heuristic of
        Fortz-Thorup): links from ``A`` get an increase, links from ``B``
        a decrease, one change per neighbor.  A weight that is not an
        integer raises ``ValueError``, naming its link.
        """
        base = integer_weights(weights)
        sets = self.candidate_sets(order_desc)
        params = self._params
        out = []
        for link, direction in [(l, +1) for l in sets.high_cost_links] + [
            (l, -1) for l in sets.low_cost_links
        ]:
            step = self._rng.choice(params.weight_steps) * direction
            new_weight = int(
                np.clip(base[link] + step, params.min_weight, params.max_weight)
            )
            if new_weight != base[link]:
                out.append(WeightDelta.single(link, int(base[link]), new_weight))
        return out
