"""Link-weight vectors and helpers.

The paper restricts link weights to integers in ``[1, 30]`` (Section 5.1.3),
"a trade-off between the effectiveness of the resulting routing solutions
and computational complexity".
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Union

import numpy as np

from repro.determinism import default_rng

MIN_WEIGHT = 1
"""Smallest allowed link weight."""

MAX_WEIGHT = 30
"""Largest allowed link weight (paper Section 5.1.3)."""

WeightsLike = Union[np.ndarray, Iterable[float]]


def as_weight_array(weights: WeightsLike, num_links: int) -> np.ndarray:
    """Coerce ``weights`` to a validated, read-only integer numpy vector."""
    arr = np.asarray(weights)
    if arr.shape != (num_links,):
        raise ValueError(f"expected {num_links} weights, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ValueError("link weights must be numbers")
    if not np.all(np.equal(np.mod(arr, 1), 0)):
        raise ValueError("link weights must be integers")
    arr = arr.astype(np.int64)
    validate_weights(arr)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def validate_weights(weights: np.ndarray, max_weight: int = MAX_WEIGHT) -> None:
    """Check all weights lie in ``[MIN_WEIGHT, max_weight]``.

    Raises:
        ValueError: on any out-of-range weight.
    """
    if np.any(weights < MIN_WEIGHT):
        raise ValueError(f"link weights must be >= {MIN_WEIGHT}")
    if np.any(weights > max_weight):
        raise ValueError(f"link weights must be <= {max_weight}")


def unit_weights(num_links: int) -> np.ndarray:
    """All-ones weight vector (pure hop-count routing)."""
    return np.ones(num_links, dtype=np.int64)


def random_weights(
    num_links: int,
    rng: Optional[random.Random] = None,
    min_weight: int = MIN_WEIGHT,
    max_weight: int = MAX_WEIGHT,
) -> np.ndarray:
    """Uniform random integer weights in ``[min_weight, max_weight]``."""
    if min_weight < MIN_WEIGHT or max_weight < min_weight:
        raise ValueError(f"invalid weight range [{min_weight}, {max_weight}]")
    rng = rng or default_rng("routing/weights")
    return np.array(
        [rng.randint(min_weight, max_weight) for _ in range(num_links)], dtype=np.int64
    )


def weights_key(weights: np.ndarray) -> bytes:
    """Hashable identity of a weight vector, for caching."""
    return np.ascontiguousarray(weights, dtype=np.int64).tobytes()
