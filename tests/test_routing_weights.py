"""Tests for link-weight helpers."""

import random

import numpy as np
import pytest

from repro.routing.weights import (
    MAX_WEIGHT,
    MIN_WEIGHT,
    as_weight_array,
    random_weights,
    unit_weights,
    validate_weights,
    weights_key,
)


def test_paper_weight_range():
    assert MIN_WEIGHT == 1
    assert MAX_WEIGHT == 30


def test_unit_weights():
    w = unit_weights(5)
    assert w.shape == (5,)
    assert np.all(w == 1)
    assert w.dtype == np.int64


def test_random_weights_in_range():
    w = random_weights(1000, random.Random(1))
    assert np.all(w >= MIN_WEIGHT)
    assert np.all(w <= MAX_WEIGHT)
    assert len(np.unique(w)) > 5


def test_random_weights_custom_range():
    w = random_weights(100, random.Random(2), min_weight=3, max_weight=4)
    assert set(np.unique(w)) <= {3, 4}


def test_random_weights_invalid_range():
    with pytest.raises(ValueError):
        random_weights(10, min_weight=5, max_weight=3)
    with pytest.raises(ValueError):
        random_weights(10, min_weight=0, max_weight=3)


def test_as_weight_array_validates_shape():
    with pytest.raises(ValueError, match="expected 3"):
        as_weight_array([1, 2], 3)


def test_as_weight_array_rejects_non_integers():
    with pytest.raises(ValueError, match="integers"):
        as_weight_array([1.5, 2, 3], 3)


def test_as_weight_array_rejects_non_numbers():
    """Outside input (a JSON body) gets a ValueError, never a TypeError."""
    for bad in (["1", "2", "3"], [1, None, 3]):
        with pytest.raises(ValueError, match="numbers"):
            as_weight_array(bad, 3)


def test_as_weight_array_accepts_integral_floats():
    w = as_weight_array([1.0, 2.0, 3.0], 3)
    assert w.dtype == np.int64
    assert list(w) == [1, 2, 3]


def test_as_weight_array_read_only():
    w = as_weight_array([1, 2, 3], 3)
    with pytest.raises(ValueError):
        w[0] = 9


def test_validate_weights_bounds():
    validate_weights(np.array([1, 30]))
    with pytest.raises(ValueError, match=">="):
        validate_weights(np.array([0, 5]))
    with pytest.raises(ValueError, match="<="):
        validate_weights(np.array([1, 31]))


def test_weights_key_distinguishes_vectors():
    a = weights_key(np.array([1, 2, 3], dtype=np.int64))
    b = weights_key(np.array([1, 2, 4], dtype=np.int64))
    c = weights_key(np.array([1, 2, 3], dtype=np.int64))
    assert a != b
    assert a == c
