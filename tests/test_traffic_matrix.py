"""Tests for the TrafficMatrix container."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.matrix import TrafficMatrix


def test_zeros():
    tm = TrafficMatrix.zeros(4)
    assert tm.num_nodes == 4
    assert tm.total() == 0.0
    assert tm.pair_count() == 0
    assert list(tm.pairs()) == []


def test_from_pairs_accumulates():
    tm = TrafficMatrix.from_pairs(3, [(0, 1, 2.0), (0, 1, 3.0), (2, 0, 1.0)])
    assert tm.rate(0, 1) == 5.0
    assert tm.rate(2, 0) == 1.0
    assert tm.total() == 6.0
    assert tm.pair_count() == 2


def test_from_pairs_rejects_self_demand():
    with pytest.raises(ValueError, match="itself"):
        TrafficMatrix.from_pairs(3, [(1, 1, 2.0)])


def test_nonzero_diagonal_rejected():
    demands = np.ones((3, 3))
    with pytest.raises(ValueError, match="diagonal"):
        TrafficMatrix(demands)


def test_negative_rejected():
    demands = np.zeros((3, 3))
    demands[0, 1] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        TrafficMatrix(demands)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        TrafficMatrix([[0.0, bad], [1.0, 0.0]])


@pytest.mark.parametrize(
    "factor, message",
    (
        (np.nan, "must be finite and non-negative"),
        (np.inf, "must be finite and non-negative"),
        (-1.0, "must be finite and non-negative"),
        (1e308, "must keep traffic finite, got 1e"),  # the product overflows
    ),
)
def test_scaled_rejects_negative_and_non_finite_factors(factor, message):
    tm = TrafficMatrix.from_pairs(2, [(0, 1, 2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^scale factor {message}"):
            tm.scaled(factor)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        TrafficMatrix(np.zeros((2, 3)))


def test_demands_are_read_only():
    tm = TrafficMatrix.from_pairs(3, [(0, 1, 2.0)])
    with pytest.raises(ValueError):
        tm.demands[0, 1] = 5.0


def test_input_array_not_aliased():
    demands = np.zeros((3, 3))
    demands[0, 1] = 1.0
    tm = TrafficMatrix(demands)
    demands[0, 1] = 99.0
    assert tm.rate(0, 1) == 1.0


def test_pairs_iteration_order_and_values():
    tm = TrafficMatrix.from_pairs(3, [(2, 1, 4.0), (0, 2, 1.5)])
    assert sorted(tm.pairs()) == [(0, 2, 1.5), (2, 1, 4.0)]


def test_density():
    tm = TrafficMatrix.from_pairs(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
    assert tm.density() == pytest.approx(3 / 6)


def test_scaled():
    tm = TrafficMatrix.from_pairs(3, [(0, 1, 2.0)])
    doubled = tm.scaled(2.0)
    assert doubled.rate(0, 1) == 4.0
    assert tm.rate(0, 1) == 2.0
    assert tm.scaled(0.0).total() == 0.0


def test_scaled_negative_rejected():
    with pytest.raises(ValueError):
        TrafficMatrix.zeros(3).scaled(-1.0)


def test_addition():
    a = TrafficMatrix.from_pairs(3, [(0, 1, 1.0)])
    b = TrafficMatrix.from_pairs(3, [(0, 1, 2.0), (1, 2, 3.0)])
    c = a + b
    assert c.rate(0, 1) == 3.0
    assert c.rate(1, 2) == 3.0


def test_addition_size_mismatch_rejected():
    with pytest.raises(ValueError, match="different sizes"):
        TrafficMatrix.zeros(3) + TrafficMatrix.zeros(4)


def test_equality():
    a = TrafficMatrix.from_pairs(3, [(0, 1, 1.0)])
    b = TrafficMatrix.from_pairs(3, [(0, 1, 1.0)])
    c = TrafficMatrix.from_pairs(3, [(0, 1, 2.0)])
    assert a == b
    assert a != c


def test_repr():
    tm = TrafficMatrix.from_pairs(3, [(0, 1, 1.0)])
    assert "pairs=1" in repr(tm)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 4),
            st.floats(0.0, 1e6, allow_nan=False),
        ).filter(lambda e: e[0] != e[1]),
        max_size=20,
    ),
    st.floats(0.0, 100.0, allow_nan=False),
)
def test_scaling_scales_total(entries, factor):
    tm = TrafficMatrix.from_pairs(5, entries)
    assert tm.scaled(factor).total() == pytest.approx(tm.total() * factor, rel=1e-9, abs=1e-9)
