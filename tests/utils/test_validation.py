"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_integer,
    check_positive_integer,
    check_power_of_two,
    check_probability,
    check_square_matrix,
    check_symmetric,
)


def test_check_integer_accepts_numpy_ints():
    assert check_integer(np.int64(5), "x") == 5


def test_check_integer_rejects_bool_and_float():
    with pytest.raises(TypeError):
        check_integer(True, "x")
    with pytest.raises(TypeError):
        check_integer(2.5, "x")


def test_check_integer_bounds():
    assert check_integer(3, "x", minimum=1, maximum=5) == 3
    with pytest.raises(ValueError):
        check_integer(0, "x", minimum=1)
    with pytest.raises(ValueError):
        check_integer(9, "x", maximum=5)


def test_check_positive_integer():
    assert check_positive_integer(1, "x") == 1
    with pytest.raises(ValueError):
        check_positive_integer(0, "x")


def test_check_probability_range():
    assert check_probability(0.25, "p") == 0.25
    with pytest.raises(ValueError):
        check_probability(1.5, "p")
    with pytest.raises(ValueError):
        check_probability(float("nan"), "p")
    with pytest.raises(TypeError):
        check_probability(None, "p")


def test_check_square_matrix():
    mat = check_square_matrix([[1, 2], [3, 4]], "m")
    assert mat.shape == (2, 2)
    with pytest.raises(ValueError):
        check_square_matrix(np.zeros((2, 3)), "m")


def test_check_symmetric():
    check_symmetric(np.eye(3), "m")
    with pytest.raises(ValueError):
        check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), "m")


def test_check_symmetric_tolerance_and_non_finite_entries():
    """The exact-equality fast path accepts and rejects what the tolerance test does."""
    def off_by(delta):  # around a zero entry, where allclose's rtol adds nothing
        return np.array([[2.0, 0.0], [delta, 2.0]])

    assert check_symmetric(off_by(1e-11), "m") is not None
    with pytest.raises(ValueError):
        check_symmetric(off_by(1e-9), "m")
    for nan_matrix in ([[np.nan, 0.0], [0.0, 2.0]], [[2.0, np.nan], [np.nan, 2.0]]):
        with pytest.raises(ValueError):
            check_symmetric(np.array(nan_matrix), "m")
    for inf in (np.inf, -np.inf):
        check_symmetric(np.array([[0.0, inf], [inf, 1.0]]), "m")
        with pytest.raises(ValueError):
            check_symmetric(np.array([[0.0, inf], [-inf, 1.0]]), "m")
        with pytest.raises(ValueError):
            check_symmetric(np.array([[0.0, inf], [1.0, 1.0]]), "m")
    check_symmetric(np.array([[1.0, 1j], [-1j, 1.0]]), "m")
    with pytest.raises(ValueError):
        check_symmetric(np.array([[1.0, 1j], [1j, 1.0]]), "m")


def test_check_power_of_two():
    assert check_power_of_two(8, "n") == 8
    with pytest.raises(ValueError):
        check_power_of_two(6, "n")
