"""Tests for the Simplex value object."""

import numpy as np
import pytest

from repro.tda.simplex import Simplex


def test_vertices_sorted_ascending():
    assert Simplex([3, 1, 2]).vertices == (1, 2, 3)


def test_dimension():
    assert Simplex([0]).dimension == 0
    assert Simplex([0, 1]).dimension == 1
    assert Simplex([0, 1, 2, 3]).dimension == 3


def test_invalid_simplices_rejected():
    with pytest.raises(ValueError):
        Simplex([])
    with pytest.raises(ValueError):
        Simplex([1, 1])
    with pytest.raises(ValueError):
        Simplex([-1, 0])


@pytest.mark.parametrize("label", [0.9, 1.0, "0", True, None])
def test_labels_follow_the_integer_rules(label):
    """Labels are not coerced: ``int(0.9)`` would silently become vertex 0."""
    with pytest.raises(TypeError, match="vertex label"):
        Simplex([label, 5])


def test_labels_must_fit_int64():
    assert Simplex([2**63 - 1]).vertices == (2**63 - 1,)
    assert Simplex([np.int64(3), np.uint8(1)]).vertices == (1, 3)
    with pytest.raises(ValueError, match="vertex label"):
        Simplex([2**63])
    with pytest.raises(ValueError, match="vertex label"):
        Simplex([10**30])


def test_equality_with_tuples_and_hashing():
    assert Simplex([2, 0]) == (0, 2)
    assert Simplex([0, 2]) in {Simplex([0, 2])}


def test_contains_and_iter():
    s = Simplex([1, 3])
    assert 3 in s and 2 not in s
    assert list(s) == [1, 3]
    assert len(s) == 2


def test_simplices_have_no_order():
    """Complexes order their simplices by rank arrays, so Simplex defines no ``<``."""
    with pytest.raises(TypeError):
        sorted([Simplex([1, 2]), Simplex([0])])
