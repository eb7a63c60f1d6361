"""Simplices.

A ``k``-simplex is a set of ``k + 1`` vertices; following the paper the
vertices are stored in ascending order ``[j_0, j_1, ..., j_k]`` and that order
is kept everywhere (it fixes the signs of the boundary operator, Eqs. 1–2).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple

from repro.utils.validation import check_integer

#: Largest vertex label: complexes store their labels in int64 arrays.
MAX_LABEL = 2**63 - 1


def vertex_label(value: Any) -> int:
    """A vertex label, validated by the :func:`check_integer` rules.

    Labels are non-negative integers below ``2**63``; floats, strings and
    booleans raise ``TypeError`` rather than being truncated.
    """
    if type(value) is int and 0 <= value <= MAX_LABEL:
        return value
    return check_integer(value, "vertex label", minimum=0, maximum=MAX_LABEL)


class Simplex:
    """A simplex: its vertex labels ``v_0 < v_1 < ... < v_k``, held in ascending order.

    Immutable and hashable, and equal to any sequence or set of the same
    labels; simplices have no order among themselves.  Complexes store their
    simplices as rows of int64 arrays; a :class:`Simplex` is what their
    accessors hand out.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[int]):
        verts = tuple(sorted(vertex_label(v) for v in vertices))
        if len(verts) == 0:
            raise ValueError("A simplex needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"Simplex vertices must be distinct, got {verts}")
        self._vertices = verts

    # -- basic properties ---------------------------------------------------
    @property
    def vertices(self) -> Tuple[int, ...]:
        """The vertices in ascending order."""
        return self._vertices

    @property
    def dimension(self) -> int:
        """``k`` for a ``k``-simplex (|vertices| - 1)."""
        return len(self._vertices) - 1

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __contains__(self, vertex: int) -> bool:
        return int(vertex) in self._vertices

    # -- dunder plumbing ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Simplex):
            return self._vertices == other._vertices
        if isinstance(other, (tuple, list, frozenset, set)):
            return self._vertices == tuple(sorted(int(v) for v in other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Simplex{list(self._vertices)}"
