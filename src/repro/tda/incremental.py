"""Incremental sliding-window geometry: distance and flag-complex deltas.

The Section 5 workload slides a window over one long time series; adjacent
windows share almost all of their embedded points, yet the batch path
recomputes every window's distance matrix and Vietoris–Rips complex from
scratch.  This module maintains both under *point enter/leave* instead:

- :class:`SlidingDistanceMatrix` evicts the leaving points' rows/columns and
  computes only the entering points' distances (two ``cdist`` cross blocks
  plus a small corner), reproducing
  :func:`repro.tda.distances.pairwise_distances` bit for bit;
- :class:`IncrementalFlagComplex` patches the previous
  :class:`repro.tda.rips.FlagComplexArrays` with a
  :class:`FlagComplexDelta` — simplices destroyed by leaving points, created
  by entering ones — instead of re-enumerating, preserving the exact
  lexicographic row order of :func:`repro.tda.rips.flag_complex_arrays`.

Index convention (the sliding-window case): leaving points always take the
*lowest* indices ``0..leave-1`` and entering points are appended at the
*highest* indices.  Surviving simplices then shift by ``-leave`` and stay
lexicographically sorted; destroyed simplices are exactly those containing a
vertex ``< leave`` (testable on the minimum vertex, column 0); created
simplices are exactly those whose *maximum* vertex is an entering point.
Order-preserving ``searchsorted`` merges splice created simplices into the
survivors, so the patched arrays are bit-identical to a from-scratch
enumeration — the invariant the property suite pins down.

A full window replacement (``leave == num_points``) degenerates to a
from-scratch build through the same code path, so callers whose stride does
not map onto point enter/leave (see DESIGN.md §13) can fall back without a
second implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from repro.tda.distances import MetricLike, pairwise_distances
from repro.tda.rips import FlagComplexArrays, flag_complex_arrays
from repro.utils.validation import check_integer

__all__ = [
    "SlidingDistanceMatrix",
    "FlagComplexDelta",
    "IncrementalFlagComplex",
]

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY_TRIANGLES = np.zeros((0, 3), dtype=np.int64)


class SlidingDistanceMatrix:
    """A pairwise-distance matrix maintained under point enter/leave.

    ``advance(leave, new_points)`` drops the first ``leave`` points, appends
    ``new_points`` at the end, and computes only the new cross distances.
    The maintained matrix is **bit-identical** to
    ``pairwise_distances(current_points)``: the retained block is carried
    over unchanged, and the new blocks apply the same per-pair ``cdist``
    evaluations and ``(d + dᵀ) / 2`` symmetrisation (IEEE addition is
    commutative, so both triangles agree exactly).

    Examples
    --------
    >>> import numpy as np
    >>> sdm = SlidingDistanceMatrix(np.array([[0.0], [1.0], [3.0]]))
    >>> dist = sdm.advance(1, np.array([[6.0]]))
    >>> np.array_equal(dist, pairwise_distances(np.array([[1.0], [3.0], [6.0]])))
    True
    """

    def __init__(self, points: np.ndarray, metric: MetricLike = "euclidean"):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        self._metric = metric
        self._points = pts
        self._dist = pairwise_distances(pts, metric=metric)

    @property
    def num_points(self) -> int:
        return int(self._points.shape[0])

    @property
    def points(self) -> np.ndarray:
        """The current point set, one row per point (do not mutate)."""
        return self._points

    @property
    def distances(self) -> np.ndarray:
        """The current distance matrix (do not mutate)."""
        return self._dist

    def advance(self, leave: int, new_points: np.ndarray) -> np.ndarray:
        """Drop the first ``leave`` points, append ``new_points``; new matrix.

        Only the entering points' distances are computed: an ``(e, keep)``
        cross block (symmetrised against its transpose evaluation, exactly
        like :func:`pairwise_distances` does for the full matrix) and an
        ``(e, e)`` corner with a forced-zero diagonal.  Cost is
        ``O(e · n · m)`` instead of ``O(n² · m)``.
        """
        n = self.num_points
        leave = check_integer(leave, "leave", minimum=0)
        if leave > n:
            raise ValueError(f"cannot drop {leave} of {n} points")
        new = np.asarray(new_points, dtype=float)
        if new.ndim == 1:
            new = new[:, None]
        if new.ndim != 2:
            raise ValueError(f"new_points must be a 2-D array, got shape {new.shape}")
        keep = n - leave
        kept = self._points[leave:]
        entering = new.shape[0]
        if keep and entering and new.shape[1] != self._points.shape[1]:
            raise ValueError(
                f"new points have dimension {new.shape[1]}, existing points {self._points.shape[1]}"
            )
        n_new = keep + entering
        out = np.empty((n_new, n_new), dtype=float)
        out[:keep, :keep] = self._dist[leave:, leave:]
        if entering:
            if keep:
                # Same per-pair evaluations and addition order as the full
                # (dist + dist.T) / 2 symmetrisation restricted to this block.
                cross = (
                    cdist(new, kept, metric=self._metric)
                    + cdist(kept, new, metric=self._metric).T
                ) / 2.0
                out[keep:, :keep] = cross
                out[:keep, keep:] = cross.T
            corner = cdist(new, new, metric=self._metric)
            corner = (corner + corner.T) / 2.0
            np.fill_diagonal(corner, 0.0)
            out[keep:, keep:] = corner
        self._points = np.concatenate([kept, new], axis=0) if entering else kept.copy()
        self._dist = out
        return out


@dataclass(frozen=True)
class FlagComplexDelta:
    """The simplex-level diff of one :meth:`IncrementalFlagComplex.advance`.

    Destroyed simplices carry *old* vertex labels, created ones *new* labels
    (after the ``-leave_count`` shift).  The ``*_changed`` flags compare the
    patched arrays against the previous ones **by content** — on a bitwise
    periodic stream a window advance can destroy and create simplices yet
    land on identical arrays, and the flags (not the counts) are what decide
    operator/fingerprint reuse downstream (DESIGN.md §13):

    - ``Δ_0`` depends on the vertex count and the edge array,
    - ``Δ_1`` and ``Δ_2`` depend on the edge and triangle arrays.
    """

    num_points_before: int
    num_points_after: int
    leave_count: int
    enter_count: int
    edges_destroyed: np.ndarray      # (D_1, 2) int64, old labels
    edges_created: np.ndarray        # (C_1, 2) int64, new labels
    triangles_destroyed: np.ndarray  # (D_2, 3) int64, old labels
    triangles_created: np.ndarray    # (C_2, 3) int64, new labels
    vertices_changed: bool
    edges_changed: bool
    triangles_changed: bool

    @property
    def unchanged(self) -> bool:
        """True when the patched arrays are bit-identical to the previous ones."""
        return not (self.vertices_changed or self.edges_changed or self.triangles_changed)

    @property
    def num_destroyed(self) -> int:
        """Simplices removed by the advance (vertices + edges + triangles)."""
        return self.leave_count + len(self.edges_destroyed) + len(self.triangles_destroyed)

    @property
    def num_created(self) -> int:
        """Simplices added by the advance (vertices + edges + triangles)."""
        return self.enter_count + len(self.edges_created) + len(self.triangles_created)


def _encode_rows(rows: np.ndarray, base: int) -> np.ndarray:
    """Mixed-radix row codes whose integer order equals lexicographic row order."""
    code = rows[:, 0].astype(np.int64)
    for column in range(1, rows.shape[1]):
        code = code * base + rows[:, column]
    return code


def _merge_lex_sorted(a: np.ndarray, b: np.ndarray, num_points: int) -> np.ndarray:
    """Merge two disjoint, lexicographically sorted simplex arrays in order."""
    if not len(b):
        return a
    if not len(a):
        return b
    base = max(int(num_points), 1)
    slots = np.searchsorted(_encode_rows(a, base), _encode_rows(b, base))
    out = np.empty((len(a) + len(b), a.shape[1]), dtype=np.int64)
    b_slots = slots + np.arange(len(b))
    mask = np.ones(len(out), dtype=bool)
    mask[b_slots] = False
    out[b_slots] = b
    out[mask] = a
    return out


class IncrementalFlagComplex:
    """A flag complex (as :class:`FlagComplexArrays`) patched under enter/leave.

    Holds the arrays of the *current* window's complex at a fixed grouping
    scale ε.  :meth:`advance` consumes the next window's distance matrix (as
    produced by :meth:`SlidingDistanceMatrix.advance`), classifies the old
    simplices into destroyed/surviving on the minimum vertex, enumerates
    created simplices against the entering columns only (``O(E · e)`` instead
    of the from-scratch ``O(E · n)``), and splices them in lexicographic
    order, so ``self.arrays`` stays bit-identical to
    ``flag_complex_arrays(distances, epsilon, max_dimension)``.

    Contract: the retained block of the new distance matrix must induce the
    same ε-adjacency as the retained block of the previous one (automatic
    when the matrix comes from :class:`SlidingDistanceMatrix`, whose retained
    distances are carried over verbatim).  The advance verifies this on the
    boolean adjacency — the exact invariant the complex depends on — and
    raises otherwise.
    """

    def __init__(self, distances: np.ndarray, epsilon: float, max_dimension: int = 2):
        if check_integer(max_dimension, "max_dimension", minimum=0) > 2:
            raise ValueError(
                "IncrementalFlagComplex patches edges and triangles only (max_dimension <= 2)"
            )
        self._arrays = flag_complex_arrays(distances, epsilon, max_dimension)
        self.epsilon = float(epsilon)
        self.max_dimension = self._arrays.max_dimension
        dist = np.asarray(distances, dtype=float)
        adjacency = dist <= self.epsilon
        np.fill_diagonal(adjacency, False)
        self._adjacency = adjacency

    @property
    def arrays(self) -> FlagComplexArrays:
        """The current window's complex (bit-identical to a from-scratch build)."""
        return self._arrays

    @property
    def num_points(self) -> int:
        return self._arrays.num_points

    def advance(self, leave: int, distances: np.ndarray) -> FlagComplexDelta:
        """Patch the complex for a window advance; returns the simplex delta.

        ``leave`` points (the lowest indices) left, and the new distance
        matrix appends any entering points at the highest indices.
        ``leave == num_points`` degenerates to a full rebuild through the
        same enumeration (the fallback route).
        """
        old = self._arrays
        n_old = old.num_points
        leave = check_integer(leave, "leave", minimum=0)
        if leave > n_old:
            raise ValueError(f"cannot drop {leave} of {n_old} points")
        dist = np.asarray(distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distances must be a square matrix")
        keep = n_old - leave
        n_new = dist.shape[0]
        if n_new < keep:
            raise ValueError(
                f"new distance matrix has {n_new} points but {keep} were retained"
            )
        enter = n_new - keep
        adjacency = dist <= self.epsilon
        np.fill_diagonal(adjacency, False)
        if not np.array_equal(adjacency[:keep, :keep], self._adjacency[leave:, leave:]):
            raise ValueError(
                "retained points changed adjacency; incremental advance requires the "
                "retained block of the distance matrix to induce the same ε-graph "
                "(use SlidingDistanceMatrix, or advance with leave=num_points)"
            )
        max_dim = self.max_dimension

        # Old simplices: destroyed iff they contain a leaving vertex, i.e. iff
        # their minimum vertex (column 0) is < leave; survivors shift by -leave
        # and remain lexicographically sorted.
        if max_dim >= 1 and leave and len(old.edges):
            edge_survives = old.edges[:, 0] >= leave
            edges_destroyed = old.edges[~edge_survives]
            surviving_edges = old.edges[edge_survives] - leave
        else:
            edges_destroyed = _EMPTY_EDGES
            surviving_edges = old.edges
        if max_dim >= 2 and leave and len(old.triangles):
            tri_survives = old.triangles[:, 0] >= leave
            triangles_destroyed = old.triangles[~tri_survives]
            surviving_triangles = old.triangles[tri_survives] - leave
        else:
            triangles_destroyed = _EMPTY_TRIANGLES
            surviving_triangles = old.triangles

        # Created simplices are exactly those whose maximum vertex entered
        # (index >= keep): enumerate against the entering columns only.
        # np.nonzero walks rows then columns, so both batches come out in the
        # same lexicographic order flag_complex_arrays produces.
        if max_dim >= 1 and enter and n_new > 1:
            entering_cols = np.arange(keep, n_new)
            candidates = adjacency[:, keep:] & (
                np.arange(n_new)[:, None] < entering_cols[None, :]
            )
            first, offset = np.nonzero(candidates)
            edges_created = np.stack([first, keep + offset], axis=1).astype(np.int64)
        else:
            edges_created = _EMPTY_EDGES
        new_edges = _merge_lex_sorted(surviving_edges, edges_created, n_new)
        if max_dim >= 2 and enter and len(new_edges):
            entering_cols = np.arange(keep, n_new)
            candidates = adjacency[new_edges[:, 0], keep:] & adjacency[new_edges[:, 1], keep:]
            candidates &= entering_cols[None, :] > new_edges[:, 1][:, None]
            edge_rows, offset = np.nonzero(candidates)
            triangles_created = np.empty((len(edge_rows), 3), dtype=np.int64)
            triangles_created[:, :2] = new_edges[edge_rows]
            triangles_created[:, 2] = keep + offset
        else:
            triangles_created = _EMPTY_TRIANGLES
        new_triangles = _merge_lex_sorted(surviving_triangles, triangles_created, n_new)

        delta = FlagComplexDelta(
            num_points_before=n_old,
            num_points_after=n_new,
            leave_count=leave,
            enter_count=enter,
            edges_destroyed=edges_destroyed,
            edges_created=edges_created,
            triangles_destroyed=triangles_destroyed,
            triangles_created=triangles_created,
            vertices_changed=n_new != n_old,
            edges_changed=not np.array_equal(new_edges, old.edges),
            triangles_changed=not np.array_equal(new_triangles, old.triangles),
        )
        self._arrays = FlagComplexArrays(
            num_points=n_new, skeleton=(new_edges, new_triangles)[:max_dim]
        )
        self._adjacency = adjacency
        return delta
