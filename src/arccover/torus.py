"""Exact arc and interval-union arithmetic on the unit circle R/Z.

Conventions used throughout the package:

* Positions live in [0, 1); all distances wrap mod 1.
* Arcs are closed intervals in canonical form.  The sets we manipulate
  differ from their open counterparts by finitely many points, which
  cannot change any measure or any dimension estimate.
* Canonical form never stores a piece crossing the 0/1 seam; a wrapped
  arc is split into a piece ending at 1 and a piece starting at 0.
* Pieces separated by a gap of at most MERGE_EPS are merged, which
  absorbs floating-point dust from repeated set operations.
* An IntervalUnion may additionally carry isolated points (used for
  finite target sets).  Points have measure zero, vanish under
  complement, and survive an intersection only when they fall strictly
  inside the other operand (or coincide with one of its points).  A point
  at 0 is strictly inside a seam pair, a piece from 0 and one up to 1,
  because the two are one arc of the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MERGE_EPS = 1e-15

_EMPTY = np.empty(0, dtype=np.float64)


def _as_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    return a.reshape(-1)


@dataclass(frozen=True)
class Arc:
    """A closed arc on the circle: center +- radius, wrapping mod 1."""

    center: float
    radius: float

    def __post_init__(self):
        if not (0.0 <= self.center < 1.0):
            raise ValueError(f"arc center must be in [0, 1), got {self.center}")
        if not (0.0 < self.radius <= 0.5):
            raise ValueError(f"arc radius must be in (0, 1/2], got {self.radius}")


class IntervalUnion:
    """Canonical sorted disjoint union of closed subintervals of [0, 1).

    Backed by two parallel float64 arrays of lower and upper endpoints,
    plus an optional array of isolated points.  Instances are immutable;
    all operations return new unions.
    """

    __slots__ = ("los", "his", "points")

    def __init__(self, pieces: Iterable[tuple] = (), points: Iterable[float] = ()):
        los, his = _split_pieces(pieces)
        los, his, pts = _canonicalize(los, his, _as_array(list(points)))
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _from_sorted(cls, los: np.ndarray, his: np.ndarray,
                     points: np.ndarray = _EMPTY) -> "IntervalUnion":
        """Trusted constructor: inputs already canonical, no merge pass.

        Used by hot paths and by builders whose output is exact but too
        fine for the merge tolerance (deep pre-fractals).
        """
        u = cls.__new__(cls)
        object.__setattr__(u, "los", np.asarray(los, dtype=np.float64))
        object.__setattr__(u, "his", np.asarray(his, dtype=np.float64))
        object.__setattr__(u, "points", np.asarray(points, dtype=np.float64))
        return u

    def __setattr__(self, name, value):
        raise AttributeError("IntervalUnion is immutable")

    def __reduce__(self):
        return (IntervalUnion._from_sorted, (self.los, self.his, self.points))

    @property
    def pieces(self) -> list:
        return list(zip(self.los.tolist(), self.his.tolist()))

    def __len__(self) -> int:
        return self.los.size

    def is_empty(self) -> bool:
        return self.los.size == 0 and self.points.size == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return (np.array_equal(self.los, other.los)
                and np.array_equal(self.his, other.his)
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash((self.los.tobytes(), self.his.tobytes(), self.points.tobytes()))

    def __repr__(self) -> str:
        parts = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in self.pieces[:8])
        if len(self) > 8:
            parts += f", ... {len(self)} pieces"
        if self.points.size:
            parts += "; points " + ", ".join(f"{p:.6g}" for p in self.points[:8])
        return f"IntervalUnion([{parts}])"

    def component_count(self) -> int:
        """Number of connected components on the torus.

        The seam pair (x, 1) + (0, y) counts as one component, except for
        the full circle which is a single component anyway.
        """
        n = int(self.los.size)
        if n >= 2 and self.los[0] == 0.0 and self.his[-1] == 1.0:
            n -= 1
        return n + int(self.points.size)


def _split_pieces(pieces) -> tuple:
    pieces = list(pieces)
    if not pieces:
        return _EMPTY, _EMPTY
    arr = np.asarray(pieces, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pieces must be (lo, hi) pairs")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _canonicalize(los: np.ndarray, his: np.ndarray, points: np.ndarray) -> tuple:
    # positive range tests, which NaN fails
    if not np.all((los >= 0.0) & (his <= 1.0)):
        raise ValueError("interval endpoints must lie in [0, 1]")
    if np.any(his < los):
        raise ValueError("interval needs lo <= hi")
    keep = his > los
    los, his = los[keep], his[keep]
    if los.size:
        order = np.argsort(los, kind="stable")
        los, his = los[order], his[order]
        # new group wherever the gap to the running cover exceeds MERGE_EPS
        cummax = np.maximum.accumulate(his)
        breaks = np.empty(los.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = los[1:] > cummax[:-1] + MERGE_EPS
        starts = np.flatnonzero(breaks)
        glo = los[starts]
        ghi = np.maximum.reduceat(his, starts)
        los, his = glo, ghi
    if points.size:
        if not np.all((points >= 0.0) & (points < 1.0)):
            raise ValueError("points must lie in [0, 1)")
        points = np.unique(points)
        points = points[~_in_closed(los, his, points)]
    return los, his, points


FULL_CIRCLE = IntervalUnion([(0.0, 1.0)])
EMPTY = IntervalUnion()


def arcs_to_union(arcs: Sequence[Arc]) -> IntervalUnion:
    """Canonical union of a list of arcs; wrapped arcs split at the seam."""
    if not arcs:
        return EMPTY
    centers = np.array([a.center for a in arcs], dtype=np.float64)
    radii = np.array([a.radius for a in arcs], dtype=np.float64)
    if np.any(radii <= 0.0) or np.any(radii > 0.5):
        raise ValueError("arc radius must be in (0, 1/2]")
    if np.any(2.0 * radii >= 1.0):
        return FULL_CIRCLE
    lo = centers - radii
    hi = centers + radii
    wrap_lo = lo < 0.0
    wrap_hi = hi > 1.0
    plain = ~wrap_lo & ~wrap_hi
    los = np.concatenate((lo[plain], lo[wrap_lo] + 1.0, np.zeros(wrap_lo.sum()),
                          lo[wrap_hi], np.zeros(wrap_hi.sum())))
    his = np.concatenate((hi[plain], np.ones(wrap_lo.sum()), hi[wrap_lo],
                          np.ones(wrap_hi.sum()), hi[wrap_hi] - 1.0))
    canon_los, canon_his, _ = _canonicalize(los, his, _EMPTY)
    return IntervalUnion._from_sorted(canon_los, canon_his)


def measure(u: IntervalUnion) -> float:
    """Lebesgue measure; isolated points contribute nothing."""
    return float(np.sum(u.his - u.los))


def complement(u: IntervalUnion) -> IntervalUnion:
    """Closure of the set complement on the torus.

    Isolated points of `u` are dropped: the result differs from the true
    complement by a finite set, consistent with the closed convention.
    """
    # the gaps before, between and after the pieces, kept where nonempty
    clo = np.concatenate(([0.0], u.his))
    chi = np.concatenate((u.los, [1.0]))
    keep = chi > clo
    return IntervalUnion._from_sorted(clo[keep], chi[keep])


def intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Set intersection.

    Interval parts intersect in the usual way, keeping only overlaps of
    positive length (a shared endpoint between touching pieces is dropped
    as measure-zero dust).  A point survives only when it lies strictly
    inside an interval of the other operand, 0 inside a seam pair
    included, or coincides with one of its points, so that `covers(u, a)`
    is exactly "intersect(a, complement(u)) is empty" even for
    point-bearing targets.

    On canonical operands the result does not depend on their order, bit
    for bit, but the cost does: it is O(|u| log |v| + output), because each
    piece of `u` is located in `v` by binary search.  Pass the smaller
    operand first.
    """
    lo, hi = _intersect_arrays(u.los, u.his, v.los, v.his)
    pts = []
    if u.points.size:
        pts.append(u.points[_strictly_inside(v.los, v.his, u.points)])
        if v.points.size:
            pts.append(np.intersect1d(u.points, v.points))
    if v.points.size:
        pts.append(v.points[_strictly_inside(u.los, u.his, v.points)])
    points = np.unique(np.concatenate(pts)) if pts else _EMPTY
    if points.size and lo.size:
        points = points[~_in_closed(lo, hi, points)]
    return IntervalUnion._from_sorted(lo, hi, points)


def _intersect_arrays(alo, ahi, blo, bhi) -> tuple:
    if alo.size == 0 or blo.size == 0:
        return _EMPTY, _EMPTY
    # for piece i of a, overlapping pieces of b are j in [j0, j1)
    j0 = np.searchsorted(bhi, alo, side="right")
    j1 = np.searchsorted(blo, ahi, side="left")
    counts = j1 - j0
    counts[counts < 0] = 0
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    ii = np.repeat(np.arange(alo.size), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    jj = np.arange(total) - np.repeat(offsets, counts) + np.repeat(j0, counts)
    lo = np.maximum(alo[ii], blo[jj])
    hi = np.minimum(ahi[ii], bhi[jj])
    keep = hi > lo
    return lo[keep], hi[keep]


def _in_closed(los, his, xs) -> np.ndarray:
    """Which of xs lie in the closed piece [los[i], his[i]] of the last
    start los[i] at or below them: closed membership in sorted, disjoint
    pieces."""
    if los.size == 0:
        return np.zeros(xs.size, dtype=bool)
    idx = np.searchsorted(los, xs, side="right") - 1
    return (idx >= 0) & (xs <= his[np.maximum(idx, 0)])


def _strictly_inside(los, his, xs) -> np.ndarray:
    """Which of xs lie inside a piece and on no end of it.  On the torus 0
    also does when a piece starts at 0 and one ends at 1: they are the two
    halves of one arc across the seam (or the full circle)."""
    if los.size == 0:
        return np.zeros(xs.size, dtype=bool)
    idx = np.searchsorted(los, xs, side="right") - 1
    ok = idx >= 0
    safe = np.maximum(idx, 0)
    inside = ok & (los[safe] < xs) & (xs < his[safe])
    if los[0] == 0.0 and his[-1] == 1.0:
        inside |= xs == 0.0
    return inside


def union(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Set union, re-canonicalized."""
    los = np.concatenate([u.los, v.los])
    his = np.concatenate([u.his, v.his])
    pts = np.concatenate([u.points, v.points])
    clo, chi, cpts = _canonicalize(los, his, pts)
    return IntervalUnion._from_sorted(clo, chi, cpts)


def contains_points(u: IntervalUnion, xs) -> np.ndarray:
    """Closed membership test for an array of positions in [0, 1).

    Position 0 also counts as covered by a piece ending at 1 (0 == 1 mod 1).
    """
    xs = _as_array(xs)
    inside = _in_closed(u.los, u.his, xs)
    if u.los.size and u.his[-1] == 1.0:
        inside |= xs == 0.0
    if u.points.size:
        inside |= np.isin(xs, u.points)
    return inside


def covers(u: IntervalUnion, a: IntervalUnion) -> bool:
    """True iff a is a subset of u under the closed convention.

    Every interval piece of `a` must sit inside a single closed run of
    touching pieces of `u` (neither crosses the seam), and every isolated
    point of `a` must pass closed membership, so point targets cannot
    escape through a piece boundary.  Pieces of `u` touch when no gap of
    positive length separates them, so complement(u) has no piece there;
    canonical form merges them anyway, but the trusted constructor may not.
    """
    if a.los.size:
        if u.los.size == 0:
            return False
        starts = np.flatnonzero(np.concatenate(([True], u.los[1:] > u.his[:-1])))
        los = u.los[starts]
        his = u.his[np.append(starts[1:], u.los.size) - 1]
        idx = np.searchsorted(los, a.los, side="right") - 1
        if np.any(idx < 0):
            return False
        if np.any(a.his > his[idx]):
            return False
    if a.points.size and not np.all(contains_points(u, a.points)):
        return False
    return True
