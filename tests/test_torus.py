import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arccover import (Arc, EMPTY, FULL_CIRCLE, IntervalUnion, arcs_to_union,
                      complement, contains_points, covers, intersect,
                      make_cantor, measure, union)
from arccover import torus
from arccover.torus import MERGE_EPS


def iu(*pieces):
    return IntervalUnion(pieces)


def random_union(rng, max_arcs=12):
    n = rng.integers(1, max_arcs)
    arcs = [Arc(float(c), float(r)) for c, r in
            zip(rng.random(n), rng.uniform(0.005, 0.3, n))]
    return arcs_to_union(arcs)


class TestArcsToUnion:
    def test_single_arc(self):
        assert arcs_to_union([Arc(0.5, 0.1)]).pieces == [(0.4, 0.6)]

    def test_wrap_at_seam(self):
        got = arcs_to_union([Arc(0.0, 0.1)])
        assert len(got) == 2
        assert got.pieces[0] == (0.0, 0.1)
        assert got.pieces[1][1] == 1.0
        assert got.pieces[1][0] == pytest.approx(0.9)

    def test_overlapping_arcs_merge(self):
        got = arcs_to_union([Arc(0.2, 0.1), Arc(0.35, 0.1)])
        assert len(got) == 1
        lo, hi = got.pieces[0]
        assert lo == pytest.approx(0.1) and hi == pytest.approx(0.45)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            Arc(0.5, 0.0)
        with pytest.raises(ValueError):
            Arc(0.5, 0.7)

    def test_half_radius_covers_circle(self):
        assert arcs_to_union([Arc(0.3, 0.5)]) == FULL_CIRCLE

    def test_idempotent_canonicalization(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = random_union(rng)
            again = IntervalUnion(u.pieces)
            assert again == u


class TestComplement:
    def test_empty(self):
        assert complement(EMPTY) == FULL_CIRCLE

    def test_plain_piece(self):
        assert complement(iu((0.4, 0.6))).pieces == [(0.0, 0.4), (0.6, 1.0)]

    def test_seam_wrapped(self):
        assert complement(iu((0.0, 0.1), (0.9, 1.0))).pieces == [(0.1, 0.9)]

    def test_full_circle(self):
        assert complement(FULL_CIRCLE) == EMPTY

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = random_union(rng)
            assert complement(complement(u)) == u

    def test_measure_additivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = random_union(rng)
            assert measure(u) + measure(complement(u)) == pytest.approx(1.0, abs=1e-12)


class TestIntersect:
    def test_identity_with_full_circle(self):
        u = iu((0.2, 0.3), (0.5, 0.9))
        assert intersect(u, FULL_CIRCLE) == u

    def test_partial_overlap(self):
        assert intersect(iu((0.0, 0.5)), iu((0.25, 0.75))).pieces == [(0.25, 0.5)]

    def test_disjoint(self):
        assert intersect(iu((0.0, 0.2)), iu((0.5, 0.7))) == EMPTY

    def test_measure_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u, v = random_union(rng), random_union(rng)
            m = measure(intersect(u, v))
            assert m <= min(measure(u), measure(v)) + 1e-12

    def test_point_survives_only_strictly_inside(self):
        pts = IntervalUnion(points=[0.1, 0.4, 0.5])
        got = intersect(pts, iu((0.4, 0.6)))
        # 0.4 touches the boundary only: dropped, consistent with closed covers()
        assert got.points.tolist() == [0.5]
        assert len(got) == 0


# Shared values make endpoints and points of the two operands coincide.
_SHARED = [0.0, 0.125, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]
_positions = st.one_of(st.sampled_from(_SHARED), st.floats(0.0, 1.0))


@st.composite
def _touching(draw):
    """Canonical union built on sorted breakpoints: every consecutive pair is
    a piece or not, so chosen neighbours touch, 0 and 1 give seam pieces,
    and breakpoints that end no piece may become isolated points."""
    xs = sorted(set(draw(st.lists(_positions, max_size=10))))
    chosen = [draw(st.booleans()) for _ in xs[1:]]
    los = [a for a, keep in zip(xs, chosen) if keep]
    his = [b for b, keep in zip(xs[1:], chosen) if keep]
    free = [x for x in xs if x < 1.0 and x not in los and x not in his]
    points = [x for x in free if draw(st.booleans())]
    return IntervalUnion._from_sorted(np.array(los), np.array(his), np.array(points))


@st.composite
def _merged(draw):
    """Union canonicalized by the public constructor."""
    pieces = [tuple(sorted(p)) for p in draw(st.lists(st.tuples(_positions, _positions),
                                                      max_size=6))]
    points = draw(st.lists(_positions.filter(lambda x: x < 1.0), max_size=4))
    return IntervalUnion(pieces, points)


@st.composite
def _cantor_slice(draw):
    """A run of consecutive pieces of a deep Cantor pre-fractal."""
    approx = make_cantor(draw(st.sampled_from([1 / 3, 0.25])), draw(st.integers(8, 14))).approx
    a = draw(st.integers(0, approx.los.size - 1))
    b = draw(st.integers(a, approx.los.size))
    return IntervalUnion._from_sorted(approx.los[a:b], approx.his[a:b])


_unions = st.one_of(_touching(), _merged(), _cantor_slice())


@st.composite
def _spaced(draw):
    """Point-free canonical union whose pieces and gaps, the seam gap
    included, all exceed MERGE_EPS: breakpoints closer than that to the
    previous one, or to 1, are dropped, and each stretch between two kept
    breakpoints is in or out."""
    kept = [0.0]
    for x in sorted(set(draw(st.lists(_positions, max_size=10)))):
        if x - kept[-1] > MERGE_EPS and 1.0 - x > MERGE_EPS:
            kept.append(x)
    kept.append(1.0)
    stretches = [(a, b) for a, b in zip(kept, kept[1:]) if draw(st.booleans())]
    return IntervalUnion(stretches)


class TestIntersectOrder:
    @given(_unions, _unions)
    def test_operand_order_is_bitwise_irrelevant(self, u, v):
        a, b = intersect(u, v), intersect(v, u)
        assert a.los.tobytes() == b.los.tobytes()
        assert a.his.tobytes() == b.his.tobytes()
        assert a.points.tobytes() == b.points.tobytes()

    def test_seam_pieces_against_points(self):
        u = iu((0.0, 0.25), (0.75, 1.0))
        v = IntervalUnion([(0.5, 0.8)], points=[0.0, 0.1, 0.25, 0.9])
        assert intersect(u, v) == intersect(v, u)
        assert intersect(u, v).pieces == [(0.75, 0.8)]
        # 0.0 lies inside the torus arc (0.75, 1.25) that the seam pair of u
        # makes; 0.25 only touches a piece of u, so it is dropped
        assert intersect(u, v).points.tolist() == [0.0, 0.1, 0.9]
        # without the piece from 0 no arc crosses the seam
        assert intersect(iu((0.75, 1.0)), v).points.tolist() == [0.9]


def _assert_bitwise(u, v):
    assert u.los.tobytes() == v.los.tobytes()
    assert u.his.tobytes() == v.his.tobytes()
    assert u.points.tobytes() == v.points.tobytes()


class TestAlgebraLaws:
    @given(_unions, _unions)
    def test_union_commutes(self, u, v):
        _assert_bitwise(union(u, v), union(v, u))

    @given(_unions, _unions, _unions)
    def test_union_associates(self, u, v, w):
        _assert_bitwise(union(union(u, v), w), union(u, union(v, w)))

    @given(_unions)
    def test_canonical_form_is_idempotent(self, u):
        once = union(u, EMPTY)
        # an empty operand on either side, EMPTY or an empty intersection,
        # leaves it as it is: a tail union may skip the empty residues
        for empty in (EMPTY, intersect(iu((0.1, 0.2)), iu((0.5, 0.6)))):
            _assert_bitwise(union(once, empty), once)
            _assert_bitwise(union(empty, once), once)
        _assert_bitwise(IntervalUnion(once.pieces, once.points), once)

    @given(_unions, _unions)
    def test_inclusion_exclusion(self, u, v):
        both = measure(union(u, v)) + measure(intersect(u, v))
        assert both == pytest.approx(measure(u) + measure(v), abs=1e-12)

    @given(_unions, _unions)
    def test_covers_iff_nothing_outside(self, u, a):
        # complement drops the points of u, so the law is about its pieces
        u = IntervalUnion._from_sorted(u.los, u.his)
        assert covers(u, a) == intersect(a, complement(u)).is_empty()

    @given(_spaced())
    def test_complement_is_an_involution(self, u):
        _assert_bitwise(complement(complement(u)), u)

    def test_seam_point_is_kept_by_intersect(self):
        # 0 lies inside the torus arc (0.75, 1.25) that complement(u) splits
        # into (0, 0.25) and (0.75, 1)
        u, a = iu((0.25, 0.75)), IntervalUnion(points=[0.0])
        assert not covers(u, a)
        assert not intersect(a, complement(u)).is_empty()
        # and inside the full circle, the complement of nothing
        assert not covers(EMPTY, a)
        assert intersect(a, complement(EMPTY)) == a

    def test_touching_pieces_cover_what_spans_them(self):
        u = IntervalUnion._from_sorted(np.array([0.125, 0.25]), np.array([0.25, 1 / 3]))
        a = iu((0.125, 1 / 3))
        assert intersect(a, complement(u)).is_empty()
        assert covers(u, a)

    def test_dust_gap_between_pieces_is_not_covered(self):
        # a gap far below MERGE_EPS is still a piece of complement(u)
        gap_end = np.nextafter(np.nextafter(0.25, 1.0), 1.0)
        u = IntervalUnion._from_sorted(np.array([0.125, gap_end]), np.array([0.25, 1 / 3]))
        a = iu((0.125, 1 / 3))
        assert not intersect(a, complement(u)).is_empty()
        assert not covers(u, a)


class TestMeasure:
    def test_empty(self):
        assert measure(EMPTY) == 0.0

    def test_full(self):
        assert measure(FULL_CIRCLE) == 1.0

    def test_two_pieces(self):
        assert measure(iu((0.1, 0.3), (0.6, 0.65))) == pytest.approx(0.25, abs=1e-15)


class TestCovers:
    def test_full_circle_covers_anything(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            assert covers(FULL_CIRCLE, random_union(rng))

    def test_nested(self):
        assert covers(iu((0.4, 0.6)), iu((0.45, 0.55)))

    def test_straddling_fails(self):
        assert not covers(iu((0.4, 0.6)), iu((0.3, 0.5)))

    def test_closed_endpoints_count(self):
        assert covers(iu((0.4, 0.6)), iu((0.4, 0.6)))

    def test_point_target(self):
        p = IntervalUnion(points=[0.5])
        assert covers(iu((0.4, 0.6)), p)
        assert covers(iu((0.5, 0.6)), p)  # boundary point, closed convention
        assert not covers(iu((0.6, 0.7)), p)

    def test_point_at_seam(self):
        p = IntervalUnion(points=[0.0])
        assert covers(iu((0.9, 1.0)), p)

    def test_isolated_point_of_u_covers_the_same_point(self):
        u = IntervalUnion([(0.1, 0.2)], points=[0.5])
        assert covers(u, IntervalUnion(points=[0.5]))
        assert not covers(u, IntervalUnion(points=[0.6]))
        assert not covers(u, IntervalUnion([(0.1, 0.2)], points=[0.5, 0.6]))
        # complement(u) drops the points of u, so the law with intersect
        # does not hold here
        assert not intersect(IntervalUnion(points=[0.5]), complement(u)).is_empty()

    def test_equivalence_with_intersect_complement(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u, a = random_union(rng), random_union(rng)
            resid = intersect(a, complement(u))
            assert covers(u, a) == resid.is_empty()

    def test_point_equivalence_with_intersect_complement(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = random_union(rng)
            a = IntervalUnion(points=rng.random(5))
            resid = intersect(a, complement(u))
            assert covers(u, a) == resid.is_empty()


class TestClosedMembership:
    @given(_unions, st.lists(_positions, max_size=12))
    def test_against_every_piece(self, u, xs):
        # piece ends are probed too, where closed and open membership part
        xs = np.concatenate([xs, u.los[:4], u.his[:4], u.los[-4:], u.his[-4:]])
        want = ((u.los <= xs[:, None]) & (xs[:, None] <= u.his)).any(axis=1)
        assert np.array_equal(torus._in_closed(u.los, u.his, xs), want)


class TestMembershipOracle:
    def test_grid_against_circular_distance(self):
        rng = np.random.default_rng(14)
        probes = np.arange(10_000) / 10_000.0
        for _ in range(40):
            n = int(rng.integers(1, 120))
            radius = float(rng.uniform(0.002, 0.2))
            centers = rng.random(n)
            u = arcs_to_union([Arc(float(c), radius) for c in centers])
            d = np.abs(probes[:, None] - centers[None, :])
            circ = np.minimum(d, 1.0 - d).min(axis=1)
            want = circ <= radius
            got = contains_points(u, probes)
            endpoints = np.concatenate([u.los, u.his])
            near_edge = np.min(np.abs(probes[:, None] - endpoints[None, :]), axis=1) <= 1e-9
            assert np.array_equal(got[~near_edge], want[~near_edge])


class TestUnionOp:
    def test_union_measure(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u, v = random_union(rng), random_union(rng)
            w = union(u, v)
            assert measure(w) <= measure(u) + measure(v) + 1e-12
            assert covers(w, u) and covers(w, v)

    def test_component_count_at_seam(self):
        assert iu((0.0, 0.1), (0.9, 1.0)).component_count() == 1
        assert iu((0.0, 0.1), (0.5, 0.6)).component_count() == 2
        assert FULL_CIRCLE.component_count() == 1
        assert IntervalUnion(points=[0.2, 0.4]).component_count() == 2


class TestInvariants:
    def test_pieces_sorted_disjoint(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            u = random_union(rng)
            assert np.all(np.diff(u.los) > 0)
            assert np.all(u.his > u.los)
            assert np.all(u.los[1:] > u.his[:-1])

    def test_adjacent_dust_merges(self):
        u = IntervalUnion([(0.1, 0.2), (0.2 + 1e-16, 0.3)])
        assert len(u) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntervalUnion([(0.5, 1.2)])
        for pieces in ([(0.3, math.nan)], [(math.nan, 0.2)], [(0.1, 0.2), (math.nan, math.nan)]):
            with pytest.raises(ValueError, match="^interval endpoints must lie in"):
                IntervalUnion(pieces)
        with pytest.raises(ValueError, match="^points must lie in"):
            IntervalUnion(points=[0.5, math.nan])
        with pytest.raises(ValueError):
            IntervalUnion([(0.5, 0.2)])
