"""Range tree vs. linear scan, boundary semantics, and structural checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import linear_scan
from stackspt.errors import ValidationError
from stackspt.rangetree import (
    Interval,
    QueryRect,
    RangeTree,
    WeightedPointSet,
    build_range_tree,
)
from stackspt.rational import INF, NEG_INF


def pts(dim, coords, weights=None):
    coords = tuple(tuple(c) for c in coords)
    if weights is None:
        weights = (1,) * len(coords)
    return WeightedPointSet(dim=dim, points=coords, weights=tuple(weights))


def everywhere(dim):
    return QueryRect(tuple(Interval() for _ in range(dim)))


class TestValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            WeightedPointSet(dim=0, points=(), weights=())

    def test_rejects_ragged_points(self):
        with pytest.raises(ValidationError):
            pts(2, [(1, 2), (3,)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            WeightedPointSet(dim=1, points=((1,),), weights=(1, 2))

    @pytest.mark.parametrize("bad", [1.5, True, None, "3"])
    def test_rejects_inexact_coordinates(self, bad):
        with pytest.raises(ValidationError):
            pts(1, [(bad,)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            pts(1, [(1,)], weights=(-1,))
        with pytest.raises(ValidationError):
            pts(1, [(1,)], weights=(0.5,))
        with pytest.raises(ValidationError):
            pts(1, [(1,)], weights=(INF,))

    def test_rejects_bad_bound_value(self):
        with pytest.raises(ValidationError):
            Interval(upper=(1.5, True))

    def test_rejects_non_interval_axis(self):
        with pytest.raises(ValidationError):
            QueryRect(((None, (3, True)),))

    def test_query_dimension_mismatch(self):
        rt = build_range_tree(pts(2, [(1, 2)]))
        with pytest.raises(ValidationError):
            rt.query(everywhere(3))
        with pytest.raises(ValidationError):
            rt.query(everywhere(1))


class TestTrivial:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_empty_set_answers_zero(self, dim):
        rt = build_range_tree(pts(dim, []))
        assert rt.size == 0 and rt.total_weight == 0
        assert rt.query(everywhere(dim)) == 0
        finite = QueryRect(tuple(Interval((0, True), (5, False)) for _ in range(dim)))
        assert rt.query(finite) == 0

    def test_single_point_in_and_out(self):
        rt = build_range_tree(pts(2, [(3, 4)], weights=(7,)))
        assert rt.query(everywhere(2)) == 7
        inside = QueryRect((Interval((0, True), (3, True)), Interval((4, True), (9, True))))
        assert rt.query(inside) == 7
        off = QueryRect((Interval((0, True), (3, False)), Interval((4, True), (9, True))))
        assert rt.query(off) == 0

    @pytest.mark.parametrize(
        "closed,expect", [(True, 5), (False, 0)]
    )
    def test_point_exactly_on_boundary(self, closed, expect):
        rt = build_range_tree(pts(1, [(10,)], weights=(5,)))
        assert rt.query(QueryRect((Interval(upper=(10, closed)),))) == expect
        assert rt.query(QueryRect((Interval(lower=(10, closed)),))) == expect

    def test_full_space_returns_total_weight(self):
        rt = build_range_tree(pts(3, [(1, 2, 3), (4, 5, 6), (1, 2, 3)], weights=(1, 2, 4)))
        assert rt.total_weight == 7
        assert rt.query(everywhere(3)) == 7

    def test_duplicate_points_accumulate(self):
        rt = build_range_tree(pts(2, [(5, 5), (5, 5), (6, 5)], weights=(2, 3, 10)))
        only_five = QueryRect((Interval(upper=(5, True)), Interval(upper=(5, True))))
        assert rt.query(only_five) == 5

    def test_fraction_weights_exact(self):
        rt = build_range_tree(
            pts(1, [(1,), (2,), (3,)], weights=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        )
        assert rt.query(everywhere(1)) == 1
        assert rt.query(QueryRect((Interval(upper=(2, True)),))) == Fraction(2, 3)

    def test_minus_infinity_coordinates(self):
        rt = build_range_tree(pts(2, [(NEG_INF, 1), (0, 1)], weights=(3, 4)))
        assert rt.query(everywhere(2)) == 7
        bounded_below = QueryRect((Interval(lower=(-1000, True)), Interval()))
        assert rt.query(bounded_below) == 4
        dominance = QueryRect.dominance([(0, True), (1, True)])
        assert rt.query(dominance) == 7

    def test_dominance_constructor(self):
        rect = QueryRect.dominance([(3, False), None])
        assert rect.dim == 2
        assert rect.intervals[0] == Interval(upper=(3, False))
        assert rect.intervals[1] == Interval()


class TestContains:
    def test_interval_contains_matches_bounds(self):
        iv = Interval(lower=(2, False), upper=(5, True))
        assert not iv.contains(2)
        assert iv.contains(3) and iv.contains(5)
        assert not iv.contains(6)
        assert not iv.contains(NEG_INF)
        assert Interval().contains(NEG_INF) and Interval().contains(INF)

    def test_rect_contains(self):
        rect = QueryRect((Interval(upper=(1, True)), Interval(lower=(0, True))))
        assert rect.contains((1, 0))
        assert not rect.contains((2, 0))
        assert not rect.contains((1, -1))


def random_scalar(rng, lo=-20, hi=20):
    if rng.random() < 0.25:
        return Fraction(rng.randint(2 * lo, 2 * hi), rng.randint(1, 6))
    return rng.randint(lo, hi)


def random_points(rng, n, dim, neg_inf_rate=0.1, huge_rate=0.0):
    out = []
    for _ in range(n):
        pt = []
        for _ in range(dim):
            r = rng.random()
            if r < neg_inf_rate:
                pt.append(NEG_INF)
            elif r < neg_inf_rate + huge_rate:
                pt.append(rng.choice([-1, 1]) * (1 << 70))
            else:
                pt.append(random_scalar(rng))
        out.append(tuple(pt))
    return out


def random_bound(rng):
    if rng.random() < 0.25:
        return None
    return (random_scalar(rng), rng.random() < 0.5)


def random_rect(rng, dim):
    return QueryRect(
        tuple(Interval(lower=random_bound(rng), upper=random_bound(rng)) for _ in range(dim))
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_matches_linear_scan(dim):
    rng = random.Random(1000 + dim)
    for n in (1, 2, 7, 40):
        points = random_points(rng, n, dim, huge_rate=0.05)
        weights = [rng.randint(0, 5) for _ in range(n)]
        rt = build_range_tree(pts(dim, points, weights))
        for _ in range(150):
            rect = random_rect(rng, dim)
            assert rt.query(rect) == linear_scan(points, weights, rect)


def test_boundary_alignment_with_duplicates():
    # rectangles anchored exactly on coordinates that repeat across points
    rng = random.Random(77)
    points = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(60)]
    weights = [1] * 60
    rt = build_range_tree(pts(2, points, weights))
    for v0 in range(5):
        for v1 in range(5):
            for c0 in (True, False):
                for c1 in (True, False):
                    rect = QueryRect(
                        (Interval(upper=(v0, c0)), Interval(lower=(v1, c1)))
                    )
                    assert rt.query(rect) == linear_scan(points, weights, rect)


@settings(max_examples=80)
@given(st.data())
def test_split_rectangles_add_up(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    n = data.draw(st.integers(0, 30), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**20), label="seed"))
    points = random_points(rng, n, dim)
    weights = [rng.randint(0, 3) for _ in range(n)]
    rt = build_range_tree(pts(dim, points, weights))
    axis = data.draw(st.integers(0, dim - 1), label="axis")
    cut = random_scalar(rng)
    ivs = [Interval() for _ in range(dim)]
    whole = QueryRect(tuple(ivs))
    left = list(ivs)
    left[axis] = Interval(upper=(cut, True))
    right = list(ivs)
    right[axis] = Interval(lower=(cut, False))
    total = rt.query(whole)
    assert total == rt.query(QueryRect(tuple(left))) + rt.query(QueryRect(tuple(right)))
    assert total == sum(weights)


def test_large_randomized_three_dim():
    rng = random.Random(5)
    n = 400
    points = random_points(rng, n, 3)
    weights = [rng.randint(0, 4) for _ in range(n)]
    rt = build_range_tree(pts(3, points, weights))
    for _ in range(300):
        rect = random_rect(rng, 3)
        assert rt.query(rect) == linear_scan(points, weights, rect)


def test_accepts_plain_interval_sequence():
    rt = build_range_tree(pts(2, [(1, 1), (2, 2)]))
    assert rt.query([Interval(upper=(1, True)), Interval()]) == 1


# few distinct values, so points repeat and every bound can sit on a coordinate
EXACT_VALUES = [NEG_INF, -(1 << 70), -3, Fraction(-1, 2), 0, Fraction(1, 3), 2, 1 << 70]


def exact_bound(rng):
    if rng.random() < 0.2:
        return None
    return (rng.choice(EXACT_VALUES + [INF]), rng.random() < 0.5)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "weight_pool",
    [(0, 1, 3, Fraction(1, 3), Fraction(5, 7)), (1 << 62, 5)],
    ids=["fractions", "past-int64"],
)
def test_rank_cuts_on_exact_coordinates(dim, weight_pool):
    rng = random.Random(2000 + dim)
    for n in (0, 1, 2, 30, 150):
        points = [tuple(rng.choice(EXACT_VALUES) for _ in range(dim)) for _ in range(n)]
        weights = [rng.choice(weight_pool) for _ in range(n)]
        rt = build_range_tree(pts(dim, points, weights))
        # counted as supplied, before equal points are merged
        assert rt.size == n and rt.total_weight == sum(weights)
        for _ in range(200):
            rect = QueryRect(
                tuple(Interval(lower=exact_bound(rng), upper=exact_bound(rng)) for _ in range(dim))
            )
            assert rt.query(rect) == linear_scan(points, weights, rect)
