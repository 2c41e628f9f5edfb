"""Range tree vs. linear scan, boundary semantics, and structural checks."""

import itertools
import math
import random
import tracemalloc
from array import array
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import linear_scan
from stackspt import rangetree
from stackspt.errors import ValidationError
from stackspt.rangetree import (
    Interval,
    QueryRect,
    RangeTree,
    WeightedPointSet,
    _representation,
    build_range_tree,
)
from stackspt.rational import INF, NEG_INF, _scaled


def pts(dim, coords, weights=None):
    coords = tuple(tuple(c) for c in coords)
    if weights is None:
        weights = (1,) * len(coords)
    return WeightedPointSet(dim=dim, points=coords, weights=tuple(weights))


def everywhere(dim):
    return QueryRect(tuple(Interval() for _ in range(dim)))


KINDS = ["bits", "wavelet"]


def forced(kind):
    """Within the block, every tree is built as ``kind``, whatever the chooser would pick."""
    return patch.object(rangetree, "_representation", lambda distinct, counts, weight: (kind, 0, 0))


def build_as(kind, point_set):
    """The tree over ``point_set`` built as ``kind``.  Weights whose unary runs
    alone pass ``MAX_TREE_BYTES`` (those past int64) cannot be built as bits,
    so there the chooser must pick the wavelet."""
    if kind == "bits" and sum(_scaled(list(point_set.weights))[1]) > 8 * rangetree.MAX_TREE_BYTES:
        tree = build_range_tree(point_set)
        assert tree.kind == "wavelet"
        return tree
    with forced(kind):
        tree = build_range_tree(point_set)
    assert tree.kind == kind
    return tree


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

    @pytest.mark.parametrize("bad", [1.5, -1e308, float("nan"), True, False, None, "3"])
    def test_rejects_inexact_coordinates(self, bad):
        with pytest.raises(ValidationError, match="is not an exact scalar"):
            pts(1, [(bad,)])
        with pytest.raises(ValidationError, match="is not an exact scalar"):
            pts(2, [(1, 2), (Fraction(1, 3), bad)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            pts(1, [(1,)], weights=(-1,))
        with pytest.raises(ValidationError):
            pts(1, [(1,)], weights=(0.5,))
        for bad in (INF, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="is not an exact finite scalar"):
                pts(1, [(1,)], weights=(bad,))

    @pytest.mark.parametrize("bad", [1.5, -1e308, float("nan"), True, None, "3"])
    def test_rejects_bad_bound_value(self, bad):
        with pytest.raises(ValidationError, match="must be an exact scalar"):
            Interval(upper=(bad, True))
        with pytest.raises(ValidationError, match="must be an exact scalar"):
            Interval(lower=(bad, False), upper=(3, True))

    def test_accepts_float_infinities(self):
        # INF and NEG_INF are float +inf and -inf, so either spelling is the sentinel
        tree = build_range_tree(pts(2, [(float("-inf"), 1), (0, INF)], weights=(3, 4)))
        assert tree.query(QueryRect((Interval(upper=(NEG_INF, True)), Interval()))) == 3
        assert tree.query(QueryRect((Interval(), Interval(lower=(float("inf"), True))))) == 4

    def test_rejects_non_interval_axis(self):
        with pytest.raises(ValidationError):
            QueryRect(((None, (3, True)),))

    def test_query_dimension_mismatch(self):
        rt = build_range_tree(pts(2, [(1, 2)]))
        with pytest.raises(ValidationError):
            rt.query(everywhere(3))
        with pytest.raises(ValidationError):
            rt.query(everywhere(1))

    def test_count_dimension_mismatch(self):
        rt = build_range_tree(pts(2, [(1, 5), (2, 1)]))
        assert rt.count([2, 1]) == 1
        with pytest.raises(ValidationError):
            rt.count([1])
        with pytest.raises(ValidationError):
            rt.count([2, 2, 1])


class TestTrivial:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_empty_set_answers_zero(self, dim, kind):
        rt = build_as(kind, pts(dim, []))
        assert rt.size == 0 and rt.total_weight == 0 and rt.count([INF] * dim) == 0
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_matches_linear_scan(dim, kind):
    rng = random.Random(1000 + dim)
    for n in (1, 2, 7, 40):
        points = random_points(rng, n, dim, huge_rate=0.05)
        weights = [rng.randint(0, 5) for _ in range(n)]
        rt = build_as(kind, pts(dim, points, weights))
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "weight_pool",
    [(0, 1, 3, Fraction(1, 3), Fraction(5, 7)), (1 << 62, 5)],
    ids=["fractions", "past-int64"],
)
def test_rank_cuts_on_exact_coordinates(dim, weight_pool, kind):
    rng = random.Random(2000 + dim)
    for n in (0, 1, 2, 30, 150):
        points = [tuple(rng.choice(EXACT_VALUES) for _ in range(dim)) for _ in range(n)]
        weights = [rng.choice(weight_pool) for _ in range(n)]
        rt = build_as(kind, pts(dim, points, weights))
        # counted as supplied, before equal points are merged
        assert rt.size == n and rt.total_weight == sum(weights)
        for _ in range(200):
            rect = QueryRect(
                tuple(Interval(lower=exact_bound(rng), upper=exact_bound(rng)) for _ in range(dim))
            )
            assert rt.query(rect) == linear_scan(points, weights, rect)


def test_query_inclusion_exclusion_over_every_end_kind():
    # every mix of absent, open and closed ends on three axes, each end on a
    # point coordinate (NEG_INF among them), with each axis's interval in turn
    # nonempty, a single value, and upside down
    rng = random.Random(25)
    axes = [[NEG_INF, -2, Fraction(1, 2), 3], [NEG_INF, 0, 1], [Fraction(-1, 3), 4, 1 << 70]]
    points = [tuple(rng.choice(vals) for vals in axes) for _ in range(40)]
    points += points[:10]  # duplicates, merged by the build
    weights = [rng.choice((0, 1, 2, Fraction(1, 3), Fraction(2, 3))) for _ in points]
    trees = [build_as(kind, pts(3, points, weights)) for kind in KINDS]
    ends = [None, False, True]  # absent, open, closed
    for kinds in itertools.product(itertools.product(ends, ends), repeat=3):
        for turn in range(3):
            ivs = []
            for axis, (vals, (lo_kind, hi_kind)) in enumerate(zip(axes, kinds)):
                lo, hi = sorted(rng.sample(range(len(vals)), 2))
                lo, hi = [(lo, hi), (lo, lo), (hi, lo)][(turn + axis) % 3]
                ivs.append(Interval(lower=None if lo_kind is None else (vals[lo], lo_kind),
                                    upper=None if hi_kind is None else (vals[hi], hi_kind)))
            rect = QueryRect(tuple(ivs))
            got = [tree.query(rect) for tree in trees]
            want = linear_scan(points, weights, rect)
            assert got[0] == want and repr(got[0]) == repr(got[1]), rect
            assert (type(got[0]) is int) == (Fraction(want).denominator == 1), rect


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=200)
@given(st.data())
def test_count_at_caps_matches_linear_scan(kind, data):
    # the oracle caps every axis at a closed value; caps land on points, and
    # an INF cap leaves its axis uncut
    dim = data.draw(st.integers(1, 4), label="dim")
    point = st.tuples(*[st.sampled_from(EXACT_VALUES)] * dim)
    points = data.draw(st.lists(point, max_size=40), label="points")
    weight = st.sampled_from((0, 1, 3, 1 << 62, Fraction(1, 3), Fraction(5, 7)))
    n = len(points)
    weights = data.draw(st.lists(weight, min_size=n, max_size=n), label="weights")
    rt = build_as(kind, pts(dim, points, weights))
    cap = st.sampled_from(EXACT_VALUES + [INF])
    caps = data.draw(st.lists(cap, min_size=dim, max_size=dim), label="caps")
    rect = QueryRect.dominance([(c, True) for c in caps])
    assert rt.count(caps) == rt.query(rect) == linear_scan(points, weights, rect)


@pytest.mark.parametrize("ids, typecode", [((1 << 16) - 1, "H"), (1 << 16, "q")])
def test_layer_over_65536_ids_matches_linear_scan(ids, typecode):
    # the zero counts are 16-bit while a layer has fewer than 65 536 ids;
    # most points sit at x = 0, so most counts run close to the id count
    rng = random.Random(ids)
    points = [(rng.randrange(300) if y % 64 == 0 else 0, y) for y in range(ids)]
    weights = [rng.randint(1, 3) for _ in range(ids)]
    with forced("wavelet"):  # whatever the chooser would pick
        rt = build_range_tree(pts(2, points, weights))
    assert rt.distinct == ids and rt._layer[0][0].typecode == typecode
    caps = [(0, ids // 2), (150, ids - 2), (299, INF), (INF, 40000), (-1, INF), (0, -1)]
    caps += [(rng.randrange(300), rng.randrange(ids)) for _ in range(4)]
    for cap in caps:
        rect = QueryRect.dominance([(c, True) for c in cap])
        assert rt.count(cap) == rt.query(rect) == linear_scan(points, weights, rect)
    rect = QueryRect((Interval(lower=(1, True), upper=(200, False)), Interval(lower=(5000, False))))
    assert rt.query(rect) == linear_scan(points, weights, rect)


def layer_bytes(layer) -> int:
    """Bytes in the arrays of a wavelet structure: zero counts and weight sums."""
    if isinstance(layer, array):
        return len(layer) * layer.itemsize
    return sum((zeros is not None and len(zeros) * zeros.itemsize) + layer_bytes(sub)
               for zeros, _, sub in layer)


@pytest.mark.parametrize(
    "dim, n, spread", [(1, 0, 5), (1, 50, 5), (2, 0, 5), (2, 40, 3), (3, 90, 30), (4, 60, 9),
                       (2, 1 << 16, 3)])
def test_predictions_match_what_is_built(dim, n, spread):
    rng = random.Random(dim * n + spread)
    points = [tuple(rng.randrange(spread) for _ in range(dim - 1)) + (y,) for y in range(n)]
    weights = [rng.randint(1, 3) for _ in range(n)]
    counts = [len(set(col)) for col in zip(*points)] or [0] * dim
    total = sum(weights)
    kind, bits, wavelet = _representation(n, counts, total)
    rt = build_range_tree(pts(dim, points, weights))
    assert (rt.kind, rt.predicted) == (kind, (bits, wavelet))
    nodes = math.prod((c - 1).bit_length() + 1 for c in counts[:-1])
    short = (total + 7) // 8 <= rangetree._MASK_BYTES_PER_STEP * nodes
    assert kind == ("bits" if dim > 1 and short and bits <= wavelet else "wavelet")
    as_bits = build_as("bits", pts(dim, points, weights))
    assert [len(masks) for masks in as_bits._masks] == [c + 1 for c in counts[:-1]]
    assert as_bits._cut[-1] == total  # one bit per unit of weight
    masks = [mask for masks in as_bits._masks for mask in masks]
    assert all(mask.bit_length() <= total for mask in masks)
    assert len(masks) * ((total + 7) // 8) == bits
    assert layer_bytes(build_as("wavelet", pts(dim, points, weights))._layer) == wavelet


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_total_weight_past_the_wavelet_bytes_keeps_the_wavelet(dim):
    # two distinct points of two values per axis: the bits hold 3 (d - 1) masks of
    # one bit per unit of weight, the wavelet a size fixed by the points alone
    points = [(0,) * dim, (1,) * dim, (1,) * dim]
    wavelet = layer_bytes(build_as("wavelet", pts(dim, points))._layer)
    rows = 3 * (dim - 1)
    most = 8 * (wavelet // rows)  # the largest total weight whose masks fit in as many bytes
    for total, kind in ((most, "bits"), (most + 1, "wavelet")):
        point_set = pts(dim, points, weights=(total - 3, 1, 2))
        rt = build_range_tree(point_set)
        assert rt.kind == kind and rt.predicted == (rows * ((total + 7) // 8), wavelet)
        other = build_as({"bits": "wavelet", "wavelet": "bits"}[kind], point_set)
        for caps in ([0] * dim, [1] * (dim - 1) + [0], [1] * (dim - 1) + [INF], [INF] * dim):
            rect = QueryRect.dominance([(c, True) for c in caps])
            assert rt.count(caps) == other.count(caps) == linear_scan(points, point_set.weights, rect)


@pytest.mark.parametrize("dim", [2, 3])
def test_masks_past_the_bytes_per_step_keep_the_wavelet(dim):
    # 200 distinct points of two values per axis before the last: the bits stay
    # smaller in bytes, but past _MASK_BYTES_PER_STEP mask bytes per wavelet
    # node (2 per such axis) a count would AND longer masks than a walk takes steps
    points = [(y % 2,) * (dim - 1) + (y,) for y in range(200)]
    most = 8 * rangetree._MASK_BYTES_PER_STEP * 2 ** (dim - 1)
    for total, kind in ((most, "bits"), (most + 1, "wavelet")):
        point_set = pts(dim, points, weights=[1] * 199 + [total - 199])
        rt = build_range_tree(point_set)
        assert rt.kind == kind and rt.predicted[0] < rt.predicted[1]
        other = build_as({"bits": "wavelet", "wavelet": "bits"}[kind], point_set)
        for caps in ([0] * (dim - 1) + [INF], [1] * (dim - 1) + [150], [INF] * dim):
            rect = QueryRect.dominance([(c, True) for c in caps])
            assert rt.count(caps) == other.count(caps) == linear_scan(points, point_set.weights, rect)


def test_bits_build_allocates_the_masks_it_predicts():
    # the 65 536-point shape of test_predictions_match_what_is_built, as bits: each
    # axis sets its runs in one row of bytes, so the build's traced peak is the
    # predicted masks plus about 300 bytes of bookkeeping per point (the merged
    # points, ranks, order and run starts), not a shifted int per point
    rng = random.Random(1 << 16)
    points = [(rng.randrange(3), y) for y in range(1 << 16)]
    point_set = pts(2, points, [rng.randint(1, 3) for _ in points])
    tracemalloc.start()
    try:
        rt = build_as("bits", point_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rt.predicted[0] + 512 * len(points)
    assert rt.count([1, 40000]) == linear_scan(
        points, point_set.weights, QueryRect.dominance([(1, True), (40000, True)]))


def test_one_axis_keeps_its_running_sums():
    rt = build_range_tree(pts(1, [(0,), (1,)]))
    assert rt.kind == "wavelet" and rt.predicted == (0, 24)
    assert list(rt._layer) == [0, 1, 2]


@pytest.mark.parametrize("kind", KINDS)
def test_fraction_weights_count_an_int_when_integral(kind):
    rt = build_as(kind, pts(2, [(0, 0), (1, 1), (2, 2)], (Fraction(1, 3), Fraction(2, 3), 2)))
    counts = [rt.count([0, 0]), rt.count([1, 1]), rt.count([INF, INF])]
    assert counts == [Fraction(1, 3), 1, 3] and [type(c) for c in counts] == [Fraction, int, int]
    whole = QueryRect((Interval(lower=(0, True)), Interval(upper=(1, True))))
    assert type(rt.query(whole)) is int and rt.query(whole) == 1


def test_refuses_a_tree_past_the_size_cap():
    points = [(x, y, z) for x in range(6) for y in range(5) for z in range(4)]
    _, bits, wavelet = _representation(120, [6, 5, 4], 120)
    with patch.object(rangetree, "MAX_TREE_BYTES", min(bits, wavelet) - 1), \
            patch.object(rangetree, "_layer", None), patch.object(rangetree, "_prefix_masks", None):
        with pytest.raises(ValidationError) as exc:  # before either representation is built
            build_range_tree(pts(3, points))
    assert str(exc.value) == (
        f"range tree of d=3 axes over D=120 distinct points would take {bits} bytes as bitsets "
        f"or {wavelet} as wavelet levels, past the cap of {min(bits, wavelet) - 1} bytes")
    with patch.object(rangetree, "MAX_TREE_BYTES", min(bits, wavelet)):
        assert build_range_tree(pts(3, points)).count([2, 2, 2]) == 27
