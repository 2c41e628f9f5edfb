"""Weighted orthogonal range searching over a static point set.

A layered range tree in rank space.  Equal points are merged (weights summed,
zero weights dropped) and each axis is mapped once to integer ranks against
one sorted list of its distinct exact values.  A query turns every interval
end into a rank cut with one binary search against that list; everything
below compares machine ints.  ``RangeTree.count`` takes the rank cuts
themselves, which is where ``query`` ends too, so a caller that can find the
cuts more cheaply (the revenue oracle does, on integer-scaled copies of the
lists) shares the one counting routine.

The points are sorted once, by their rank on the last axis.  Every other axis
is a wavelet matrix over that sequence: per bit of the axis's ranks, from the
top, the sequence is stably partitioned (0 bits first) and a flat
``array('q')`` keeps the running count of 0 bits, so the slots [a, b) of a
node map to those of its two children with two lookups.  The nodes of one
level are the rank intervals of that depth of a balanced tree on the axis.
Each level also holds the next axis's structure over its own sequence, and
the last axis keeps running weight sums.  Positions found once at the root
are carried exactly into every node, whatever mix of open and closed ends
produced them.  With at most R distinct values per axis, a d-dimensional
build takes O(n log^(d-1) R) time and space, and a query O(log^(d-1) R)
steps after its 2d binary searches.

Coordinates and query bounds are exact rationals, with -infinity (and
+infinity) usable as sentinels.  Every interval end is independently open,
closed, or absent, and all comparisons are exact, so points lying precisely
on a boundary are included or excluded per the interval, never by rounding.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Optional, Sequence, Union

from .errors import ValidationError
from .rational import FINITE_TYPES, ExtScalar, Infinity, Scalar

__all__ = [
    "Interval",
    "QueryRect",
    "WeightedPointSet",
    "RangeTree",
    "build_range_tree",
]

Bound = tuple[ExtScalar, bool]  # (value, end is closed)

_EXT_TYPES = FINITE_TYPES + (Infinity,)
_I64 = 1 << 63


def _check_bound(bound: Optional[Bound], what: str) -> Optional[Bound]:
    if bound is None:
        return None
    value, closed = bound
    if not isinstance(value, _EXT_TYPES) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an exact scalar, got {value!r}")
    return (value, bool(closed))


@dataclass(frozen=True)
class Interval:
    """One axis of a query rectangle; either end may be absent (unbounded)."""

    lower: Optional[Bound] = None
    upper: Optional[Bound] = None

    def __post_init__(self):
        object.__setattr__(self, "lower", _check_bound(self.lower, "lower bound"))
        object.__setattr__(self, "upper", _check_bound(self.upper, "upper bound"))

    def contains(self, x: ExtScalar) -> bool:
        if self.lower is not None:
            v, closed = self.lower
            if x < v or (x == v and not closed):
                return False
        if self.upper is not None:
            v, closed = self.upper
            if x > v or (x == v and not closed):
                return False
        return True


@dataclass(frozen=True)
class QueryRect:
    """Cartesian product of per-axis intervals."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        for iv in self.intervals:
            if not isinstance(iv, Interval):
                raise ValidationError(f"rectangle axes must be Interval, got {iv!r}")

    @classmethod
    def dominance(cls, uppers: Sequence[Optional[Bound]]) -> "QueryRect":
        """Rectangle with every axis unbounded below."""
        return cls(tuple(Interval(lower=None, upper=u) for u in uppers))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, point: Sequence[ExtScalar]) -> bool:
        return all(iv.contains(x) for iv, x in zip(self.intervals, point))


@dataclass(frozen=True)
class WeightedPointSet:
    """Static points with nonnegative weights; duplicates are allowed."""

    dim: int
    points: tuple[tuple[ExtScalar, ...], ...]
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dim}")
        if len(self.points) != len(self.weights):
            raise ValidationError("points and weights differ in length")
        for pt in self.points:
            if len(pt) != self.dim:
                raise ValidationError(f"point {pt!r} is not {self.dim}-dimensional")
            for x in pt:
                if not isinstance(x, _EXT_TYPES) or isinstance(x, bool):
                    raise ValidationError(f"coordinate {x!r} is not an exact scalar")
        for w in self.weights:
            if not isinstance(w, FINITE_TYPES) or isinstance(w, bool):
                raise ValidationError(f"weight {w!r} is not an exact finite scalar")
            if w < 0:
                raise ValidationError(f"weights must be nonnegative, got {w!r}")

    def __len__(self) -> int:
        return len(self.points)


def _layer(seq: list, axes: list, ws: list, sums):
    """The structure over ``seq``: point ids, in last-axis order within each
    node of the enclosing layers.

    ``axes`` lists (rank of each point, number of rank bits) for the axes
    before the last still to resolve, ``ws`` the weights; ``sums`` makes
    running sums.  With no such axis the structure is the running weight sums
    over ``seq``.  Otherwise it is a wavelet matrix on the first axis's ranks:
    per rank bit, from the top, the running count of ids whose bit is 0,
    their total, and the next axis's structure over this ``seq``, which is
    then stably partitioned, 0 bits first, for the next bit.
    """
    if not axes:
        return sums(accumulate([ws[i] for i in seq], initial=0))
    (rank, bits), deeper = axes[0], axes[1:]
    levels = []
    for shift in reversed(range(bits)):
        zero = [not rank[i] >> shift & 1 for i in seq]
        zeros = array("q", accumulate(zero, initial=0))
        levels.append((zeros, zeros[-1], _layer(seq, deeper, ws, sums)))
        seq = [i for i, f in zip(seq, zero) if f] + [i for i, f in zip(seq, zero) if not f]
    levels.append((None, 0, _layer(seq, deeper, ws, sums)))
    return levels


def _cover(layer, a: int, b: int, ranges: list) -> Scalar:
    """Weight at the slots [a, b) of one node of ``layer`` whose points' ranks
    on the axes before the last lie in ``ranges``: (low, high, 2 ** bits)
    per axis, ``high`` raised to 2 ** bits when no value lies above it."""
    (lo, hi, width), rest = ranges[0], ranges[1:]
    total: Scalar = 0
    todo = [(0, 0, width, a, b)]
    while todo:
        t, rl, w, a, b = todo.pop()
        while a < b:
            zeros, z, sub = layer[t]
            if lo <= rl and rl + w <= hi:
                total += _cover(sub, a, b, rest) if rest else sub[b] - sub[a]
                break
            za, zb = zeros[a], zeros[b]
            w >>= 1
            t += 1
            if rl + w < hi:  # the upper half meets the range
                if lo <= rl:  # and covers the lower half
                    if za < zb:
                        sub = layer[t][2]
                        total += _cover(sub, za, zb, rest) if rest else sub[zb] - sub[za]
                elif lo < rl + w:
                    todo.append((t, rl, w, za, zb))
                rl, a, b = rl + w, z + a - za, z + b - zb
            else:
                a, b = za, zb
    return total


def _rank_cut(iv: Interval, values: list) -> tuple[int, int]:
    """The ranks [lo, hi) of the sorted distinct ``values`` inside ``iv``."""
    lo, hi = 0, len(values)
    if iv.lower is not None:
        v, closed = iv.lower
        lo = bisect_left(values, v) if closed else bisect_right(values, v)
    if iv.upper is not None:
        v, closed = iv.upper
        hi = bisect_right(values, v) if closed else bisect_left(values, v)
    return lo, hi


class RangeTree:
    """Immutable weighted range-search structure over a fixed point set.

    ``size`` and ``total_weight`` count the points as supplied; ``distinct``
    the points stored, once equal points are merged and zero weights dropped.
    ``values[axis]`` is the sorted list of that axis's distinct coordinates,
    the rank space ``count`` works in.
    """

    __slots__ = ("dim", "size", "distinct", "total_weight", "values", "_widths", "_cut", "_layer")

    def __init__(self, pts: WeightedPointSet):
        self.dim = pts.dim
        self.size = len(pts)
        total: Scalar = 0
        merged: dict = {}
        for pt, w in zip(pts.points, pts.weights):
            total = total + w
            if w:
                merged[pt] = merged.get(pt, 0) + w
        self.total_weight = total
        points = list(merged)
        self.distinct = len(points)
        # per axis: sorted distinct values, rank space size (a power of 2), point ranks
        values, widths, ranks = [], [], []
        for axis in range(self.dim):
            col = [pt[axis] for pt in points]
            vals = sorted(set(col))
            rank_of = dict(zip(vals, range(len(vals))))
            values.append(vals)
            widths.append(1 << (len(vals) - 1).bit_length())
            ranks.append([rank_of[x] for x in col])
        self.values, self._widths = tuple(values), tuple(widths[:-1])
        last = ranks.pop()
        per_rank = [0] * (len(values[-1]) + 1)
        for r in last:
            per_rank[r + 1] += 1
        self._cut = array("q", accumulate(per_rank))  # slots of last-axis ranks < r
        ws = [merged[pt] for pt in points]
        ints = all(type(w) is int for w in ws) and total < _I64
        self._layer = _layer(
            sorted(range(len(points)), key=last.__getitem__),
            [(r, w.bit_length() - 1) for r, w in zip(ranks, widths)],
            ws,
            partial(array, "q") if ints else list,
        )

    def query(self, rect: Union[QueryRect, Sequence[Interval]]) -> Scalar:
        ivs = rect.intervals if isinstance(rect, QueryRect) else tuple(rect)
        if len(ivs) != self.dim:
            raise ValidationError(
                f"rectangle has {len(ivs)} axes, tree has {self.dim}"
            )
        return self.count([_rank_cut(iv, values) for iv, values in zip(ivs, self.values)])

    def count(self, cuts: Sequence[tuple[int, int]]) -> Scalar:
        """Weight of the points whose rank on every axis lies in its [lo, hi)."""
        lo, hi = cuts[-1]
        if hi <= lo:
            return 0
        a, b = self._cut[lo], self._cut[hi]
        if not self._widths:
            return self._layer[b] - self._layer[a]
        ranges = []
        for (lo, hi), values, width in zip(cuts, self.values, self._widths):
            if hi <= lo:
                return 0
            ranges.append((lo, hi if hi < len(values) else width, width))
        return _cover(self._layer, a, b, ranges)


def build_range_tree(pts: WeightedPointSet) -> RangeTree:
    """Preprocess a weighted point set for rectangle weight-sum queries.

    The oracle builds every tree through this name, so that a tracer wrapping
    it (``perfbench/layers.py``) can time the builds by dimension.
    """
    return RangeTree(pts)
