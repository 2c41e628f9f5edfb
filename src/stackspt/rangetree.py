"""Weighted orthogonal range searching over a static point set.

Dominance counting in rank space.  Equal points are merged (weights summed,
zero weights dropped) and each axis is mapped once to integer ranks against
one sorted list of its distinct exact values.  The points are sorted once, by
last-axis rank, into whichever representation ``_representation`` picks (past
``MAX_TREE_BYTES`` the build is refused), and each counts through one
primitive, ``_prefix(his, cut)``: the weight in the first ``cut`` slots whose
ranks on the other axes lie below ``his``, where a slot is a point, or a unit
of weight in the bits, and ``_cut[r]`` counts the slots below last-axis rank
r.  ``count``, the oracle's dominance query, bisects its closed caps into
ranks for one prefix; ``query`` sums signed prefixes by inclusion-exclusion
over every lower end.  Weights are ints (``rational._scaled``), divided back
once: a count is an int when integral.

- **bits** (word-level counting, after Chan and Patrascu): in last-axis
  order, a point of weight w is a run of w bits, W bits in all.  Each axis
  before the last keeps R + 1 prefix masks (the runs of the points ranked
  below h), and the last axis is the first ``cut`` bits.  (d - 1)(R + 1)W
  bits; a prefix is d - 1 ANDs and one popcount, of W bits each.
- **wavelet**, for one axis, for many values on one or two axes and for
  a large W: every axis before the last is a wavelet matrix.  Per rank
  bit, from the top, the sequence is stably partitioned (0 bits first) and
  a flat array keeps the running count of 0 bits (16-bit below 65 536
  points), so a node's slots [a, b) map to its children's with two
  lookups; each level holds the next axis's structure, and the last axis
  keeps running weight sums.  About D (log R + 1)^(d-1) slots; a prefix is
  one walk (``_cover``) of O(log^(d-1) R) steps.

Coordinates and query bounds are exact rationals, with ``NEG_INF`` and ``INF``
(float -inf and +inf) usable as sentinels; finite floats, nan and bools are
rejected.  Every interval end is independently open, closed, or absent, and
all comparisons are exact, so points lying precisely on a boundary are
included or excluded per the interval, never by rounding.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import prod
from typing import Optional, Sequence, Union

from .errors import ValidationError
from .rational import FINITE_TYPES, INF, ExtScalar, Scalar, _scaled, _unscaled, format_scalar

__all__ = [
    "Interval",
    "QueryRect",
    "WeightedPointSet",
    "RangeTree",
    "build_range_tree",
]

Bound = tuple[ExtScalar, bool]  # (value, end is closed)

_I64 = 1 << 63

# Past this many predicted bytes a tree is refused before it is allocated.
MAX_TREE_BYTES = 1 << 30

# Up to this many mask bytes per wavelet walk step, a bits count keeps up with
# the walk (measured: BENCH_2026-10-20-unary.json, "count_crossover").
_MASK_BYTES_PER_STEP = 256


def _is_exact(x: object) -> bool:
    """True for an int or Fraction that is not a bool, and for INF and NEG_INF."""
    if isinstance(x, float):
        return abs(x) == INF
    return isinstance(x, FINITE_TYPES) and not isinstance(x, bool)


def _check_bound(bound: Optional[Bound], what: str) -> Optional[Bound]:
    if bound is None:
        return None
    value, closed = bound
    if not _is_exact(value):
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
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValidationError(f"dimension must be an int >= 1, got {self.dim!r}")
        if len(self.points) != len(self.weights):
            raise ValidationError("points and weights differ in length")
        for pt in self.points:
            if len(pt) != self.dim:
                raise ValidationError(f"point {pt!r} is not {self.dim}-dimensional")
            for x in pt:
                if type(x) is not int and not _is_exact(x):  # ints skip the call
                    raise ValidationError(f"coordinate {x!r} is not an exact scalar")
        for w in self.weights:
            if not isinstance(w, FINITE_TYPES) or isinstance(w, bool):
                raise ValidationError(f"weight {w!r} is not an exact finite scalar")
            if w < 0:
                raise ValidationError(f"weights must be nonnegative, got {format_scalar(w)}")

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
    then stably partitioned, 0 bits first, for the next bit.  The counts are
    ``array('H')`` when ``seq`` has fewer than 65 536 ids, else ``array('q')``.
    """
    if not axes:
        return sums(accumulate([ws[i] for i in seq], initial=0))
    (rank, bits), deeper = axes[0], axes[1:]
    typecode = "H" if len(seq) < 1 << 16 else "q"
    levels = []
    for shift in reversed(range(bits)):
        zero = [not rank[i] >> shift & 1 for i in seq]
        zeros = array(typecode, accumulate(zero, initial=0))
        levels.append((zeros, zeros[-1], _layer(seq, deeper, ws, sums)))
        seq = [i for i, f in zip(seq, zero) if f] + [i for i, f in zip(seq, zero) if not f]
    levels.append((None, 0, _layer(seq, deeper, ws, sums)))
    return levels


def _cover(layer, a: int, b: int, his: list) -> Scalar:
    """Weight at the slots [a, b) of one node of ``layer`` whose ranks on the axes
    before the last lie below ``his`` (a whole axis at its width).  The walk towards each
    ``hi`` counts the 0 child it leaves at each 1 bit, until ``hi`` has none left."""
    if not his:
        return layer[b] - layer[a]
    hi, rest = his[0], his[1:]
    width = 1 << (len(layer) - 1)
    if hi >= width:
        return _cover(layer[0][2], a, b, rest)
    total: Scalar = 0
    t = 0
    while a < b and hi & (width - 1):
        zeros, z, _ = layer[t]
        za, zb = zeros[a], zeros[b]
        width >>= 1
        t += 1
        if hi & width:
            if za < zb:
                sub = layer[t][2]
                total += _cover(sub, za, zb, rest) if rest else sub[zb] - sub[za]
            a, b = z + a - za, z + b - zb
        else:
            a, b = za, zb
    return total


def _representation(distinct: int, counts: Sequence[int], weight: int) -> tuple:
    """(kind, bits bytes, wavelet bytes) for ``distinct`` points of total int
    weight ``weight`` and ``counts[a]`` values on axis a.  Bits: count + 1
    masks per axis before the last, of ``weight`` bits each.  Wavelet: with b
    rank bits per such axis, prod(b + 1) arrays of distinct + 1 8-byte weight
    sums and one fewer of 0-bit counts (2-byte below 65 536 points).  The
    smaller wins, but the bits need two axes and masks of at most
    ``_MASK_BYTES_PER_STEP`` bytes per step of a walk (prod(b + 1) at most)."""
    before = counts[:-1]
    nodes = prod((c - 1).bit_length() + 1 for c in before)
    zero = 2 if distinct < 1 << 16 else 8
    bits = (weight + 7) // 8 * sum(c + 1 for c in before)
    wavelet = (distinct + 1) * (8 * nodes + zero * (nodes - 1))
    fast = len(counts) > 1 and weight <= 8 * _MASK_BYTES_PER_STEP * nodes
    return "bits" if fast and bits <= wavelet else "wavelet", bits, wavelet


def _prefix_masks(order: list, starts: list, rank: list, count: int) -> list[int]:
    """Per h in 0..count, the int whose bits [starts[i], starts[i + 1]) are set when
    ``order[i]`` ranks below h: the runs of the points ranked below h."""
    at: list[list[int]] = [[] for _ in range(count)]
    for i, pid in enumerate(order):
        at[rank[pid]].append(i)
    row = bytearray((starts[-1] + 7) // 8)
    masks = [0]
    for slots in at:
        for i in slots:  # a run's whole bytes by slice, its edge bytes by OR
            s, e = starts[i], starts[i + 1]
            lo, hi = s >> 3, e >> 3
            if lo < hi:
                row[lo] |= 256 - (1 << (s & 7))
                row[lo + 1:hi] = b"\xff" * (hi - lo - 1)
                s = hi << 3
            if s < e:
                row[hi] |= (1 << (e & 7)) - (1 << (s & 7))
        masks.append(int.from_bytes(row, "little"))
    return masks


def _rank_cut(iv: Interval, values: list) -> tuple[int, int]:
    """The ranks [lo, hi) of the sorted ``values`` (of one axis) inside ``iv``."""
    lo, hi = 0, len(values)
    if iv.lower is not None:
        v, closed = iv.lower
        lo = bisect_left(values, v) if closed else bisect_right(values, v)
    if iv.upper is not None:
        v, closed = iv.upper
        hi = bisect_right(values, v) if closed else bisect_left(values, v)
    return lo, max(lo, hi)


class RangeTree:
    """Immutable weighted range-search structure over a fixed point set.

    ``size`` and ``total_weight`` count the points as supplied; ``distinct``
    the points stored, once equal points are merged and zero weights dropped.
    ``values[axis]`` is the sorted list of that axis's distinct coordinates,
    whose ranks ``count`` and ``query`` count in, by bisecting it.  ``kind``
    names the representation built, ``"bits"`` or ``"wavelet"``, whichever
    ``_representation`` picks (``predicted``: the bytes of both).
    """

    __slots__ = ("dim", "size", "distinct", "total_weight", "values", "kind", "predicted",
                 "_cut", "_layer", "_masks", "_scale")

    def __init__(self, pts: WeightedPointSet):
        self.dim = pts.dim
        self.size = len(pts)
        merged: dict = {}
        for pt, w in zip(pts.points, pts.weights):
            if w:
                merged[pt] = merged.get(pt, 0) + w
        self.total_weight = sum(pts.weights)
        points = list(merged)
        self.distinct = len(points)
        # per axis: sorted distinct values and point ranks
        values, ranks = [], []
        for axis in range(self.dim):
            col = [pt[axis] for pt in points]
            vals = sorted(set(col))
            rank_of = dict(zip(vals, range(len(vals))))
            values.append(vals)
            ranks.append([rank_of[x] for x in col])
        self.values = tuple(values)
        self._scale, ws = _scaled([merged[pt] for pt in points])
        counts = list(map(len, values))
        weight = sum(ws)
        self.kind, bits, wavelet = _representation(len(points), counts, weight)
        self.predicted = bits, wavelet
        if (bits if self.kind == "bits" else wavelet) > MAX_TREE_BYTES:
            raise ValidationError(
                f"range tree of d={self.dim} axes over D={len(points)} distinct points would "
                f"take {bits} bytes as bitsets or {wavelet} as wavelet levels, "
                f"past the cap of {MAX_TREE_BYTES} bytes")
        last = ranks.pop()
        width = ws if self.kind == "bits" else [1] * len(points)  # bits or slots per point
        per_rank = [0] * (len(values[-1]) + 1)
        for r, w in zip(last, width):
            per_rank[r + 1] += w
        self._cut = array("q", accumulate(per_rank))
        order = sorted(range(len(points)), key=last.__getitem__)
        if self.kind == "bits":
            self._layer = None
            starts = list(accumulate([ws[i] for i in order], initial=0))
            self._masks = [_prefix_masks(order, starts, r, c) for r, c in zip(ranks, counts)]
            return
        axes = [(r, (c - 1).bit_length()) for r, c in zip(ranks, counts)]
        self._layer = _layer(order, axes, ws, partial(array, "q") if weight < _I64 else list)

    def _prefix(self, his: list, cut: int) -> int:
        """Scaled weight in the first ``cut`` slots in last-axis order whose
        ranks on the other axes lie below ``his``."""
        if self._layer is not None:
            return _cover(self._layer, 0, cut, his)
        mask = (1 << cut) - 1
        for masks, hi in zip(self._masks, his):
            mask &= masks[hi]
        return mask.bit_count()

    def query(self, rect: Union[QueryRect, Sequence[Interval]]) -> Scalar:
        """Weight of the points inside ``rect``, ends open, closed or absent: signed
        rank prefixes, by inclusion-exclusion over every lower end."""
        ivs = rect.intervals if isinstance(rect, QueryRect) else tuple(rect)
        if len(ivs) != self.dim:
            raise ValidationError(f"rectangle has {len(ivs)} axes, tree has {self.dim}")
        terms = [(1, [])]  # (sign, rank prefix ends); a prefix below rank 0 is empty
        for lo, hi in map(_rank_cut, ivs, self.values):
            terms = [(s, ends + [hi]) for s, ends in terms] + [
                (-s, ends + [lo]) for s, ends in terms if lo]
        total = sum(s * self._prefix(his, self._cut[last]) for s, (*his, last) in terms)
        return total if self._scale == 1 else _unscaled(total, self._scale)

    def count(self, caps: Sequence[ExtScalar]) -> Scalar:
        """Weight of the points at or below ``caps``, one closed cap per axis (INF: uncut)."""
        if len(caps) != self.dim:
            raise ValidationError(f"{len(caps)} caps given, tree has {self.dim} axes")
        *his, last = map(bisect_right, self.values, caps)
        total = self._prefix(his, self._cut[last])
        return total if self._scale == 1 else _unscaled(total, self._scale)


def build_range_tree(pts: WeightedPointSet) -> RangeTree:
    """Preprocess a weighted point set for rectangle weight-sum queries.

    The oracle builds every tree through this name, so that a tracer wrapping
    it (``perfbench/layers.py``) can time the builds by dimension.
    """
    return RangeTree(pts)
