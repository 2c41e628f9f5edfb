"""Fast revenue evaluation: preprocess once, answer pricing queries in polylog time.

The pipeline: k+1 fixed-only shortest path sweeps feed the model graph; each
price vector maps to a reduced tree via a (2k+1)-vertex Dijkstra run; for
every edge of that tree, the vertices it can serve embed as weighted points
whose dominance rectangle membership decides the classification; a memoized
range tree per (reduced tree, edge) pair turns the revenue formula

    revenue(p) = sum over tree edges e_i of  price(sigma_i) * weight(V(e_i, p))

into a handful of range queries.  Answers agree exactly with the naive
per-query shortest path tree computation.

Everything a query needs of one reduced tree is kept in its plan, built once:
each edge's route, signature and range tree, and every axis's distinct
coordinates times the instance's cost scale, which are exact ints.  A query
scales the prices to ints once, sums each route's price once, and turns each
rectangle side into an integer rank cut with one floor division and one
binary search; the range tree then counts in rank space.
"""

from __future__ import annotations

import logging
import threading
import time
from bisect import bisect_right
from typing import Iterable, Optional, Sequence, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Instance, PriceFunction
from .model import (  # noqa: F401  seq_price: perfbench/layers.py traces it by this name
    ModelGraph,
    ReducedTree,
    build_model_graph,
    reduced_tree,
    seq_price,
    sequence_of,
    w_infinity,
)
from .rangetree import QueryRect, RangeTree, WeightedPointSet, build_range_tree
from .rational import NEG_INF, ExtScalar, Scalar, is_finite
from .shortest import _csr, _scaled_prices, _unscaled, chi_sum, fixed_cost_sssp

__all__ = [
    "RevenueOracle",
    "build_oracle",
    "embed_points",
    "query_intervals",
]

_log = logging.getLogger("stackspt")
_FLOAT_NEG_INF = float("-inf")


class RevenueOracle:
    """Preprocessed pricing-query structure for one instance.

    Holds the fixed-only distance tables, the model graph, and a lazily
    populated memo of query plans, one per reduced tree, each holding the
    range trees of that tree's edges.  Concurrent queries are safe; the first
    query needing a given plan builds it, and its trees, exactly once.
    """

    def __init__(
        self,
        inst: Instance,
        mg: ModelGraph,
        d_root: tuple[ExtScalar, ...],
        d_t: tuple[tuple[ExtScalar, ...], ...],
        unreachable_demand: Optional[int],
    ):
        self.instance = inst
        self.model = mg
        self.d_root = d_root
        self.d_t = d_t
        self._unreachable_demand = unreachable_demand
        self._cost_scale = _csr(inst)[5]
        self._plans: dict[ReducedTree, _Plan] = {}
        self._lock = threading.Lock()

    @property
    def k(self) -> int:
        return self.instance.k

    def reduced_tree_for(self, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
        return reduced_tree(self.model, _as_prices(prices, self.k))

    def _plan_for(self, rt: ReducedTree) -> _Plan:
        """The memoized plan of a non-empty reduced tree, with its range trees."""
        plan = self._plans.get(rt)
        if plan is None:
            with self._lock:
                plan = self._plans.get(rt)
                if plan is None:
                    plan = _Plan(self.model, rt)
                    for label in rt.edges:
                        pts = embed_points(self, rt, label, plan)
                        start = time.perf_counter()
                        tree = build_range_tree(pts)
                        _log.debug(
                            "range tree for edge %d of reduced tree %s: dim=%d points=%d "
                            "distinct=%d build_s=%.4f",
                            label, rt.parents, tree.dim, tree.size, tree.distinct,
                            time.perf_counter() - start,
                        )
                        plan.trees.append(tree)
                        plan.axes.append(
                            [_scaled_axis(values, self._cost_scale) for values in tree.values]
                        )
                    self._plans[rt] = plan
        return plan

    def warm_up(self, trees: Iterable[ReducedTree]) -> None:
        """Build the plan, and so every range tree, of each given reduced tree."""
        for rt in trees:
            if rt.edges:
                self._plan_for(rt)

    def _rows(self, prices) -> tuple[ReducedTree, int, list]:
        """The reduced tree, the price scale S, and per edge (label, route price
        times S, served weight)."""
        p = _as_prices(prices, self.k)
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(
                f"vertex {self._unreachable_demand} has positive demand "
                "but is unreachable from the root"
            )
        rt = reduced_tree(self.model, p)
        if not rt.edges:
            return rt, 1, []
        plan = self._plan_for(rt)
        scale, ps = _scaled_prices(self._cost_scale, p.values)
        f = scale // self._cost_scale
        totals = plan.route_prices(ps)
        rows = []
        for at, (tree, axes) in enumerate(zip(plan.trees, plan.axes)):
            cuts = [
                (0, bisect_right(ints, u // f if closed else (u - 1) // f))
                for ints, (u, closed) in zip(axes, _uppers(totals, plan.chis, at))
            ]
            rows.append((plan.labels[at], totals[at], tree.count(cuts)))
        return rt, scale, rows

    def revenue(self, prices: Union[PriceFunction, Sequence]) -> Scalar:
        """Exact revenue of a price vector, an int whenever it is integral."""
        _rt, scale, rows = self._rows(prices)
        if not rows:
            return 0
        return _unscaled(sum(price * served for _, price, served in rows), scale)

    def revenue_breakdown(
        self, prices: Union[PriceFunction, Sequence]
    ) -> tuple[ReducedTree, tuple[tuple[int, Scalar, Scalar], ...]]:
        """The reduced tree plus (label, route price, served weight) per edge."""
        rt, scale, rows = self._rows(prices)
        return rt, tuple((label, _unscaled(price, scale), served) for label, price, served in rows)

    @property
    def materialized_keys(self) -> frozenset:
        """(reduced tree, label) for every range tree built so far."""
        plans = dict(self._plans)  # a copy: other threads may be adding plans
        return frozenset((rt, label) for rt, plan in plans.items() for label in plan.labels)


class _Plan:
    """What a query needs of one non-empty reduced tree, in ``rt.edges`` order.

    Per present edge: its route as 0-based price indices from the root down,
    its signature ``chi_sum``, ``w_infinity`` of its route, its range tree,
    and per axis of that tree the sorted distinct coordinates times the
    instance's cost scale (``_scaled_axis``).  The oracle fills ``trees`` and
    ``axes`` before it publishes the plan.
    """

    __slots__ = ("labels", "routes", "chis", "w_inf", "trees", "axes")

    def __init__(self, mg: ModelGraph, rt: ReducedTree):
        self.labels = rt.edges
        seqs = [sequence_of(rt, j) for j in rt.edges]
        self.routes = tuple(tuple(i - 1 for i in seq) for seq in seqs)
        self.chis = tuple(chi_sum(seq) for seq in seqs)
        w_inf = []
        for j, seq in zip(rt.edges, seqs):
            w = w_infinity(mg, seq)
            if not is_finite(w):
                raise ValidationError(
                    f"reduced tree is not realizable: route to edge {j} has no fixed path"
                )
            w_inf.append(w)
        self.w_inf = tuple(w_inf)
        self.trees: list[RangeTree] = []
        self.axes: list[list[list]] = []

    def route_prices(self, ps: list[int]) -> list[int]:
        """Each route's price, from the prices ``ps`` by label - 1."""
        return [sum(map(ps.__getitem__, route)) for route in self.routes]


def _scaled_axis(values: list, cost_scale: int) -> list:
    """Sorted coordinates times ``cost_scale``: exact ints, since every one is
    a sum of fixed-only distances.  NEG_INF, first when present, becomes
    float -inf; no coordinate is INF."""
    head = [] if not values or is_finite(values[0]) else [_FLOAT_NEG_INF]
    return head + [(x * cost_scale).numerator for x in values[len(head):]]


def _uppers(totals: list, chis: Sequence[int], at: int) -> list[tuple[int, bool]]:
    """Upper bound (times the price scale) and closedness per axis of the
    rectangle of the edge at position ``at``, from the route prices ``totals``
    (times the same scale).

    The own axis caps the point at minus the route's price; every other axis
    caps the two routes' price difference, closed exactly when this edge's
    route wins the preference order: higher price first, then higher
    signature.  Distinct routes never tie, since their signatures differ.
    """
    p = totals[at]
    here = (p, chis[at])
    return [
        (-p, True) if j == at else (q - p, here > (q, chi))
        for j, (q, chi) in enumerate(zip(totals, chis))
    ]


def _as_prices(prices: Union[PriceFunction, Sequence], k: int) -> PriceFunction:
    p = prices if isinstance(prices, PriceFunction) else PriceFunction(tuple(prices))
    if len(p) != k:
        raise ValidationError(f"expected {k} prices, got {len(p)}")
    return p


def _reachable_from_root(inst: Instance) -> list[bool]:
    starts, heads = _csr(inst)[:2]
    seen = [False] * inst.n
    seen[inst.root] = True
    stack = [inst.root]
    while stack:
        u = stack.pop()
        for v in heads[starts[u]:starts[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def build_oracle(inst: Instance) -> RevenueOracle:
    """Run the one-time preprocessing: k+1 fixed-only sweeps plus the model graph."""
    d_root = fixed_cost_sssp(inst, inst.root)
    by_vertex: dict[int, tuple[ExtScalar, ...]] = {}
    d_t = []
    for i in range(1, inst.k + 1):
        t = inst.target_of(i)
        table = by_vertex.get(t)
        if table is None:
            table = fixed_cost_sssp(inst, t)
            by_vertex[t] = table
        d_t.append(table)
    mg = build_model_graph(inst, d_root, d_t)
    reachable = _reachable_from_root(inst)
    unreachable = next(
        (v for v in range(inst.n) if inst.demand[v] > 0 and not reachable[v]), None
    )
    return RevenueOracle(inst, mg, d_root, tuple(d_t), unreachable)


def embed_points(
    oracle: RevenueOracle, rt: ReducedTree, label: int, plan: Optional[_Plan] = None
) -> WeightedPointSet:
    """The point set behind the classification test for one reduced-tree edge.

    One point per vertex the edge's head can reach on fixed edges, one axis
    per edge of the reduced tree (ascending label order).  A vertex belongs
    to V(e_label, p) exactly when its point dominates none of the query
    rectangle's bounds.  Routes and ``w_infinity`` come from ``plan``, or
    from the oracle's plan of ``rt``, or are computed afresh.
    """
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    if plan is None:
        plan = oracle._plans.get(rt) or _Plan(oracle.model, rt)
    inst = oracle.instance
    d_here = oracle.d_t[label - 1]
    w_here = plan.w_inf[plan.labels.index(label)]
    # per axis: the distance table and the route cost that the point subtracts
    axes = [
        (oracle.d_root, 0) if j == label else (oracle.d_t[j - 1], w)
        for j, w in zip(plan.labels, plan.w_inf)
    ]
    points = []
    weights = []
    for v in range(inst.n):
        dtv = d_here[v]
        if not is_finite(dtv):
            continue
        base = w_here + dtv
        coords = []
        for table, w in axes:
            d = table[v]
            coords.append(base - w - d if is_finite(d) else NEG_INF)
        points.append(tuple(coords))
        weights.append(inst.demand[v])
    return WeightedPointSet(
        dim=len(plan.labels), points=tuple(points), weights=tuple(weights)
    )


def query_intervals(
    oracle: RevenueOracle, rt: ReducedTree, label: int, prices: PriceFunction
) -> QueryRect:
    """Dominance rectangle whose member points form V(e_label, p).

    Axis order matches embed_points.  The bounds are the ones a query cuts
    the range tree at (``_uppers``), divided back to exact scalars.
    """
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    plan = oracle._plans.get(rt) or _Plan(oracle.model, rt)
    scale, ps = _scaled_prices(oracle._cost_scale, _as_prices(prices, oracle.k).values)
    uppers = _uppers(plan.route_prices(ps), plan.chis, plan.labels.index(label))
    return QueryRect.dominance([(_unscaled(u, scale), closed) for u, closed in uppers])
