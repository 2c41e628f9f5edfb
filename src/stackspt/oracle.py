"""Fast revenue evaluation: preprocess once, answer pricing queries in polylog time.

The pipeline: 1 full + k bounded fixed-only sweeps feed the model graph; each
price vector maps to a reduced tree via a (2k+1)-vertex Dijkstra run; for
every edge of that tree, the vertices it can serve at some positive price
embed as weighted points whose dominance rectangle membership decides the
classification; one memoized range tree per edge of each reduced tree met
so far turns the revenue formula

    revenue(p) = sum over tree edges e_i of  price(sigma_i) * weight(V(e_i, p))

into a handful of range queries.  Answers agree exactly with the naive
per-query shortest path tree computation.

Fixed-only distances keep the unit the sweeps compute them in, times the
instance's cost scale (``model.scale``): the tables, model weights and
embedded points are exact ints, so each range tree's sorted values are the
very lists a query cuts.  A vertex whose fixed-only distance no route through
an edge undercuts even at price 0 is never served by it: the head's sweep
leaves it INF, and a plan's route gives it no point.  A plan, built once per
reduced tree, keeps each edge's route, signature and range tree.  A query
scales the prices to ints once and shares them between the model-graph
sweep and the cuts.  The sweep's parents tuple finds the plan, so a tree met
before is neither rebuilt nor revalidated.  The query then sums each route's
price once and turns each rectangle side into an integer rank cut with one
floor division and one binary search; the range tree counts in rank space.
"""

from __future__ import annotations

import logging
import threading
import time
from bisect import bisect_right
from typing import Iterable, Optional, Sequence, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Instance, PriceFunction, as_prices
from .model import (
    ModelGraph,
    ReducedTree,
    build_model_graph,
    reduced_tree,
    sequence_of,
    tree_parents,
    w_infinity,
)
from .rangetree import QueryRect, RangeTree, WeightedPointSet, build_range_tree
from .rational import INF, NEG_INF, ExtScalar, Scalar, is_finite
from .shortest import _fixed_sweep, _scaled_prices, _unscaled, chi_sum

__all__ = [
    "RevenueOracle",
    "build_oracle",
    "embed_points",
    "query_intervals",
]

_log = logging.getLogger("stackspt")
_UNBUILT = object()  # the plan memo's answer for a parents tuple it has not met


class RevenueOracle:
    """Preprocessed pricing-query structure for one instance.

    Holds the fixed-only distance tables ``d_root`` and ``d_t`` (times the
    cost scale ``model.scale``; ``d_t[i-1]`` is INF wherever no route through
    e_i undercuts ``d_root``), the label ``floors`` of ``build_oracle``, the
    model graph, and a lazily populated memo from each reduced tree's parents
    tuple to its query plan, which holds the range trees of that tree's
    edges, or to None for the empty tree.  Concurrent queries are safe; the
    first query needing a given plan builds it, and its trees, exactly once.
    """

    def __init__(
        self,
        inst: Instance,
        mg: ModelGraph,
        d_root: tuple[ExtScalar, ...],
        d_t: tuple[tuple[ExtScalar, ...], ...],
        floors: tuple[ExtScalar, ...],
        unreachable_demand: Optional[int],
    ):
        self.instance = inst
        self.model = mg
        self.d_root = d_root
        self.d_t = d_t
        self.floors = floors
        self._unreachable_demand = unreachable_demand
        self._plans: dict[tuple, Optional[_Plan]] = {}
        self._lock = threading.Lock()

    @property
    def k(self) -> int:
        return self.instance.k

    def reduced_tree_for(self, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
        return reduced_tree(self.model, prices)

    def _plan_for(self, parents: tuple) -> Optional[_Plan]:
        """The memoized plan of the reduced tree with these parents, None when
        the tree is empty.  A miss validates the tree and builds its range trees."""
        plan = self._plans.get(parents, _UNBUILT)
        if plan is _UNBUILT:
            with self._lock:
                plan = self._plans.get(parents, _UNBUILT)
                if plan is _UNBUILT:
                    rt = ReducedTree(parents)
                    plan = self._build_plan(rt) if rt.edges else None
                    self._plans[parents] = plan
        return plan

    def _build_plan(self, rt: ReducedTree) -> _Plan:
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
        return plan

    def warm_up(self, trees: Iterable[ReducedTree]) -> None:
        """Build the plan, and so every range tree, of each given reduced tree."""
        for rt in trees:
            _check_k(self, rt)
            self._plan_for(rt.parents)

    def _rows(self, prices) -> tuple[tuple, Optional[_Plan], int, list]:
        """The reduced tree's parents and plan, the price scale S, and per edge
        (label, route price times S, served weight)."""
        p = as_prices(prices, self.k)
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(
                f"vertex {self._unreachable_demand} has positive demand "
                "but is unreachable from the root"
            )
        scale, ps = _scaled_prices(self.model.scale, p.values)
        parents = tree_parents(self.model, scale, ps)
        plan = self._plan_for(parents)
        if plan is None:
            return parents, None, scale, []
        f = scale // self.model.scale
        totals = plan.route_prices(ps)
        rows = []
        for at, tree in enumerate(plan.trees):
            cuts = [
                (0, bisect_right(ints, u // f if closed else (u - 1) // f))
                for ints, (u, closed) in zip(tree.values, _uppers(totals, plan.chis, at))
            ]
            rows.append((plan.labels[at], totals[at], tree.count(cuts)))
        return parents, plan, scale, rows

    def revenue(self, prices: Union[PriceFunction, Sequence]) -> Scalar:
        """Exact revenue of a price vector, an int whenever it is integral."""
        _parents, _plan, scale, rows = self._rows(prices)
        if not rows:
            return 0
        return _unscaled(sum(price * served for _, price, served in rows), scale)

    def revenue_breakdown(
        self, prices: Union[PriceFunction, Sequence]
    ) -> tuple[ReducedTree, tuple[tuple[int, Scalar, Scalar], ...]]:
        """The reduced tree plus (label, route price, served weight) per edge."""
        parents, plan, scale, rows = self._rows(prices)
        rt = ReducedTree(parents) if plan is None else plan.rt
        return rt, tuple((label, _unscaled(price, scale), served) for label, price, served in rows)

    @property
    def materialized_keys(self) -> frozenset:
        """(reduced tree, label) for every range tree built so far."""
        plans = [plan for plan in list(self._plans.values()) if plan is not None]  # a copy
        return frozenset((plan.rt, label) for plan in plans for label in plan.labels)


class _Plan:
    """What a query needs of one non-empty reduced tree, in ``rt.edges`` order.

    Holds the tree itself and, per present edge: its route as 0-based price
    indices from the root down, its signature ``chi_sum``, ``w_infinity`` of
    its route and its range tree, whose ``values`` are the sorted int (or
    NEG_INF) coordinates a query cuts.  The oracle fills ``trees`` before it
    publishes the plan.
    """

    __slots__ = ("rt", "labels", "routes", "chis", "w_inf", "trees")

    def __init__(self, mg: ModelGraph, rt: ReducedTree):
        self.rt = rt
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

    def route_prices(self, ps: list[int]) -> list[int]:
        """Each route's price, from the prices ``ps`` by label - 1."""
        return [sum(map(ps.__getitem__, route)) for route in self.routes]


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


def _check_k(oracle: RevenueOracle, rt: ReducedTree) -> None:
    if rt.k != oracle.k:
        raise ValidationError(f"reduced tree has k = {rt.k}, the oracle has k = {oracle.k}")


def build_oracle(inst: Instance) -> RevenueOracle:
    """Run the one-time preprocessing: 1 full fixed-only sweep from the root,
    k bounded ones from the heads, and the model graph.  Label i's floor (the
    cheapest fixed-only route to tail_i with priced edges at 0) settles in a
    Dijkstra over the labels; each head is swept once, at the least floor of
    its labels, settling only vertices where floor + distance < ``d_root``."""
    d_root, reached = _fixed_sweep(inst, inst.root)
    k, heads = inst.k, [inst.target_of(i) for i in range(1, inst.k + 1)]
    floors = [d_root[inst.source_of(i)] for i in range(1, k + 1)]
    d_t: list = [None] * k
    by_head: dict = {}
    todo = list(range(k))
    while todo:
        i = min(todo, key=floors.__getitem__)
        todo.remove(i)
        lb, head = floors[i], heads[i]
        table = by_head.get(head)
        if table is None:
            start = time.perf_counter()
            table = _fixed_sweep(inst, head, lb, d_root)[0] if is_finite(lb) else (INF,) * inst.n
            by_head[head] = table
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("head sweep for edges %s: head=%d floor=%s settled=%d sweep_s=%.4f",
                           [j + 1 for j in range(k) if heads[j] == head], head, lb,
                           sum(map(is_finite, table)), time.perf_counter() - start)
        d_t[i] = table
        for j in todo:
            d = table[inst.source_of(j + 1)]
            if is_finite(d):  # INF + a huge int would overflow
                floors[j] = min(floors[j], lb + d)
    mg = build_model_graph(inst, d_root, d_t)
    # the raw sweep also crosses priceable slots: INF there means no route at all
    unreachable = next((v for v, d in enumerate(reached) if d is INF and inst.demand[v]), None)
    return RevenueOracle(inst, mg, d_root, tuple(d_t), tuple(floors), unreachable)


def embed_points(
    oracle: RevenueOracle, rt: ReducedTree, label: int, plan: Optional[_Plan] = None
) -> WeightedPointSet:
    """The point set behind the classification test for one reduced-tree edge.

    One point per vertex the edge can serve at some positive price: its head
    reaches v on fixed edges, and the own-axis coordinate ``w_here + d_here[v]
    - d_root[v]`` is negative or NEG_INF.  A vertex at or above 0 there lies
    outside every rectangle, whose own-axis bound is minus the route's price,
    so it gets no point.  One axis per edge of the reduced tree (ascending
    label order), with coordinates times the cost scale: exact ints, or
    NEG_INF.  A vertex belongs to V(e_label, p) exactly when it has a point
    that dominates none of the query rectangle's bounds.  Routes and
    ``w_infinity`` come from ``plan``, or from the oracle's plan of ``rt``,
    or are computed afresh.
    """
    _check_k(oracle, rt)
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    if plan is None:
        plan = oracle._plans.get(rt.parents) or _Plan(oracle.model, rt)
    inst = oracle.instance
    d_here = oracle.d_t[label - 1]
    w_here = plan.w_inf[plan.labels.index(label)]
    d_root = oracle.d_root
    # per axis: the distance table and the route cost that the point subtracts
    axes = [
        (d_root, 0) if j == label else (oracle.d_t[j - 1], w)
        for j, w in zip(plan.labels, plan.w_inf)
    ]
    points = []
    weights = []
    for v in range(inst.n):
        dtv = d_here[v]
        if not is_finite(dtv):
            continue
        base = w_here + dtv
        if is_finite(d_root[v]) and base >= d_root[v]:
            continue  # own-axis coordinate >= 0: no positive price serves v
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

    Axis order and unit match embed_points: the bounds are the ones a query
    cuts the range tree at (``_uppers``), times the cost scale, exact scalars.
    """
    _check_k(oracle, rt)
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    plan = oracle._plans.get(rt.parents) or _Plan(oracle.model, rt)
    scale, ps = _scaled_prices(oracle.model.scale, as_prices(prices, oracle.k).values)
    uppers = _uppers(plan.route_prices(ps), plan.chis, plan.labels.index(label))
    f = scale // oracle.model.scale
    return QueryRect.dominance([(_unscaled(u, f), closed) for u, closed in uppers])
