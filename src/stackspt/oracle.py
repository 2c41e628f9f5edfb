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
reduced tree, keeps each edge's route, range tree and per-axis cut
descriptors.  A query checks and scales the prices to ints once, then runs
the one integer kernel (``_kernel``, which ``solver.solve`` calls directly on
candidates it scaled itself): the model-graph sweep's parents tuple finds
the plan, so a tree met before is neither rebuilt nor revalidated; each
route's price is summed once and each rectangle side becomes an integer rank
cut with one floor division and one binary search; the range tree counts in
rank space.
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
        for at, label in enumerate(rt.edges):
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
            plan.cuts.append(tuple((vals, *ax) for vals, ax in zip(tree.values, plan.axes[at])))
        return plan

    def warm_up(self, trees: Iterable[ReducedTree]) -> None:
        """Build the plan, and so every range tree, of each given reduced tree."""
        for rt in trees:
            _check_k(self, rt)
            self._plan_for(rt.parents)

    def _check_served(self) -> None:
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(f"vertex {self._unreachable_demand} has positive "
                                         "demand but is unreachable from the root")

    def _scaled(self, prices) -> tuple[int, list[int]]:
        """Check a price vector and scale it: (S, the prices times S)."""
        p = as_prices(prices, self.k)
        self._check_served()
        return _scaled_prices(self.model.scale, p.values)

    def _kernel(self, scale: int, ps) -> tuple[tuple, Optional[_Plan], list]:
        """The one evaluation path, for checked prices ``ps`` times ``scale``
        (a multiple of the cost scale): the reduced tree's parents, its plan,
        and per edge (label, route price times ``scale``, served weight)."""
        parents = tree_parents(self.model, scale, ps)
        plan = self._plan_for(parents)
        if plan is None:
            return parents, None, []
        f = scale // self.model.scale
        totals = plan.route_prices(ps)
        rows = []
        for label, p, tree, edge_cuts in zip(plan.labels, totals, plan.trees, plan.cuts):
            cuts = [
                (0, bisect_right(values, (totals[o] - p - (totals[o] + lose > p)) // f))
                for values, o, lose in edge_cuts
            ]
            rows.append((label, p, tree.count(cuts)))
        return parents, plan, rows

    def revenue(self, prices: Union[PriceFunction, Sequence]) -> Scalar:
        """Exact revenue of a price vector, an int whenever it is integral."""
        scale, ps = self._scaled(prices)
        rows = self._kernel(scale, ps)[2]
        if not rows:
            return 0
        return _unscaled(sum(price * served for _, price, served in rows), scale)

    def revenue_breakdown(
        self, prices: Union[PriceFunction, Sequence]
    ) -> tuple[ReducedTree, tuple[tuple[int, Scalar, Scalar], ...]]:
        """The reduced tree plus (label, route price, served weight) per edge."""
        scale, ps = self._scaled(prices)
        parents, plan, rows = self._kernel(scale, ps)
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
    indices from the root down, ``w_infinity`` of its route, its range tree,
    and per axis a cut descriptor (o, lose).  The axis caps the point at
    q - p, p being this route's price and q that of route o of
    ``route_prices`` (its trailing 0 on the own axis).  The cap is closed
    exactly when this route wins the preference order, higher price first,
    then higher signature: open exactly when q + lose > p, with ``lose`` 1
    when route o has the higher ``chi_sum`` (distinct routes never tie
    there).  ``cuts`` prefixes each descriptor with the tree's sorted int
    (or NEG_INF) ``values``; the oracle fills it and ``trees`` before it
    publishes the plan.
    """

    __slots__ = ("rt", "labels", "routes", "w_inf", "axes", "trees", "cuts")

    def __init__(self, mg: ModelGraph, rt: ReducedTree):
        self.rt = rt
        self.labels = rt.edges
        seqs = [sequence_of(rt, j) for j in rt.edges]
        self.routes = tuple(tuple(i - 1 for i in seq) for seq in seqs)
        chis = [chi_sum(seq) for seq in seqs]
        self.axes = tuple(
            tuple((len(chis), 0) if j == at else (j, int(chi < c)) for j, c in enumerate(chis))
            for at, chi in enumerate(chis)
        )
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
        self.cuts: list[tuple] = []

    def route_prices(self, ps) -> list[int]:
        """Each route's price, from the prices ``ps`` by label - 1, then 0."""
        return [sum(map(ps.__getitem__, route)) for route in self.routes] + [0]


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

    Axis order and unit match embed_points: the bounds are the caps a query
    cuts the range tree at (``_Plan``'s descriptors), times the cost scale,
    exact scalars.
    """
    _check_k(oracle, rt)
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    plan = oracle._plans.get(rt.parents) or _Plan(oracle.model, rt)
    scale, ps = _scaled_prices(oracle.model.scale, as_prices(prices, oracle.k).values)
    totals = plan.route_prices(ps)
    at = plan.labels.index(label)
    p, f = totals[at], scale // oracle.model.scale
    return QueryRect.dominance([
        (_unscaled(totals[o] - p, f), not totals[o] + lose > p) for o, lose in plan.axes[at]
    ])
