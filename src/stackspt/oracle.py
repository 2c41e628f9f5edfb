"""Fast revenue evaluation: preprocess once, answer pricing queries in polylog time.

The pipeline: k+1 fixed-only shortest path sweeps feed the model graph; each
price vector maps to a reduced tree via a (2k+1)-vertex Dijkstra run; for
every edge of that tree, the vertices it can serve embed as weighted points
whose dominance rectangle membership decides the classification; a memoized
range tree per (reduced tree, edge) pair turns the revenue formula

    revenue(p) = sum over tree edges e_i of  price(sigma_i) * weight(V(e_i, p))

into a handful of range queries.  Answers agree exactly with the naive
per-query shortest path tree computation.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Iterable, Optional, Sequence, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Instance, PriceFunction
from .model import (
    ModelGraph,
    ReducedTree,
    build_model_graph,
    reduced_tree,
    seq_order_lt,
    seq_price,
    sequence_of,
    w_infinity,
)
from .rangetree import QueryRect, RangeTree, WeightedPointSet, build_range_tree
from .rational import NEG_INF, ExtScalar, Scalar, is_finite
from .shortest import fixed_cost_sssp

__all__ = [
    "RevenueOracle",
    "build_oracle",
    "embed_points",
    "query_intervals",
]

_log = logging.getLogger("stackspt")


class RevenueOracle:
    """Preprocessed pricing-query structure for one instance.

    Holds the fixed-only distance tables, the model graph, and a lazily
    populated memo of range trees keyed by (reduced tree, edge label).
    Concurrent queries are safe; the first query needing a given range tree
    builds it exactly once.
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
        self._trees: dict[tuple[ReducedTree, int], RangeTree] = {}
        self._lock = threading.Lock()

    @property
    def k(self) -> int:
        return self.instance.k

    def reduced_tree_for(self, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
        return reduced_tree(self.model, _as_prices(prices, self.k))

    def tree_for(self, rt: ReducedTree, label: int) -> RangeTree:
        """The memoized range tree for one edge of a reduced tree."""
        key = (rt, label)
        tree = self._trees.get(key)
        if tree is None:
            with self._lock:
                tree = self._trees.get(key)
                if tree is None:
                    pts = embed_points(self, rt, label)
                    start = time.perf_counter()
                    tree = build_range_tree(pts)
                    _log.debug(
                        "range tree for edge %d of reduced tree %s: dim=%d points=%d "
                        "distinct=%d build_s=%.4f",
                        label, rt.parents, tree.dim, tree.size, tree.distinct,
                        time.perf_counter() - start,
                    )
                    self._trees[key] = tree
        return tree

    def warm_up(self, trees: Iterable[ReducedTree]) -> None:
        """Materialize every range tree the given reduced trees can need."""
        for rt in trees:
            for label in rt.edges:
                self.tree_for(rt, label)

    def revenue(self, prices: Union[PriceFunction, Sequence]) -> Scalar:
        """Exact revenue of a price vector."""
        p = _as_prices(prices, self.k)
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(
                f"vertex {self._unreachable_demand} has positive demand "
                "but is unreachable from the root"
            )
        rt = reduced_tree(self.model, p)
        total: Scalar = 0
        for label in rt.edges:
            tree = self.tree_for(rt, label)
            rect = query_intervals(self, rt, label, p)
            served = tree.query(rect)
            if served:
                total = total + seq_price(sequence_of(rt, label), p) * served
        return total

    def revenue_breakdown(
        self, prices: Union[PriceFunction, Sequence]
    ) -> tuple[ReducedTree, tuple[tuple[int, Scalar, Scalar], ...]]:
        """The reduced tree plus (label, route price, served weight) per edge."""
        p = _as_prices(prices, self.k)
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(
                f"vertex {self._unreachable_demand} has positive demand "
                "but is unreachable from the root"
            )
        rt = reduced_tree(self.model, p)
        rows = []
        for label in rt.edges:
            tree = self.tree_for(rt, label)
            served = tree.query(query_intervals(self, rt, label, p))
            rows.append((label, seq_price(sequence_of(rt, label), p), served))
        return rt, tuple(rows)

    @property
    def materialized_keys(self) -> frozenset:
        return frozenset(self._trees)


def _as_prices(prices: Union[PriceFunction, Sequence], k: int) -> PriceFunction:
    p = prices if isinstance(prices, PriceFunction) else PriceFunction(tuple(prices))
    if len(p) != k:
        raise ValidationError(f"expected {k} prices, got {len(p)}")
    return p


def _reachable_from_root(inst: Instance) -> list[bool]:
    seen = [False] * inst.n
    seen[inst.root] = True
    stack = [inst.root]
    adj = inst.adjacency
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def build_oracle(inst: Instance) -> RevenueOracle:
    """Run the one-time preprocessing: k+1 fixed-only sweeps plus the model graph.

    Requires k >= 2; with a single priceable edge the direct per-query
    computation is already cheap and callers use it instead.
    """
    if inst.k < 2:
        raise ValidationError(
            f"oracle preprocessing needs at least 2 priceable edges, got {inst.k}"
        )
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


def embed_points(oracle: RevenueOracle, rt: ReducedTree, label: int) -> WeightedPointSet:
    """The point set behind the classification test for one reduced-tree edge.

    One point per vertex the edge's head can reach on fixed edges, one axis
    per edge of the reduced tree (ascending label order).  A vertex belongs
    to V(e_label, p) exactly when its point dominates none of the query
    rectangle's bounds.
    """
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    seqs = {j: sequence_of(rt, j) for j in rt.edges}
    w_inf = {}
    for j, seq in seqs.items():
        w = w_infinity(oracle.model, seq)
        if not is_finite(w):
            raise ValidationError(
                f"reduced tree is not realizable: route to edge {j} has no fixed path"
            )
        w_inf[j] = w
    inst = oracle.instance
    d_here = oracle.d_t[label - 1]
    d_root = oracle.d_root
    points = []
    weights = []
    for v in range(inst.n):
        dtv = d_here[v]
        if not is_finite(dtv):
            continue
        base = w_inf[label] + dtv
        coords = []
        for j in rt.edges:
            if j == label:
                drv = d_root[v]
                coords.append(base - drv if is_finite(drv) else NEG_INF)
            else:
                djv = oracle.d_t[j - 1][v]
                coords.append(base - w_inf[j] - djv if is_finite(djv) else NEG_INF)
        points.append(tuple(coords))
        weights.append(inst.demand[v])
    return WeightedPointSet(
        dim=len(rt.edges), points=tuple(points), weights=tuple(weights)
    )


def query_intervals(
    oracle: RevenueOracle, rt: ReducedTree, label: int, prices: PriceFunction
) -> QueryRect:
    """Dominance rectangle whose member points form V(e_label, p).

    Axis order matches embed_points.  The own-label axis caps the point at
    -price(sigma); every other axis caps the price difference of the two
    routes, closed exactly when this edge's route wins the preference order.
    """
    if label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    seqs = {j: sequence_of(rt, j) for j in rt.edges}
    p_here = seq_price(seqs[label], prices)
    uppers = []
    for j in rt.edges:
        if j == label:
            uppers.append((-p_here, True))
        else:
            closed = seq_order_lt(seqs[label], seqs[j], prices)
            uppers.append((seq_price(seqs[j], prices) - p_here, closed))
    return QueryRect.dominance(uppers)
