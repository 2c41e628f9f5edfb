"""Fast revenue evaluation: preprocess once, answer pricing queries in polylog time.

The pipeline: 1 full + k bounded fixed-only sweeps feed the model graph; each
price vector maps to a reduced tree, the empty one by k comparisons against
the model graph's gaps, any other by the certificate of a kept tree (one of
the last certifiable model trees met) or else a (2k+1)-vertex Dijkstra run; for
every edge of that tree, the vertices it can serve embed as weighted points
whose dominance rectangle membership decides the classification; one range
tree per (edge, edge set), built the first time a reduced tree with that edge
set holds that edge, turns the revenue formula

    revenue(p) = sum over tree edges e_i of  price(sigma_i) * weight(V(e_i, p))

into a handful of range queries.  Answers agree exactly with the naive
per-query shortest path tree computation.

Fixed-only distances keep the unit the sweeps compute them in, times the
instance's cost scale (``model.scale``): the tables, model weights and
embedded points are exact ints, and so are the caps a query puts on each
range tree's axes.  A vertex whose fixed-only distance no route through an
edge undercuts even at price 0 is never served by it: the head's sweep
leaves it INF, and it gets no point.  A point has one axis per edge of the
reduced tree, so it depends on its edge and the tree's edge set alone; the
nesting only moves each cut by an int, its routes' fixed parts.  A plan,
built once per model tree after one check of the whole reduced tree
(``_checked_routes``), keeps each edge's route, its range tree and per axis
a cut descriptor of ints, from which a query makes that axis's cap.  A
query checks its prices with the package's one check (``_checked_prices``,
no ``PriceFunction`` made) and scales them to ints once, then runs the one
integer kernel (``_kernel``, which ``solver.solve`` calls directly on
candidates it scaled itself): past the gaps, it checks each kept tree's
certificate (``model.kept_terms``) on the route prices, latest first, and
sweeps only when a term of each fails.  The sweep's parent slots key the one
memo, of (parents, plan, certificate), O(k^2) ints per model tree met; an
entry with a certificate becomes the first kept tree, and the oldest of
``KEPT_TREES`` goes, in a tuple swapped whole.  Each route costs its parent
route plus one price, and each rectangle side becomes an int cap with one
floor division, which ``RangeTree.count`` bisects and counts in its bitsets
or wavelet levels.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Iterable, Optional, Sequence, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Instance, PriceFunction, _checked_prices
from .model import (
    ROOT,
    ModelGraph,
    ReducedTree,
    build_model_graph,
    certified_empty,
    kept_terms,
    reduced_tree,
    sequence_of,
    slot_parents,
    tree_slots,
    w_infinity,
)
from .rangetree import RangeTree, WeightedPointSet, build_range_tree
from .rational import INF, NEG_INF, ExtScalar, Scalar, _scaled, _unscaled, is_finite
from .shortest import _fixed_sweep, chi_sum

__all__ = [
    "RevenueOracle",
    "build_oracle",
    "embed_points",
]

_log = logging.getLogger("stackspt")

# certifiable model trees a query tries before it sweeps: on chain-frac, 1 leaves 333
# sweeps per 1000 queries and 2 leaves 167, the vectors with no strict certificate; 3 or 4
# sweep no less
KEPT_TREES = 2


class RevenueOracle:
    """Preprocessed pricing-query structure for one instance.

    Holds the fixed-only distance tables ``d_root`` and ``d_t`` (times the
    cost scale ``model.scale``; ``d_t[i-1]`` is INF wherever no route through
    e_i undercuts ``d_root``), the label ``floors`` of ``build_oracle``, the
    model graph, one range tree per (label, edge set) that a plan or
    ``warm_up`` has met (at most k * 2^(k-1)), and a lazily populated memo
    from each swept model tree's parent slots to its entry: the reduced
    tree's parents, its query plan and its certificate (None when a tie that
    no price moves keeps it from ever holding).  Up to ``KEPT_TREES`` entries
    with a certificate are kept, latest first: a query that one certifies
    moves it first, and a sweep that finds a certifiable tree puts it first,
    dropping the oldest past ``KEPT_TREES``; an uncertifiable tree is
    answered from its sweep and drops nothing.  Concurrent queries are safe;
    the first query on a given model tree builds its entry, and any range
    tree it lacks, exactly once.
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
        self._swept: dict[tuple, tuple] = {}  # model tree's parent slots: (parents, plan, terms)
        self._kept: tuple = ()  # certifiable _swept entries, latest first, swapped whole
        self._trees: dict[tuple, tuple] = {}  # (label, rt.edges): (first rt, its tree)
        self._lock = threading.Lock()

    @property
    def k(self) -> int:
        return self.instance.k

    def reduced_tree_for(self, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
        return reduced_tree(self.model, prices)

    def _tree(self, rt: ReducedTree, label: int) -> RangeTree:
        """Label's tree over ``rt.edges``, built from ``embed_points`` (which
        validates ``rt``) the first time it is asked for.  Called under the lock."""
        key = (label, rt.edges)
        if key not in self._trees:
            pts = embed_points(self, rt, label)
            start = time.perf_counter()
            try:
                tree = build_range_tree(pts)
            except ValidationError as exc:
                raise ValidationError(f"edge {label} over edge set {rt.edges}: {exc}") from None
            _log.debug(
                "range tree for edge %d over %s: dim=%d points=%d distinct=%d kind=%s "
                "bits_bytes=%d wavelet_bytes=%d build_s=%.4f", label, rt.edges, tree.dim,
                tree.size, tree.distinct, tree.kind, *tree.predicted, time.perf_counter() - start,
            )
            self._trees[key] = (rt, tree)
        return self._trees[key][1]

    def warm_up(self, trees: Iterable[ReducedTree]) -> None:
        """Build the range trees of each given reduced tree's labels, once the tree is checked."""
        for rt in trees:
            _checked_routes(self.model, rt)
            with self._lock:
                for label in rt.edges:
                    self._tree(rt, label)

    def _check_served(self) -> None:
        if self._unreachable_demand is not None:
            raise UnreachableVertexError(f"vertex {self._unreachable_demand} has positive "
                                         "demand but is unreachable from the root")

    def _scaled(self, prices) -> tuple[int, list[int]]:
        """Check a price vector and scale it: (S, the prices times S)."""
        pvals = _checked_prices(prices, self.model.k)
        self._check_served()
        return _scaled(pvals, self.model.scale)

    def _kernel(self, scale: int, ps) -> tuple[tuple, Optional[_Plan], list]:
        """The one evaluation path, for checked prices ``ps`` times ``scale``
        (a multiple of the cost scale): the reduced tree's parents, its plan,
        and per edge (label, route price times ``scale``, served weight)."""
        mg = self.model
        f = scale // mg.scale
        if certified_empty(mg, f, ps):
            return (None,) * mg.k, None, []
        kept = self._kept  # read once: another query may swap it meanwhile
        for entry in kept:
            parents, plan, terms = entry
            totals = plan.route_prices(ps)
            for c, t, r_u, x, r_v in terms:  # model.kept_terms
                if c * f + t + totals[r_u] + totals[x] <= totals[r_v]:
                    break
            else:  # every term holds: this tree is the answer, and goes first
                if entry is not kept[0]:
                    self._kept = (entry, *[e for e in kept if e is not entry])
                break
        else:  # no kept tree, or a term of each failed
            entry = parents, plan, terms = self._model_tree(tree_slots(mg, f, ps))
            totals = plan.route_prices(ps)  # past the gaps, the tree is not empty
            # a certifiable tree goes first, and the oldest may go; it is none of the kept
            # trees, as a certifiable tree's terms all hold exactly when the sweep finds it
            if terms is not None:
                self._kept = (entry, *kept[:KEPT_TREES - 1])
        rows = []
        for label, p, tree, edge_cuts in zip(plan.rt.edges, totals, plan.trees, plan.cuts):
            caps = [(totals[o] - p - (totals[o] + lose > p)) // f - shift
                    for o, lose, shift in edge_cuts]
            rows.append((label, p, tree.count(caps)))
        return parents, plan, rows

    def _model_tree(self, slots: tuple) -> tuple:
        """(parents, plan, certificate or None) of the model tree with these parent slots."""
        entry = self._swept.get(slots)
        if entry is None:
            with self._lock:
                entry = self._swept.get(slots)
                if entry is None:
                    rt = ReducedTree(slot_parents(self.model, slots))
                    plan = _Plan(self.model, rt, tuple(self._tree(rt, j) for j in rt.edges))
                    terms, certifiable = kept_terms(self.model, slots, rt.edges)
                    _log.debug("kept-tree certificate for %s: terms=%d certifiable=%s",
                               rt.parents, len(terms), certifiable)
                    entry = self._swept[slots] = (rt.parents, plan, terms if certifiable else None)
        return entry

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
        """(reduced tree, label) per range tree built so far: the first
        reduced tree that needed the tree of that label over its edge set."""
        return frozenset((rt, label) for (label, _), (rt, _) in list(self._trees.items()))  # a copy


class _Plan:
    """What a query needs of one non-empty reduced tree, in ``rt.edges`` order.

    Holds the tree itself, ``steps``, and per edge its range tree (the
    oracle's tree of that label over ``rt.edges``, which every plan with that
    edge set shares) and per axis, one for each edge of ``rt``, a cut
    descriptor (o, lose, shift) of the axis's cap.  A step (at, up, i),
    parents first, prices the route at position ``at`` as the route at ``up``
    plus price i (0-based), ``up`` being n, the route count, for a top-level
    edge: route n stays 0.  The axis caps the point at q - p - shift, p being
    this route's price and q that of route o: the axis's own route, or route
    n on the own axis.  ``shift`` is this route's ``w_infinity`` minus route
    o's (0 for route n): an int, by which the reduced tree moves the cut.
    The cap is closed exactly when this route wins the preference order,
    higher price first, then higher signature: open exactly when q + lose >
    p, with ``lose`` 1 when route o has the higher ``chi_sum`` (distinct
    routes never tie there).  ``_kernel`` gives ``RangeTree.count`` the
    closed int cap (q - p - (q + lose > p)) // f - shift, prices being f
    times the cost scale.
    """

    __slots__ = ("rt", "steps", "trees", "cuts")

    def route_prices(self, ps) -> list:
        """Route prices in ``rt.edges`` order, route n's 0, then ``ps``."""
        totals = [0] * (len(self.steps) + 1) + [*ps]
        for at, up, i in self.steps:
            totals[at] = totals[up] + ps[i]
        return totals

    def __init__(self, mg: ModelGraph, rt: ReducedTree, trees: tuple):
        self.rt, self.trees = rt, trees
        seqs, w = _checked_routes(mg, rt)
        n = len(seqs)
        at = {ROOT: n, **{label: j for j, label in enumerate(rt.edges)}}
        steps = [(len(seq), at[j], at[rt.parents[j - 1]], j - 1) for seq, j in zip(seqs, rt.edges)]
        self.steps = tuple(step[1:] for step in sorted(steps))  # shorter routes, so parents, first
        # per route its w_infinity and chi_sum, then route n, the trailing 0, which never wins
        # a tie; the axis of the edge at position j cuts against route j, the own axis route n
        w.append(0)
        chis = [chi_sum(seq) for seq in seqs] + [-1]
        self.cuts = [
            tuple((o, int(chis[at] < chis[o]), w[at] - w[o])
                  for o in (n if j == at else j for j in range(n)))
            for at in range(n)
        ]


def _checked_routes(mg: ModelGraph, rt: ReducedTree, label: Optional[int] = None) -> tuple:
    """The routes of ``rt`` in ``rt.edges`` order and each one's ``w_infinity``,
    once ``rt`` is checked: it has the oracle's k, holds ``label`` (when one
    is given) and is realizable, every route having a fixed path."""
    if not isinstance(rt, ReducedTree):
        raise ValidationError(f"expected a ReducedTree, got {rt!r}")
    if rt.k != mg.k:
        raise ValidationError(f"reduced tree has k = {rt.k}, the oracle has k = {mg.k}")
    if label is not None and label not in rt:
        raise ValidationError(f"edge {label} is not in the reduced tree")
    seqs = [sequence_of(rt, j) for j in rt.edges]
    w = [w_infinity(mg, seq) for seq in seqs]
    for j, x in zip(rt.edges, w):
        if not is_finite(x):
            raise ValidationError(
                f"reduced tree is not realizable: route to edge {j} has no fixed path"
            )
    return seqs, w


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


def embed_points(oracle: RevenueOracle, rt: ReducedTree, label: int) -> WeightedPointSet:
    """The point set of label's range tree over ``rt.edges``, once ``rt`` is
    checked to have the oracle's k, to hold ``label`` and to be realizable.

    One point per vertex v the head of e_label reaches on fixed edges under
    its sweep's floor (``d_t[label-1][v]`` finite), with one axis per edge
    of ``rt`` in ``rt.edges`` order, times the cost scale: d_label[v] -
    d_root[v] on the own axis, d_label[v] - d_j[v] on the axis of e_j,
    NEG_INF where a table reads INF.  No route enters a point, so the set is
    the same for every reduced tree with these edges.  v belongs to
    V(e_label, p) under ``rt`` exactly when its point lies at or below the
    int cap that ``_kernel`` puts on every axis.
    """
    _checked_routes(oracle.model, rt, label)
    d_here = oracle.d_t[label - 1]
    tables = [oracle.d_root if j == label else oracle.d_t[j - 1] for j in rt.edges]
    demand = oracle.instance.demand
    points, weights = [], []
    for v, dv in enumerate(d_here):
        if is_finite(dv):
            points.append(tuple(dv - t[v] if is_finite(t[v]) else NEG_INF for t in tables))
            weights.append(demand[v])
    return WeightedPointSet(dim=len(rt.edges), points=tuple(points), weights=tuple(weights))

