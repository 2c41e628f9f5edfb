"""Tie-broken shortest path trees and the naive revenue evaluator.

Followers compare routes by a composite weight ``(w, -p, -chi)`` ordered
lexicographically: ``w`` is the total of costs and prices along the route,
``p`` the priced part alone, and ``chi`` a signature that is injective on sets
of priceable edges (edge label i contributes 2^i).  Minimizing this composite
weight means: cheapest route first; among equally cheap routes the one paying
the leader most; among those, the one whose priceable-edge set has the largest
signature.  The last component makes every tie resolution reproducible, so
the revenue of "the" shortest path tree is well defined.

One integer-key Dijkstra core runs every sweep: the composite-order sweeps
here, the fixed-only sweeps of the preprocessing, and the model-graph sweep
of each query.  Fractional costs and prices are brought to ints by the LCM of
their denominators, the triple is packed into a single int key, and results
are divided back exactly.  Packing is safe because every key a sweep stores
belongs to a simple path, so the low components are bounded by the sum of
all prices and by 2^(k+1)-2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, NamedTuple, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Fixed, Instance, Priceable, PriceFunction, as_prices
from .rational import INF, ExtScalar, Infinity, Scalar

__all__ = [
    "CompositeWeight",
    "UNREACHABLE_WEIGHT",
    "SptResult",
    "chi_sum",
    "lex_dijkstra",
    "fixed_cost_sssp",
    "naive_revenue",
    "last_priceable_labels",
]


class CompositeWeight(NamedTuple):
    """Lexicographically ordered route weight ``(w, -p, -chi)``."""

    w: ExtScalar
    neg_p: Scalar
    neg_chi: int


UNREACHABLE_WEIGHT = CompositeWeight(INF, 0, 0)


def chi_sum(labels: Iterable[int]) -> int:
    """Signature of a set of priceable labels; injective on label sets."""
    return sum(1 << i for i in set(labels))


@dataclass(frozen=True)
class SptResult:
    """A shortest path tree: per-vertex distance and parent edge.

    ``dist[v]`` is the composite weight of the tree route to v, or
    ``UNREACHABLE_WEIGHT`` when no route exists.  ``parent_edge[v]`` is the
    position (in ``Instance.edges``) of v's tree edge, None for the source
    and for unreachable vertices.  Distances are unique; parent edges are one
    valid choice among ties.
    """

    source: int
    dist: tuple[CompositeWeight, ...]
    parent_edge: tuple[Union[int, None], ...]

    def reachable(self, v: int) -> bool:
        return not isinstance(self.dist[v].w, Infinity)

    def price_paid(self, v: int) -> Scalar:
        """Total price collected on the tree route to v."""
        return -self.dist[v].neg_p


# -- the Dijkstra core ---------------------------------------------------------
#
# Every sweep runs on a CSR adjacency: starts[u]..starts[u+1] index u's out-edge
# slots, heads[j] is slot j's head and inc[j] its integer key increment.  Keys
# are exact ints, float inf marks unreached vertices, and a heap entry is the
# single int ``key * n + v``, ordered like (key, v) because 0 <= v < n.


_UNREACHED = float("inf")


def _dijkstra(starts, heads, inc, source: int, start: int, n: int):
    """Integer-key Dijkstra from ``source`` with key ``start``.

    Returns (dist, parent_slot): v's key or float inf if unreached, and the
    slot of v's tree edge or None.  A heap entry is the single int ``key * n + v``.
    """
    dist: list = [_UNREACHED] * n
    parent: list = [None] * n
    dist[source] = start
    heap = [start * n + source]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u = divmod(pop(heap), n)
        if d != dist[u]:
            continue
        for j in range(starts[u], starts[u + 1]):
            v = heads[j]
            nd = d + inc[j]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = j
                push(heap, nd * n + v)
    return dist, parent


def _unscaled(x: Scalar, scale: int) -> Scalar:
    """``x / scale`` exactly, as an int whenever the value is integral."""
    if scale != 1:
        x = Fraction(x, scale)
    return x.numerator if x.denominator == 1 else x


def _scaled_prices(cost_scale: int, pvals) -> tuple[int, list[int]]:
    """(scale, prices times scale): scale is the LCM of ``cost_scale`` and the
    price denominators, so every scaled price is an exact int."""
    scale = lcm(cost_scale, *[p.denominator for p in pvals])
    return scale, [p.numerator * (scale // p.denominator) for p in pvals]


def _lex_keys(costs, labels, f: int, ps: list[int]):
    """Packed keys of the composite order ``(w, -p, -chi)`` for one price vector.

    ``ps`` are the prices times a scale S, ``costs[j]`` is the fixed cost at
    slot j times S / ``f``, and ``labels[j]`` the priceable label at slot j
    or 0.  A route's key is ``W * m1 + (pcap - P) * m2 + (chicap - chi)`` for
    its weight W and price P, both times S, and its signature chi.  Packing
    is exact because every key a sweep stores belongs to a simple path, so
    P <= pcap, the sum of ``ps``, and chi <= chicap = 2^(k+1)-2.

    Returns (inc, start, pcap, m1, m2).
    """
    pcap = sum(ps)
    chicap = (1 << (len(ps) + 1)) - 2
    m2 = chicap + 1
    m1 = (pcap + 1) * m2
    step = m1 - m2
    pinc = [0]  # by label
    for i, p in enumerate(ps):
        pinc.append(p * step - (2 << i))
    fm1 = f * m1
    inc = [pinc[lab] if lab else c * fm1 for c, lab in zip(costs, labels)]
    return inc, pcap * m2 + chicap, pcap, m1, m2


def _csr(inst: Instance):
    """The instance's CSR, built once: (starts, heads, epos, costs, labels, scale, cutoff).

    ``epos[j]`` is the position in ``Instance.edges`` of slot j.  Fixed costs
    are stored times ``scale``, the LCM of their denominators.  A priceable
    slot has label >= 1 and cost ``cutoff``, one more than the scaled total of
    all fixed costs, so a fixed-only sweep can cross it like any edge: a
    distance below ``cutoff`` is a fixed-only route, one at or above it is not.
    """
    cached = inst.__dict__.get("_csr_cache")
    if cached is not None:
        return cached
    n, m, edges = inst.n, inst.m, inst.edges
    counts = [0] * (n + 1)
    for e in edges:
        counts[e.tail + 1] += 1
    starts = list(accumulate(counts))
    fill = starts[:]
    heads = [0] * m
    epos = [0] * m
    costs = [0] * m
    labels = [0] * m
    priced = []
    for pos, e in enumerate(edges):
        j = fill[e.tail]
        fill[e.tail] = j + 1
        heads[j] = e.head
        epos[j] = pos
        kind = e.kind
        if isinstance(kind, Fixed):
            costs[j] = kind.cost
        else:
            labels[j] = kind.index
            priced.append(j)
    scale = lcm(*[c.denominator for c in set(costs)])
    if set(map(type, costs)) != {int}:  # any Fraction, even a Fraction(1) beside a 1
        costs = [c.numerator * (scale // c.denominator) for c in costs]
    cutoff = sum(costs) + 1
    for j in priced:
        costs[j] = cutoff
    cached = (starts, heads, epos, costs, labels, scale, cutoff)
    inst.__dict__["_csr_cache"] = cached
    return cached


def _lex_sweep(inst: Instance, prices: PriceFunction, source: int):
    """Composite-order sweep: (dist keys, parent slots, scale, pcap, m1, m2)."""
    starts, heads, _epos, costs, labels, cost_scale, _cutoff = _csr(inst)
    scale, ps = _scaled_prices(cost_scale, prices.values)
    inc, start, pcap, m1, m2 = _lex_keys(costs, labels, scale // cost_scale, ps)
    dist, parent = _dijkstra(starts, heads, inc, source, start, inst.n)
    return dist, parent, scale, pcap, m1, m2


def lex_dijkstra(inst: Instance, prices, source: int | None = None) -> SptResult:
    """Compute a shortest path tree under the composite weight order.

    The returned distances are the unique componentwise minima over all
    routes; the parent choices realize one shortest path tree.  Which parents
    are reported may depend on edge order, the distances never do.
    """
    pf = as_prices(prices, inst.k)
    src = inst.root if source is None else source
    if not 0 <= src < inst.n:
        raise ValidationError(f"source {src} out of range [0, {inst.n})")

    dist_raw, parent, scale, pcap, m1, m2 = _lex_sweep(inst, pf, src)
    chicap = m2 - 1
    dist = []
    for d in dist_raw:
        if isinstance(d, float):
            dist.append(UNREACHABLE_WEIGHT)
        else:
            w, low = divmod(d, m1)
            dist.append(CompositeWeight(
                _unscaled(w, scale), _unscaled(low // m2 - pcap, scale), low % m2 - chicap
            ))
    epos = _csr(inst)[2]
    parent_edge = tuple(None if j is None else epos[j] for j in parent)
    return SptResult(source=src, dist=tuple(dist), parent_edge=parent_edge)


def fixed_cost_sssp(inst: Instance, source: int) -> tuple[ExtScalar, ...]:
    """Shortest-path distances using fixed-cost edges only.

    This is the "priceable edges removed" metric: the cost of the best route
    no leader decision can touch.  Unreachable vertices get ``INF``.
    """
    if not 0 <= source < inst.n:
        raise ValidationError(f"source {source} out of range [0, {inst.n})")
    starts, heads, _epos, costs, _labels, scale, cutoff = _csr(inst)
    dist, _parent = _dijkstra(starts, heads, costs, source, 0, inst.n)
    if scale == 1:
        return tuple(d if d < cutoff else INF for d in dist)
    return tuple(_unscaled(d, scale) if d < cutoff else INF for d in dist)


def naive_revenue(inst: Instance, prices) -> Scalar:
    """Revenue of a composite-weight shortest path tree, computed directly.

    Runs one full Dijkstra sweep per call, so it is the slow-but-simple
    reference the preprocessing oracle is checked against.  Raises
    ``UnreachableVertexError`` if a vertex with positive demand has no route
    from the root.
    """
    pf = as_prices(prices, inst.k)
    dist, _parent, scale, pcap, m1, m2 = _lex_sweep(inst, pf, inst.root)
    demand = inst.demand
    revenue: Scalar = 0
    for v, d in enumerate(dist):
        phi = demand[v]
        if isinstance(d, float):
            if phi > 0:
                raise UnreachableVertexError(
                    f"vertex {v} has demand {phi} but no route from root {inst.root}"
                )
            continue
        if phi:
            revenue += phi * (pcap - (d % m1) // m2)
    return _unscaled(revenue, scale)


def last_priceable_labels(inst: Instance, spt: SptResult) -> tuple[Union[int, None], ...]:
    """For each vertex, the label of the last priceable edge on its tree route.

    None for vertices whose route is priceable-free, for the source, and for
    unreachable vertices.  This is the classification that decides which
    priceable edge collects each vertex's demand.
    """
    n = inst.n
    children: list[list[int]] = [[] for _ in range(n)]
    for v, pe in enumerate(spt.parent_edge):
        if pe is not None:
            children[inst.edges[pe].tail].append(v)
    last: list = [None] * n
    stack = [spt.source]
    while stack:
        u = stack.pop()
        for v in children[u]:
            kind = inst.edges[spt.parent_edge[v]].kind
            last[v] = kind.index if isinstance(kind, Priceable) else last[u]
            stack.append(v)
    return tuple(last)
