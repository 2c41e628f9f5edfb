"""Tie-broken shortest path trees and the naive revenue evaluator.

Followers compare routes by a composite weight ``(w, -p, -chi)`` ordered
lexicographically: ``w`` is the total of costs and prices along the route,
``p`` the priced part alone, and ``chi`` a signature that is injective on sets
of priceable edges (edge label i contributes 2^i).  Minimizing this composite
weight means: cheapest route first; among equally cheap routes the one paying
the leader most; among those, the one whose priceable-edge set has the largest
signature.  The last component makes every tie resolution reproducible, so
the revenue of "the" shortest path tree is well defined.

One integer-key Dijkstra core runs every sweep: the composite-order sweep
(``_lex_sweep``), which the revenue fold ``_revenue_of`` and the tree build
``_spt_of`` read; the fixed-only sweeps of the preprocessing; and the
model-graph sweep of each query whose reduced tree is not certified empty.
Fractional costs and prices become ints by the LCM of their denominators, the
triple is packed into one int key, and results are divided back exactly; only
the oracle's fixed-only tables (``_fixed_sweep``) stay times the cost scale.
Packing is safe because every key a sweep stores belongs to a simple path, so
the low components are bounded by the sum of all prices and by 2^(k+1)-2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Union

from .errors import UnreachableVertexError, ValidationError
from .instance import Instance, Priceable, _checked_prices
from .rational import INF, ExtScalar, Scalar, format_scalar

__all__ = [
    "CompositeWeight",
    "UNREACHABLE_WEIGHT",
    "SptResult",
    "chi_sum",
    "lex_dijkstra",
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
        return self.dist[v].w != INF

    def price_paid(self, v: int) -> Scalar:
        """Total price collected on the tree route to v."""
        return -self.dist[v].neg_p


# -- the Dijkstra core ---------------------------------------------------------
#
# Every sweep runs on slot arrays (``Instance._layout``, ``ModelGraph._csr``):
# starts[u]..starts[u+1] index u's out-edge slots, heads[j] is slot j's head and
# inc[j] its integer key increment.  Keys are exact ints, INF marks unreached
# vertices, and a heap entry is the single int ``key * n + v``, ordered like
# (key, v) because 0 <= v < n.


def _dijkstra(starts, heads, inc, source: int, start: int, dist: list):
    """Integer-key Dijkstra from ``source`` with key ``start``, over the
    caller's initial keys ``dist`` (INF, or a ceiling a route must go below),
    which it updates in place.  Returns (dist, parent_slot): v's key, and the
    slot of v's tree edge or None.  Heap entries are single ints ``key * n + v``."""
    n = len(dist)
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


def _lex_keys(costs, priced, f: int, ps: list[int]):
    """Packed keys of the composite order ``(w, -p, -chi)`` for one price vector.

    ``ps`` are the prices times a scale S, ``costs[j]`` is the fixed cost at
    slot j times S / ``f``, and ``priced[i-1]`` the slot of the priceable
    edge labeled i.  A route's key is ``W * m1 + (pcap - P) * m2 + (chicap - chi)``
    for its weight W and price P, both times S, and its signature chi.
    Packing is exact because every key a sweep stores belongs to a simple
    path, so P <= pcap, the sum of ``ps``, and chi <= chicap = 2^(k+1)-2.

    Every slot first gets its cost's increment, one comprehension with no
    test per slot; then the k priced slots get theirs, whatever cost they hold.

    Returns (inc, start, pcap, m1, m2).
    """
    pcap = sum(ps)
    chicap = (1 << (len(ps) + 1)) - 2
    m2 = chicap + 1
    m1 = (pcap + 1) * m2
    step = m1 - m2
    fm1 = f * m1
    inc = [c * fm1 for c in costs]
    for i, j in enumerate(priced):
        inc[j] = ps[i] * step - (2 << i)
    return inc, pcap * m2 + chicap, pcap, m1, m2


def _lex_sweep(inst: Instance, pvals: tuple, source: int):
    """Composite-order sweep under the checked prices ``pvals``: (dist keys,
    parent slots, scale, pcap, m1, m2), what ``_revenue_of`` and ``_spt_of`` read."""
    starts, heads, _epos, costs, priced, cost_scale, _cutoff = inst._layout
    scale, ps = _scaled_prices(cost_scale, pvals)
    inc, start, pcap, m1, m2 = _lex_keys(costs, priced, scale // cost_scale, ps)
    dist, parent = _dijkstra(starts, heads, inc, source, start, [INF] * inst.n)
    return dist, parent, scale, pcap, m1, m2


def _spt_of(inst: Instance, src: int, dist_raw, parent, scale, pcap, m1, m2) -> SptResult:
    chicap = m2 - 1
    dist = []
    for d in dist_raw:
        if d is INF:
            dist.append(UNREACHABLE_WEIGHT)
        else:
            w, low = divmod(d, m1)
            dist.append(CompositeWeight(
                _unscaled(w, scale), _unscaled(low // m2 - pcap, scale), low % m2 - chicap
            ))
    epos = inst._layout[2]
    parent_edge = tuple(None if j is None else epos[j] for j in parent)
    return SptResult(source=src, dist=tuple(dist), parent_edge=parent_edge)


def lex_dijkstra(inst: Instance, prices, source: int | None = None) -> SptResult:
    """Compute a shortest path tree under the composite weight order.

    The returned distances are the unique componentwise minima over all
    routes; the parent choices realize one shortest path tree.  Which parents
    are reported may depend on edge order, the distances never do.
    """
    pvals = _checked_prices(prices, inst.k)
    src = inst.root if source is None else source
    if not 0 <= src < inst.n:
        raise ValidationError(f"source {src} out of range [0, {inst.n})")
    return _spt_of(inst, src, *_lex_sweep(inst, pvals, src))


def _fixed_sweep(inst: Instance, source: int, floor: int = 0, ceiling=None) -> tuple[tuple, list]:
    """(table, raw): the fixed-only distances from ``source`` times the cost
    scale, exact ints with INF where no fixed-only route exists; and the raw
    sweep, which crosses priceable slots at ``cutoff``, so INF there means no
    route at all.  A bounded sweep starts at key ``floor`` and relaxes v only
    below ``ceiling[v]``; its table reads INF wherever it did not."""
    starts, heads, _epos, costs, _priced, _scale, cutoff = inst._layout
    ceiling = (INF,) * inst.n if ceiling is None else ceiling
    dist, _parent = _dijkstra(starts, heads, costs, source, floor, list(ceiling))
    top = floor + cutoff
    return tuple(d - floor if d < c and d < top else INF for d, c in zip(dist, ceiling)), dist


def _revenue_of(inst: Instance, dist, _parent, scale, pcap, m1, m2) -> Scalar:
    demand = inst.demand
    revenue: Scalar = 0
    for v, d in enumerate(dist):
        phi = demand[v]
        if d is INF:
            if phi > 0:
                raise UnreachableVertexError(
                    f"vertex {v} has demand {format_scalar(phi)} but no route from root {inst.root}"
                )
            continue
        if phi:
            revenue += phi * (pcap - (d % m1) // m2)
    return _unscaled(revenue, scale)


def naive_revenue(inst: Instance, prices) -> Scalar:
    """Revenue of a composite-weight shortest path tree, computed directly.

    Runs one full Dijkstra sweep per call, so it is the slow-but-simple
    reference the preprocessing oracle is checked against.  Raises
    ``UnreachableVertexError`` if a vertex with positive demand has no route
    from the root.
    """
    return _revenue_of(inst, *_lex_sweep(inst, _checked_prices(prices, inst.k), inst.root))


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
