"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, with no code
shared with the package internals: Bellman-Ford instead of Dijkstra, explicit
path enumeration instead of priority queues, linear scans instead of trees.
The exceptions are earlier library code kept verbatim as references:
``tuple_heap_dijkstra``, the Dijkstra core the packed-heap core is checked
against slot for slot, and ``reference_model_csr``, the model graph's slot
arrays as they were built from a per-vertex fixed adjacency.
``unpruned_embedding`` is the point set of one reduced-tree edge with every
fixed-reachable vertex in it, on distance tables of its own, in the frame of
that tree's routes (``route_costs``); ``query_rect`` is the dominance
rectangle that picks, in the same frame, the vertices the edge serves.
"""

from __future__ import annotations

import heapq
import itertools

from stackspt.instance import Fixed, Instance, Priceable, PriceFunction
from stackspt.model import sequence_of
from stackspt.rangetree import QueryRect, WeightedPointSet
from stackspt.rational import INF, NEG_INF, is_finite
from stackspt.shortest import chi_sum


def bellman_ford_fixed(inst: Instance, source: int, free_priced: bool = False):
    """Fixed-edge-only shortest distances by |V|-1 rounds of relaxation.

    With ``free_priced`` the priceable edges take part at cost 0: the metric
    of the cheapest route on which no price is paid.
    """
    dist = [None] * inst.n
    dist[source] = 0
    edges = [
        (e.tail, e.head, e.kind.cost if isinstance(e.kind, Fixed) else 0)
        for e in inst.edges
        if free_priced or isinstance(e.kind, Fixed)
    ]
    for _ in range(inst.n - 1):
        changed = False
        for u, v, c in edges:
            if dist[u] is None:
                continue
            nd = dist[u] + c
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                changed = True
        if not changed:
            break
    return [INF if d is None else d for d in dist]


def tuple_heap_dijkstra(starts, heads, inc, source: int, start: int, dist: list):
    """Integer-key Dijkstra from ``source`` with key ``start``.

    ``dist`` holds each vertex's initial key (float inf, or a ceiling) and is
    updated in place.  Returns (dist, parent_slot): dist[v] is v's key,
    parent_slot[v] the slot of v's tree edge or None.
    """
    n = len(dist)
    parent: list = [None] * n
    dist[source] = start
    heap = [(start, source)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u = pop(heap)
        if d != dist[u]:
            continue
        for j in range(starts[u], starts[u + 1]):
            v = heads[j]
            nd = d + inc[j]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = j
                push(heap, (nd, v))
    return dist, parent


def reference_fixed_adjacency(mg):
    """Per logical vertex: (head, weight) fixed edges, infinite ones omitted."""
    size = 2 * mg.k + 1
    adj = [[] for _ in range(size)]
    for l in range(1, size):
        w = mg.root_w[l]
        if is_finite(w):
            adj[0].append((l, w))
    for i in range(1, mg.k + 1):
        row = mg.t_w[i - 1]
        tail = mg.t_of(i)
        for j in range(1, mg.k + 1):
            if j == i:
                continue
            for head in (mg.s_of(j), mg.t_of(j)):
                w = row[head]
                if is_finite(w):
                    adj[tail].append((head, w))
    return tuple(tuple(lst) for lst in adj)


def reference_model_csr(mg):
    """``ModelGraph._csr`` built from ``reference_fixed_adjacency``.

    Returns (starts, heads, tails, weights, labels, priced): each logical
    vertex's fixed edges in adjacency order, then e_i out of s_i; ``priced``
    lists the slot of each label, found by search.
    """
    starts, heads, tails, weights, labels = [0], [], [], [], []
    for u, row in enumerate(reference_fixed_adjacency(mg)):
        slots = [(v, w, 0) for v, w in row]
        if u % 2:
            slots.append((u + 1, 0, (u + 1) // 2))  # e_i from s_i = 2i-1 to t_i = 2i
        for v, w, label in slots:
            heads.append(v)
            tails.append(u)
            weights.append(w)
            labels.append(label)
        starts.append(len(heads))
    priced = [labels.index(i) for i in range(1, mg.k + 1)]
    return starts, heads, tails, weights, labels, priced


def _edge_triple(edge, prices: PriceFunction):
    if isinstance(edge.kind, Fixed):
        return (edge.kind.cost, 0, 0)
    p = prices.price(edge.kind.index)
    return (p, -p, -(1 << edge.kind.index))


def min_composite_by_path_enumeration(inst: Instance, prices: PriceFunction, source: int):
    """Per-vertex minimum composite weight over all simple paths (tiny n only)."""
    best = [None] * inst.n
    best[source] = (0, 0, 0)

    adj = [[] for _ in range(inst.n)]
    for e in inst.edges:
        adj[e.tail].append((e.head, _edge_triple(e, prices)))

    visited = [False] * inst.n
    visited[source] = True

    def walk(u, acc):
        for v, (w, np_, nc) in adj[u]:
            if visited[v]:
                continue
            cand = (acc[0] + w, acc[1] + np_, acc[2] + nc)
            if best[v] is None or cand < best[v]:
                best[v] = cand
            visited[v] = True
            walk(v, cand)
            visited[v] = False

    walk(source, (0, 0, 0))
    return best


def _wp_weight(edge, prices: PriceFunction):
    if isinstance(edge.kind, Fixed):
        return edge.kind.cost
    return prices.price(edge.kind.index)


def wp_distances(inst: Instance, prices: PriceFunction):
    """Plain (price-inclusive, tie-blind) shortest distances from the root."""
    dist = [None] * inst.n
    dist[inst.root] = 0
    weighted = [(e.tail, e.head, _wp_weight(e, prices)) for e in inst.edges]
    for _ in range(inst.n - 1):
        changed = False
        for u, v, w in weighted:
            if dist[u] is None:
                continue
            nd = dist[u] + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                changed = True
        if not changed:
            break
    return dist


def enumerate_spt_parent_maps(inst: Instance, prices: PriceFunction, cap: int = 200_000):
    """All shortest path trees w.r.t. the plain route weight, as parent maps.

    Yields dicts vertex -> edge position.  Every combination of one tight
    incoming edge per reachable non-root vertex is a valid shortest path
    tree.  Raises if the combination count exceeds ``cap``.
    """
    dist = wp_distances(inst, prices)
    tight_in = [[] for _ in range(inst.n)]
    for pos, e in enumerate(inst.edges):
        if dist[e.tail] is None or dist[e.head] is None:
            continue
        if dist[e.tail] + _wp_weight(e, prices) == dist[e.head]:
            tight_in[e.head].append(pos)

    vertices = [v for v in range(inst.n) if v != inst.root and dist[v] is not None]
    count = 1
    for v in vertices:
        count *= len(tight_in[v])
        if count > cap:
            raise ValueError(f"too many shortest path trees (> {cap})")
    for combo in itertools.product(*(tight_in[v] for v in vertices)):
        yield dict(zip(vertices, combo))


def tree_revenue(inst: Instance, prices: PriceFunction, parent_map: dict):
    """Demand-weighted price total over one tree's root paths."""
    price_sum: dict = {inst.root: 0}

    def psum(v):
        if v in price_sum:
            return price_sum[v]
        e = inst.edges[parent_map[v]]
        extra = prices.price(e.kind.index) if isinstance(e.kind, Priceable) else 0
        value = psum(e.tail) + extra
        price_sum[v] = value
        return value

    total = 0
    for v in parent_map:
        total += inst.demand[v] * psum(v)
    return total


def max_spt_revenue(inst: Instance, prices: PriceFunction, cap: int = 200_000):
    """Exhaustive maximum revenue over every plain shortest path tree."""
    best = None
    for pm in enumerate_spt_parent_maps(inst, prices, cap):
        r = tree_revenue(inst, prices, pm)
        if best is None or r > best:
            best = r
    return best


# -- point embedding -----------------------------------------------------------


def scaled_fixed_table(inst: Instance, scale: int, source: int, free_priced: bool = False) -> list:
    """``bellman_ford_fixed`` times ``scale``: exact ints, or INF."""
    dist = bellman_ford_fixed(inst, source, free_priced)
    return [int(d * scale) if is_finite(d) else INF for d in dist]


def route_costs(oracle, rt) -> dict:
    """Per edge j of ``rt``, the fixed part w of its route (up to tail_j),
    times the oracle's cost scale, on full tables of its own; INF when some
    segment has no fixed path."""
    inst = oracle.instance
    tables = {v: scaled_fixed_table(inst, oracle.model.scale, v)
              for v in {inst.root, *map(inst.target_of, rt.edges)}}
    w = {}
    for j in rt.edges:
        seq = sequence_of(rt, j)
        segments = [tables[inst.root][inst.source_of(seq[0])]]
        segments += [tables[inst.target_of(a)][inst.source_of(b)] for a, b in zip(seq, seq[1:])]
        w[j] = sum(segments) if all(map(is_finite, segments)) else INF
    return w


def unpruned_embedding(oracle, rt, label):
    """(vertices, point set) of one reduced-tree edge, one point per vertex
    the edge's head reaches on fixed edges, including those no positive price
    lets the edge serve (own-axis coordinate >= 0).

    The distance tables are full ones of its own (``bellman_ford_fixed``,
    times the oracle's cost scale), and so is each route's fixed part w
    (``route_costs``).  Coordinates are spelled out per axis j of
    ``rt.edges``: on the edge's own axis w + d_here[v] - d_root[v], on
    another w - w_j + d_here[v] - d_j[v]; NEG_INF where a table reads INF.
    """
    inst = oracle.instance
    d_root = scaled_fixed_table(inst, oracle.model.scale, inst.root)
    d_t = {j: scaled_fixed_table(inst, oracle.model.scale, inst.target_of(j)) for j in rt.edges}
    w = route_costs(oracle, rt)
    d_here = d_t[label]
    vertices, points = [], []
    for v in range(inst.n):
        if not is_finite(d_here[v]):
            continue
        coords = []
        for j in rt.edges:
            d = d_root[v] if j == label else d_t[j][v]
            shift = 0 if j == label else w[j]
            coords.append(w[label] + d_here[v] - shift - d if is_finite(d) else NEG_INF)
        vertices.append(v)
        points.append(tuple(coords))
    weights = tuple(inst.demand[v] for v in vertices)
    return vertices, WeightedPointSet(dim=len(rt.edges), points=tuple(points), weights=weights)


def query_rect(oracle, rt, label, prices) -> QueryRect:
    """The dominance rectangle whose member points of ``unpruned_embedding``
    are the vertices e_label serves under ``rt`` at ``prices``: one axis per
    edge of ``rt``, times the oracle's cost scale.

    A vertex takes e_label's route, of price P_label, when that route beats
    its fixed route and the route through every other edge e_j of ``rt``, of
    price P_j, in the composite order: lighter, then dearer, then of larger
    ``chi_sum``.  Against the fixed route, of price 0, a tie on weight goes
    to the priced route: the own axis is closed at -P_label.  Against e_j's
    route the bound is P_j - P_label, closed exactly when P_label > P_j, or
    P_label == P_j and e_label's route has the larger ``chi_sum``.  A route
    price is the sum of the prices along ``sequence_of``.
    """
    w = route_costs(oracle, rt)
    assert all(map(is_finite, w.values())), f"no price vector realizes {rt}"
    values = prices.values if isinstance(prices, PriceFunction) else tuple(prices)
    price = {j: sum(values[i - 1] for i in sequence_of(rt, j)) for j in rt.edges}
    chi = {j: chi_sum(sequence_of(rt, j)) for j in rt.edges}
    scale, p = oracle.model.scale, price[label]
    bounds = []
    for j in rt.edges:
        if j == label:
            bounds.append((-p * scale, True))
        else:
            wins_tie = p > price[j] or (p == price[j] and chi[label] > chi[j])
            bounds.append(((price[j] - p) * scale, wins_tie))
    return QueryRect.dominance(bounds)


# -- range query scan ---------------------------------------------------------


def in_interval(x, interval) -> bool:
    lo, hi = interval.lower, interval.upper
    if lo is not None:
        value, closed = lo
        if x < value or (x == value and not closed):
            return False
    if hi is not None:
        value, closed = hi
        if x > value or (x == value and not closed):
            return False
    return True


def linear_scan(points, weights, rect):
    """Exact weighted count of points inside the rectangle."""
    total = 0
    for pt, w in zip(points, weights):
        if all(in_interval(x, iv) for x, iv in zip(pt, rect.intervals)):
            total += w
    return total
