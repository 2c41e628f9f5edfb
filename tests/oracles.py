"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way, with no code
shared with the package internals: Bellman-Ford instead of Dijkstra, explicit
path enumeration instead of priority queues, linear scans instead of trees.
The exceptions are earlier library code kept verbatim as references:
``tuple_heap_dijkstra``, the Dijkstra core the packed-heap core is checked
against slot for slot, and ``reference_model_csr``, the model graph's slot
arrays as they were built from a per-vertex fixed adjacency.
"""

from __future__ import annotations

import heapq
import itertools
from math import lcm

from stackspt.instance import Fixed, Instance, Priceable, PriceFunction
from stackspt.rational import INF, is_finite


def bellman_ford_fixed(inst: Instance, source: int):
    """Fixed-edge-only shortest distances by |V|-1 rounds of relaxation."""
    dist = [None] * inst.n
    dist[source] = 0
    edges = [
        (e.tail, e.head, e.kind.cost)
        for e in inst.edges
        if isinstance(e.kind, Fixed)
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


_UNREACHED = float("inf")


def tuple_heap_dijkstra(starts, heads, inc, source: int, start: int, n: int):
    """Integer-key Dijkstra from ``source`` with key ``start``.

    Returns (dist, parent_slot): dist[v] is v's key or float inf when v is
    unreachable, parent_slot[v] the slot of v's tree edge or None.
    """
    dist: list = [_UNREACHED] * n
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

    Returns (starts, heads, tails, weights, labels, scale): each logical
    vertex's fixed edges in adjacency order, then e_i out of s_i.
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
    scale = lcm(*[w.denominator for w in weights])
    weights = [w.numerator * (scale // w.denominator) for w in weights]
    return starts, heads, tails, weights, labels, scale


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
