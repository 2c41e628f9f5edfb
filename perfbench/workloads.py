"""Workload generators: instance text plus price vectors, all from one seed.

Every workload is built here, outside the library, with the benchmark's own
random graph code and its own fixed-cost Dijkstra.  The library only ever
sees the serialized instance text and the price vectors, so a change to the
library cannot change what it is measured on.

All three start from the graph model of ``stackspt bench``: a random
arborescence from vertex 0 plus uniform random edges, integer costs in
[1, 10], unit demand, m = 4n.  They differ in where the priceable edges go
and how prices are drawn:

* ``random-k2``: two priceable edges between random vertices, one that
  saves exactly ``RANDOM_SAVING`` over the fixed route to its head and one
  that saves nothing; integer prices in [1, 20].  About two thirds of the
  reduced trees are empty, the rest hold the one useful edge.
* ``siblings-k3``: three shortcuts from the root to far, mutually distant
  vertices, each with exactly ``SIBLING_BREAKPOINTS`` breakpoints; prices
  are drawn from them.  Every reduced tree holds all three edges side by
  side.
* ``chain-frac``: three shortcuts in a row through planted hub vertices
  beyond the random graph; each starts right behind the previous one's hub.
  Prices are breakpoints measured along the chain, shifted by 0 or +-1/q,
  so most of them are Fractions.  Most reduced trees nest all three edges.

The priceable edges are placed by rule rather than at random so that every
seed gives a workload of the same shape and size.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

COST_MAX = 10
PRICE_MAX = 2 * COST_MAX
RANDOM_SAVING = 7  # the useful random-k2 edge pays for prices 1..7 of 1..20
SIBLING_BREAKPOINTS = 16  # per sibling shortcut, so siblings-k3 solves 16^3 vectors
SIBLING_TRIES = 200  # far vertices examined for the sibling heads
SIBLING_SERVED = 64  # vertices a sibling shortcut serves at a random breakpoint, aimed at
HUB_OUT = 16  # fixed edges out of each chain hub, to random vertices
HUB_TRIES = 12  # random sets of hub edges tried per hub
HUB_SERVED = 120  # vertices a hub's shortcut from the root serves at a random breakpoint, aimed at
HUB_GAP = 6  # fixed distance between consecutive hub levels
CHAIN_Q = (2, 3, 7)
NAIVE_STRIDE = 7
WEYL = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772)  # irrational steps per chain edge


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload: ``queries`` vectors, ``naive`` of them re-checked."""

    n: int
    k: int
    queries: int
    naive: int


@dataclass(frozen=True)
class Workload:
    name: str
    text: str  # the instance in the library's text format
    vectors: tuple  # price vectors of the query set
    naive_sample: tuple  # indices into ``vectors`` checked against naive_revenue


SPECS = {
    "random-k2": Spec(n=2**14, k=2, queries=1000, naive=30),
    "siblings-k3": Spec(n=2**11, k=3, queries=1000, naive=100),
    "chain-frac": Spec(n=2**11, k=3, queries=1000, naive=100),
}


class _FixedGraph:
    """The fixed-cost part of an instance, with a plain Dijkstra."""

    def __init__(self, rng: random.Random, n: int, m: int):
        self.n = n
        ends = []
        order = list(range(1, n))
        rng.shuffle(order)
        connected = [0]
        for v in order:
            ends.append((connected[rng.randrange(len(connected))], v))
            connected.append(v)
        while len(ends) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                ends.append((u, v))
        self.edges = []
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v in ends:
            self.add_edge(u, v, rng.randint(1, COST_MAX))

    def add_vertex(self) -> int:
        self.out.append([])
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, cost: int) -> None:
        self.edges.append((u, v, cost))
        self.out[u].append((v, cost))

    def dist(self, source: int) -> list:
        return self.dist_from([(source, 0)])

    def dist_from(self, starts: list) -> list:
        """Distances from a virtual source with an edge of cost c to each (v, c) of ``starts``."""
        inf = float("inf")
        d = [inf] * self.n
        for v, c in starts:
            d[v] = min(d[v], c)
        heap = [(c, v) for v, c in starts]
        heapq.heapify(heap)
        while heap:
            du, u = heapq.heappop(heap)
            if du != d[u]:
                continue
            for v, c in self.out[u]:
                if du + c < d[v]:
                    d[v] = du + c
                    heapq.heappush(heap, (du + c, v))
        return d

    def text(self, priceable: list[tuple[int, int]]) -> str:
        """Instance text; ``priceable[i-1]`` is the (tail, head) of edge i."""
        lines = [
            "stackspt 1",
            f"graph {self.n} {len(self.edges) + len(priceable)} {len(priceable)}",
            "root 0",
        ]
        lines += [f"edge {u} {v} F {c}" for u, v, c in self.edges]
        lines += [f"edge {u} {v} P {i}" for i, (u, v) in enumerate(priceable, start=1)]
        return "\n".join(lines) + "\n"


def _shortcut(d_root: list, d_head: list) -> tuple[list, float]:
    """Breakpoints of a shortcut from the root to a head, and how many vertices it serves.

    The breakpoints are the sorted distinct positive d(root, v) - d(head, v)
    over all v: the prices at which some vertex flips to the shortcut, the
    candidates ``solve`` sweeps for it.  The second value is the number of
    vertices whose gain reaches a breakpoint drawn at random, on average:
    the vertices the shortcut serves at such a price.
    """
    gains = sorted(g for g in (dr - dh for dr, dh in zip(d_root, d_head)) if g > 0)
    bp = sorted(set(gains))
    served = sum(len(gains) - bisect.bisect_left(gains, b) for b in bp) / max(len(bp), 1)
    return bp, served


def _sample(spec: Spec) -> tuple:
    """Every ``NAIVE_STRIDE``-th vector, a stride prime to the chain's price pattern."""
    return tuple(range(0, spec.naive * NAIVE_STRIDE, NAIVE_STRIDE))


def random_k2(seed: int, spec: Spec) -> Workload:
    n = spec.n
    rng = random.Random(f"random-{seed}")
    graph = _FixedGraph(rng, n, 4 * n - 2)
    d_root = graph.dist(0)

    def edge_saving(wanted):
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and wanted(d_root[v] - d_root[u]):
                return (u, v)

    priceable = [edge_saving(lambda s: s == RANDOM_SAVING), edge_saving(lambda s: s <= 0)]
    rng.shuffle(priceable)
    vectors = tuple(
        (rng.randint(1, PRICE_MAX), rng.randint(1, PRICE_MAX)) for _ in range(spec.queries)
    )
    return Workload("random-k2", graph.text(priceable), vectors, _sample(spec))


def siblings_k3(seed: int, spec: Spec) -> Workload:
    """Heads are far, mutually distant vertices with ``SIBLING_BREAKPOINTS`` breakpoints.

    Far means the farthest quarter by fixed distance from the root, where a
    shortcut pays.  Mutually distant means no head is nearer to another
    head than the root is, so a route through one sibling never undercuts
    another and every edge stays in the tree.  Of the ``SIBLING_TRIES`` far
    vertices examined, those with the right number of breakpoints come
    first, and among them those whose shortcut serves closest to
    ``SIBLING_SERVED`` vertices at a breakpoint drawn at random: a query's
    cost grows with the vertices it serves, which otherwise ranged from
    110 to 390 a query between seeds.  If too few far vertices are
    mutually distant, the best of the rest are taken.
    """
    n, k = spec.n, spec.k
    rng = random.Random(f"siblings-{seed}")
    graph = _FixedGraph(rng, n, 4 * n - k)
    d_root = graph.dist(0)
    far = sorted(range(1, n), key=lambda v: (d_root[v], v))[3 * n // 4:]
    rng.shuffle(far)

    def apart(a, b):
        return a[1][b[0]] >= d_root[b[0]] and b[1][a[0]] >= d_root[a[0]]

    tried = []
    for h in far[:SIBLING_TRIES]:
        d_head = graph.dist(h)
        bp, served = _shortcut(d_root, d_head)
        fit = (abs(len(bp) - SIBLING_BREAKPOINTS), abs(served - SIBLING_SERVED), len(tried))
        tried.append((fit, (h, d_head), bp))
    tried.sort(key=lambda t: t[0])
    heads = []
    for _, cand, bp in tried:
        if len(heads) < k and all(apart(cand, c) for c, _ in heads):
            heads.append((cand, bp))
    for _, cand, bp in tried:
        if len(heads) < k and all(cand is not c for c, _ in heads):
            heads.append((cand, bp))
    vectors = tuple(tuple(rng.choice(bp) for _, bp in heads) for _ in range(spec.queries))
    return Workload(
        "siblings-k3", graph.text([(0, c[0]) for c, _ in heads]), vectors, _sample(spec)
    )


def chain_frac(seed: int, spec: Spec) -> Workload:
    """Edge i runs from just behind hub i-1 (the root for edge 1) to hub i.

    Each hub is a planted vertex entered by one fixed edge from the root,
    of cost ``top + HUB_GAP * i`` where ``top`` is the random graph's
    largest distance, and left by ``HUB_OUT`` fixed edges to random
    vertices.  The tail of the next edge hangs off the hub by a cost-1 edge,
    so it is the hub's nearest vertex and its fixed route runs through the
    hub: whenever an edge is used, the next one nests below it.  An edge is
    used exactly when the chain route to its hub costs no more than the
    fixed edge from the root.

    The naive core's cost grows with the vertices served through priced
    edges, so two things keep that number alike between seeds.  The root
    gets ``HUB_OUT`` extra fixed edges to random vertices, so distances
    from it depend less on the few edges a random root happens to have.
    And each hub's edges are, of ``HUB_TRIES`` random sets, the one whose
    hub, seen as a shortcut from the root, serves closest to ``HUB_SERVED``
    vertices at a random breakpoint.
    """
    n, k = spec.n, spec.k
    rng = random.Random(f"chain-{seed}")
    graph = _FixedGraph(rng, n, 4 * n - k - (k - 1) - (k + 1) * HUB_OUT - k)
    for v in rng.sample(range(1, n), HUB_OUT):
        graph.add_edge(0, v, rng.randint(1, COST_MAX))
    d_root = graph.dist(0)
    top = max(d_root)
    priceable = []
    tail = 0
    for i in range(1, k + 1):
        hub = graph.add_vertex()
        graph.add_edge(0, hub, top + HUB_GAP * i)
        tries = [_hub_edges(rng, n) for _ in range(HUB_TRIES)]
        for v, c in min(tries, key=lambda e: abs(_shortcut(d_root, graph.dist_from(e))[1] - HUB_SERVED)):
            graph.add_edge(hub, v, c)
        priceable.append((tail, hub))
        if i < k:
            tail = graph.add_vertex()
            graph.add_edge(hub, tail, 1)
    d_root = graph.dist(0)
    gains = [_shortcut(d_root, graph.dist(hub))[0] for _, hub in priceable]
    phases = [rng.random() for _ in priceable]
    vectors = tuple(_chain_prices(rng, gains, phases, i) for i in range(spec.queries))
    return Workload("chain-frac", graph.text(priceable), vectors, _sample(spec))


def _hub_edges(rng: random.Random, n: int) -> list:
    """``HUB_OUT`` fixed edges out of a hub: (random vertex, random cost)."""
    return [(v, rng.randint(1, COST_MAX)) for v in rng.sample(range(n), HUB_OUT)]


def _chain_prices(rng: random.Random, gains: list, phases: list, index: int) -> tuple:
    """Price vector ``index``: each edge's breakpoint past the chain's cost up to its tail.

    ``gains[i]`` holds edge i+1's breakpoints as seen from the root; the
    chain route reaches that edge's tail after the earlier prices plus one
    cost-1 hop per earlier hub.  The highest breakpoint left is where the
    chain ties the fixed route to the hub.  Edge i+1's breakpoint is the one
    at quantile ``phases[i] + index * WEYL[i]`` (mod 1) of those left, so
    every stretch of the query set, the naive subsample too, covers the
    breakpoints evenly; how many vertices an edge serves, and with it the
    naive core's cost, then varies little between subsamples.  The index
    fixes the tree mix, the same on every seed: one edge after the first
    (alternating) sits exactly on its breakpoint, the others 1/q below or
    above theirs (staying positive and never above the tie), so nearly
    every price is a Fraction; and every fourth vector prices one edge 1/q
    above its tie, so that edge leaves the tree.
    """
    k = len(gains)
    cut = (index // 4) % k if index % 4 == 3 else None
    prices, base = [], 0
    for i, g in enumerate(gains):
        above = [x - base for x in g if x > base]
        shift = Fraction(1, rng.choice(CHAIN_Q))
        b = above[int((phases[i] + index * WEYL[i % len(WEYL)]) % 1 * len(above))]
        if i == cut:
            p = above[-1] + shift
        elif i == 1 + index % (k - 1):
            p = b
        elif b - shift > 0 and (b == above[-1] or rng.random() < 0.5):
            p = b - shift
        else:
            p = b if b == above[-1] else b + shift
        prices.append(p)
        base += p + 1
    return tuple(prices)


GENERATORS = {"random-k2": random_k2, "siblings-k3": siblings_k3, "chain-frac": chain_frac}


def make(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed, SPECS[name])
