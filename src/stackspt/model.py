"""The compressed routing view: model graph, reduced trees, label sequences.

Which priceable edges a shortest path tree uses, and in what nesting order,
is decided entirely by the priceable edges' endpoints and the fixed-only
distances between them.  The *model graph* captures exactly that: one logical
vertex for the root and for each priceable endpoint, fixed edges weighted by
fixed-only distances, and the priceable edges themselves.  Its shortest path
tree contracts to the same *reduced tree* as the full graph's, which is what
lets query evaluation run on a k-sized graph instead of the real one.

Logical vertices are deliberately kept distinct even when their underlying
graph vertices coincide; the distance formulas then yield weight-0 fixed
edges exactly where needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import ValidationError
from .instance import Instance, Priceable, PriceFunction
from .rational import ExtScalar, Scalar, is_finite
from .shortest import SptResult, chi_sum, last_priceable_labels

__all__ = [
    "ReducedTree",
    "ModelGraph",
    "build_model_graph",
    "reduced_tree",
    "reduced_tree_of_spt",
    "sequence_of",
    "seq_price",
    "seq_chi",
    "seq_order_lt",
    "w_infinity",
]

ROOT = 0  # parent marker for top-level edges in a reduced tree


@dataclass(frozen=True)
class ReducedTree:
    """The nesting structure of priceable edges inside a shortest path tree.

    ``parents[i-1]`` describes the edge labeled i: None when the edge is
    unused, ``ROOT`` (0) when no other priceable edge precedes it, or the
    label of the priceable edge that immediately precedes it on the tree
    route.  Equality and hashing are by this tuple, so the reduced tree is a
    canonical memoization key.
    """

    parents: tuple[Union[int, None], ...]

    def __post_init__(self):
        k = len(self.parents)
        for i, par in enumerate(self.parents, start=1):
            if par is None:
                continue
            if not isinstance(par, int) or isinstance(par, bool) or not 0 <= par <= k:
                raise ValidationError(f"parent of edge {i} out of range: {par!r}")
            if par == i:
                raise ValidationError(f"edge {i} cannot be its own parent")
            if par != ROOT and self.parents[par - 1] is None:
                raise ValidationError(f"edge {i} hangs below absent edge {par}")
        # no cycles: every present edge must reach ROOT within k steps
        for i, par in enumerate(self.parents, start=1):
            if par is None:
                continue
            cur, steps = par, 0
            while cur != ROOT:
                cur = self.parents[cur - 1]
                steps += 1
                if steps > k:
                    raise ValidationError(f"cycle through edge {i}")

    @property
    def k(self) -> int:
        return len(self.parents)

    @cached_property
    def edges(self) -> tuple[int, ...]:
        """Labels present in the tree, ascending."""
        return tuple(i for i, par in enumerate(self.parents, start=1) if par is not None)

    def __contains__(self, label: int) -> bool:
        return 1 <= label <= self.k and self.parents[label - 1] is not None

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def _route_table(self) -> dict[int, tuple[int, ...]]:
        """``sequence_of`` for every present edge, kept on the tree once built."""
        table = {}
        for label in self.edges:
            seq = [label]
            cur = self.parents[label - 1]
            while cur != ROOT:
                seq.append(cur)
                cur = self.parents[cur - 1]
            table[label] = tuple(reversed(seq))
        self.__dict__["_routes"] = table
        return table


def sequence_of(rt: ReducedTree, label: int) -> tuple[int, ...]:
    """Labels on the route from the reduced-tree root down to ``label``.

    Empty when the edge is absent; otherwise ends with ``label`` itself.
    """
    routes = rt.__dict__.get("_routes")
    if routes is None:
        routes = rt._route_table()
    return routes.get(label, ())


def seq_price(seq: Sequence[int], prices: PriceFunction) -> Scalar:
    """Total price along a label sequence."""
    total: Scalar = 0
    for i in seq:
        total += prices.price(i)
    return total


def seq_chi(seq: Sequence[int]) -> int:
    """Signature of a label sequence."""
    return chi_sum(seq)


def seq_order_lt(a: Sequence[int], b: Sequence[int], prices: PriceFunction) -> bool:
    """Preference order between sequences: higher price first, then higher signature.

    Returns True when ``a`` is strictly preferred to ``b``.  Distinct
    sequences never tie, because distinct label sets have distinct signatures.
    """
    return (seq_price(a, prices), seq_chi(a)) > (seq_price(b, prices), seq_chi(b))


@dataclass(frozen=True)
class ModelGraph:
    """The 2k+1 vertex compression of an instance.

    Logical vertex ids: 0 is the root; 2i-1 and 2i are the tail and head of
    the edge labeled i.  ``vertex_of`` maps logical ids to instance vertices
    (several logical ids may share one).  ``root_w[l]`` is the fixed-only
    distance root -> vertex_of(l); ``t_w[i-1][l]`` the fixed-only distance
    head(e_i) -> vertex_of(l).  Fixed model edges exist wherever these values
    are finite: root -> every other logical vertex, and head(e_i) -> both
    endpoints of every other priceable edge.
    """

    k: int
    vertex_of: tuple[int, ...]
    root_w: tuple[ExtScalar, ...]
    t_w: tuple[tuple[ExtScalar, ...], ...]

    def s_of(self, label: int) -> int:
        return 2 * label - 1

    def t_of(self, label: int) -> int:
        return 2 * label

    @cached_property
    def fixed_adjacency(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """Per logical vertex: (head, weight) fixed edges, infinite ones omitted."""
        size = 2 * self.k + 1
        adj: list[list[tuple[int, Scalar]]] = [[] for _ in range(size)]
        for l in range(1, size):
            w = self.root_w[l]
            if is_finite(w):
                adj[0].append((l, w))
        for i in range(1, self.k + 1):
            row = self.t_w[i - 1]
            tail = self.t_of(i)
            for j in range(1, self.k + 1):
                if j == i:
                    continue
                for head in (self.s_of(j), self.t_of(j)):
                    w = row[head]
                    if is_finite(w):
                        adj[tail].append((head, w))
        return tuple(tuple(lst) for lst in adj)


def build_model_graph(
    inst: Instance,
    d_root: Sequence[ExtScalar],
    d_from_t: Sequence[Sequence[ExtScalar]],
) -> ModelGraph:
    """Assemble the model graph from precomputed fixed-only distance tables.

    ``d_root`` must be the fixed-only distances from the root, ``d_from_t``
    one table per priceable edge, from that edge's head vertex.
    """
    k = inst.k
    if len(d_root) != inst.n or len(d_from_t) != k:
        raise ValidationError("distance tables do not match the instance")
    vertex_of = [inst.root]
    for i in range(1, k + 1):
        vertex_of.append(inst.source_of(i))
        vertex_of.append(inst.target_of(i))
    root_w = tuple(d_root[v] for v in vertex_of)
    t_w = tuple(
        tuple(d_from_t[i - 1][v] for v in vertex_of) for i in range(1, k + 1)
    )
    return ModelGraph(k=k, vertex_of=tuple(vertex_of), root_w=root_w, t_w=t_w)


def reduced_tree(mg: ModelGraph, prices: PriceFunction) -> ReducedTree:
    """Reduced tree of the model graph under the given prices.

    Runs the composite-weight Dijkstra sweep on the 2k+1 logical vertices and
    contracts the fixed edges of the resulting tree.
    """
    if len(prices) != mg.k:
        raise ValidationError(f"model graph has k = {mg.k}, got {len(prices)} prices")
    size = 2 * mg.k + 1

    # adjacency with composite weights; parent records (tail, label or None)
    adj: list[list[tuple[int, tuple, Union[int, None]]]] = [
        [(head, (w, 0, 0), None) for head, w in row] for row in mg.fixed_adjacency
    ]
    for i in range(1, mg.k + 1):
        p = prices.price(i)
        adj[mg.s_of(i)].append((mg.t_of(i), (p, -p, -(1 << i)), i))

    dist: list = [None] * size
    parent: list = [None] * size
    start = (0, 0, 0)
    dist[0] = start
    heap = [(start, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        dw, dp, dc = d
        for v, (w, np_, nc), label in adj[u]:
            nd = (dw + w, dp + np_, dc + nc)
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                parent[v] = (u, label)
                heapq.heappush(heap, (nd, v))

    parents: list = [None] * mg.k
    for i in range(1, mg.k + 1):
        par = parent[mg.t_of(i)]
        if par is None or par[1] != i:
            continue  # e_i is not a tree edge
        cur = mg.s_of(i)
        found = ROOT
        while cur != 0:
            tail, label = parent[cur]
            if label is not None:
                found = label
                break
            cur = tail
        parents[i - 1] = found
    return ReducedTree(tuple(parents))


def reduced_tree_of_spt(inst: Instance, spt: SptResult) -> ReducedTree:
    """Contract the fixed edges of a full-graph shortest path tree."""
    k = inst.k
    last = last_priceable_labels(inst, spt)
    parents: list = [None] * k
    for i in range(1, k + 1):
        e = inst.priceable[i - 1]
        pe = spt.parent_edge[e.head]
        if pe is None:
            continue
        kind = inst.edges[pe].kind
        if isinstance(kind, Priceable) and kind.index == i:
            above = last[e.tail]
            parents[i - 1] = ROOT if above is None else above
    return ReducedTree(tuple(parents))


def w_infinity(mg: ModelGraph, seq: Sequence[int]) -> ExtScalar:
    """Fixed-only cost of following a label sequence, up to the last tail.

    The route enters the first edge's tail from the root and hops between
    consecutive priceable edges on fixed-only segments; the priced jumps and
    the final segment past the last head are *not* included.  Infinite when
    some segment has no fixed-only route.
    """
    if not seq:
        raise ValidationError("w_infinity needs a non-empty label sequence")
    total: ExtScalar = mg.root_w[mg.s_of(seq[0])]
    for a, b in zip(seq, seq[1:]):
        total = total + mg.t_w[a - 1][mg.s_of(b)]
    return total
