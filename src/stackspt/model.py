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

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence, Union

from .errors import ValidationError
from .instance import Instance, Priceable, PriceFunction, as_prices
from .rational import ExtScalar, is_finite
from .shortest import SptResult, _dijkstra, _lex_keys, _scaled_prices, last_priceable_labels

__all__ = [
    "ReducedTree",
    "ModelGraph",
    "build_model_graph",
    "reduced_tree",
    "reduced_tree_of_spt",
    "sequence_of",
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


def sequence_of(rt: ReducedTree, label: int) -> tuple[int, ...]:
    """Labels on the route from the reduced-tree root down to ``label``.

    Empty when the edge is absent; otherwise from a child of ``ROOT`` to ``label``.
    Walks ``parents`` up to ``ROOT``, at most k steps, as validation rules out cycles.
    """
    seq = []
    cur = label if label in rt else ROOT
    while cur != ROOT:
        seq.append(cur)
        cur = rt.parents[cur - 1]
    return tuple(reversed(seq))


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
    def _csr(self) -> tuple:
        """The model graph as slot arrays for the Dijkstra core, built from
        ``root_w`` and ``t_w``: (starts, heads, tails, weights, labels, scale).

        Slots run per logical vertex: the root's finite fixed edges to 1..2k,
        then for each label i the edge e_i out of s_i = 2i-1, then t_i = 2i's
        finite fixed edges to s_j and t_j, j != i ascending.  ``labels[j]`` is
        the priceable label at slot j or 0; fixed weights are stored times
        ``scale``, the LCM of their denominators.
        """
        rows = [[(v, w, 0) for v, w in enumerate(self.root_w) if v]]
        for i, row in enumerate(self.t_w, start=1):
            rows.append([(2 * i, 0, i)])
            rows.append([(v, w, 0) for v, w in enumerate(row) if v and (v + 1) // 2 != i])
        starts, heads, tails, weights, labels = [0], [], [], [], []
        for u, slots in enumerate(rows):
            for v, w, label in slots:
                if is_finite(w):
                    heads.append(v)
                    tails.append(u)
                    weights.append(w)
                    labels.append(label)
            starts.append(len(heads))
        scale = lcm(*[w.denominator for w in weights])
        weights = [w.numerator * (scale // w.denominator) for w in weights]
        return starts, heads, tails, weights, labels, scale


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


def reduced_tree(mg: ModelGraph, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
    """Reduced tree of the model graph under the given prices."""
    scale, ps = _scaled_prices(mg._csr[5], as_prices(prices, mg.k).values)
    return ReducedTree(tree_parents(mg, scale, ps))


def tree_parents(mg: ModelGraph, scale: int, ps: list[int]) -> tuple[Union[int, None], ...]:
    """``ReducedTree.parents`` under the prices ``ps``, given times ``scale``.

    ``scale`` must be a multiple of the model graph's weight scale, which
    divides the instance's cost scale, since every weight is a fixed-only
    distance.  Runs the composite-weight Dijkstra sweep on the 2k+1 logical
    vertices and contracts the fixed edges of the resulting tree.
    """
    starts, heads, tails, weights, labels, wscale = mg._csr
    inc, start = _lex_keys(weights, labels, scale // wscale, ps)[:2]
    _dist, parent = _dijkstra(starts, heads, inc, 0, start, len(starts) - 1)

    parents: list = [None] * mg.k
    for i in range(1, mg.k + 1):
        j = parent[mg.t_of(i)]
        if j is None or labels[j] != i:
            continue  # e_i is not a tree edge
        cur = mg.s_of(i)
        found = ROOT
        while cur != 0:
            j = parent[cur]
            if labels[j]:
                found = labels[j]
                break
            cur = tails[j]
        parents[i - 1] = found
    return tuple(parents)


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
