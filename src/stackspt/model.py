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
from operator import gt
from typing import Sequence, Union

from .errors import ValidationError
from .instance import Instance, Priceable, PriceFunction, _checked_prices
from .rational import INF, ExtScalar, _scaled, is_finite
from .shortest import SptResult, _dijkstra, _lex_keys, last_priceable_labels

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
        object.__setattr__(self, "parents", tuple(self.parents))  # a list would not hash
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
    head(e_i) -> vertex_of(l).  Both are times ``scale``, the instance's cost
    scale (the LCM of the fixed costs' denominators): exact ints, or INF where
    no fixed-only route exists or, in an oracle's ``t_w``, no route through e_i
    undercuts ``root_w`` (a hop that is never tight).  Fixed model edges exist
    wherever these values are finite: root -> every other logical vertex, and
    head(e_i) -> both endpoints of every other priceable edge.

    Two views are derived once and cached: the slot arrays of the Dijkstra
    core (``_csr``), and per label the gap ``root_w[t_i] - root_w[s_i]``
    (``_gaps``) against which ``certified_empty`` certifies the empty tree.
    """

    k: int
    vertex_of: tuple[int, ...]
    root_w: tuple[ExtScalar, ...]
    t_w: tuple[tuple[ExtScalar, ...], ...]
    scale: int

    def s_of(self, label: int) -> int:
        return 2 * label - 1

    def t_of(self, label: int) -> int:
        return 2 * label

    @cached_property
    def _csr(self) -> tuple:
        """The model graph as slot arrays for the Dijkstra core, built from
        ``root_w`` and ``t_w``: (starts, heads, tails, weights, labels, priced).

        Slots run per logical vertex: the root's finite fixed edges to 1..2k,
        then for each label i the edge e_i out of s_i = 2i-1, then t_i = 2i's
        finite fixed edges to s_j and t_j, j != i ascending.  ``labels[j]`` is
        the priceable label at slot j or 0, ``priced[i-1]`` the slot of e_i;
        weights are the ints of ``root_w`` and ``t_w`` as they are.
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
        return starts, heads, tails, weights, labels, starts[1:2 * self.k:2]

    @cached_property
    def _gaps(self) -> tuple:
        """Per label i, ``root_w[t_i] - root_w[s_i]``: the price, times
        ``scale``, up to which e_i beats the fixed-only route from the root
        to t_i.  -1 when s_i has no fixed-only route (no price lets e_i in),
        INF when only t_i has none (every price does)."""
        return tuple(
            -1 if not is_finite(ws) else wt - ws if is_finite(wt) else INF
            for ws, wt in zip(self.root_w[1::2], self.root_w[2::2])
        )


def build_model_graph(
    inst: Instance,
    d_root: Sequence[ExtScalar],
    d_from_t: Sequence[Sequence[ExtScalar]],
) -> ModelGraph:
    """Assemble the model graph from precomputed fixed-only distance tables.

    ``d_root`` must be the fixed-only distances from the root, ``d_from_t``
    one table per priceable edge, from that edge's head vertex, all times the
    cost scale of ``Instance._layout``: exact ints, with INF where no route exists.
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
    if any(type(w) is not int and w != INF for w in root_w + sum(t_w, ())):
        raise ValidationError("distance tables must hold ints times the cost scale, or INF")
    return ModelGraph(k, tuple(vertex_of), root_w, t_w, scale=inst._layout[5])


def reduced_tree(mg: ModelGraph, prices: Union[PriceFunction, Sequence]) -> ReducedTree:
    """Reduced tree of the model graph under the given prices: empty when
    ``certified_empty`` holds, else the model sweep's (``tree_slots``) with
    its fixed edges contracted (``slot_parents``).  The oracle's kernel first
    tries the last model tree it swept, by its certificate (``kept_terms``)."""
    scale, ps = _scaled(_checked_prices(prices, mg.k), mg.scale)
    f = scale // mg.scale  # prices are f times the unit of the model weights
    if certified_empty(mg, f, ps):
        return ReducedTree((None,) * mg.k)
    return ReducedTree(slot_parents(mg, tree_slots(mg, f, ps)))


def certified_empty(mg: ModelGraph, f: int, ps) -> bool:
    """Whether the tree is empty: every price exceeds f times its gap.  Were
    some e_i in the tree, take the one whose head settles first: its priced-
    free route to s_i costs ``root_w[s_i]``, and t_i goes through e_i exactly
    when that plus the price is at most ``root_w[t_i]`` (ties go to e_i)."""
    gaps = mg._gaps
    return all(map(gt, ps, gaps)) if f == 1 else all(p > g * f for p, g in zip(ps, gaps))


def tree_slots(mg: ModelGraph, f: int, ps) -> tuple:
    """The composite-weight sweep of the 2k+1 logical vertices under prices
    ``ps`` that are f times ``mg.scale``: per logical vertex the ``_csr`` slot
    of its tree edge, None at the root and at unreached vertices."""
    starts, heads, _tails, weights, _labels, priced = mg._csr
    inc, start, _pcap, _m1, _m2 = _lex_keys(weights, priced, f, ps)
    return tuple(_dijkstra(starts, heads, inc, 0, start, [INF] * (len(starts) - 1))[1])


def slot_parents(mg: ModelGraph, slots: tuple) -> tuple[Union[int, None], ...]:
    """``ReducedTree.parents`` of the model tree with these parent slots:
    its fixed edges contracted."""
    _starts, _heads, tails, _weights, labels, _priced = mg._csr
    parents: list = [None] * mg.k
    for i in range(1, mg.k + 1):
        j = slots[2 * i]  # t_i
        if j is None or labels[j] != i:
            continue  # e_i is not a tree edge
        cur = 2 * i - 1  # s_i, then up its fixed tree edges
        while cur and not labels[slots[cur]]:
            cur = tails[slots[cur]]
        parents[i - 1] = labels[slots[cur]] if cur else ROOT
    return tuple(parents)


def kept_terms(mg: ModelGraph, slots: tuple, edges: tuple) -> tuple[tuple, bool]:
    """(terms, certifiable) of the model tree with these parent slots, whose
    reduced tree has the labels ``edges``.  Route r leads to ``edges[r]``, route
    n = len(edges) has no priced edge, and a query's ``totals`` lists the route
    prices, 0, then its prices.  Reached vertex v has its tree path's fixed
    weight F_v, route r_v (of its last priced edge) and signature chi_v.  Slot
    j = (u -> v) off the tree gives the term (c, t, r_u, x, r_v): c = F_u + w_j
    - F_v, x the index in ``totals`` of j's price (n when fixed), t = 1 when the
    tree wins a weight tie with j (c > 0: it pays more; or c = 0 and a larger
    signature).  At prices f times ``mg.scale`` the tree is the unique shortest
    one, so the sweep's, when every c * f + t + totals[r_u] + totals[x] >
    totals[r_v]; per (r_u, x, r_v) the least (c, t) binds for every f >= 1.  A
    fixed slot with r_u = r_v is dropped if the tree wins it; a tie there,
    the same at every price, leaves the tree not certifiable."""
    _starts, heads, tails, weights, labels, _priced = mg._csr
    n = len(edges)
    route = {label: r for r, label in enumerate(edges)}
    paths = {0: (0, n, 0)}  # reached logical vertex: (F, r, chi)

    def path(v):
        if v not in paths:
            j = slots[v]
            f, r, chi = path(tails[j])
            label = labels[j]
            paths[v] = (f + weights[j], route[label] if label else r, chi + (label and 1 << label))
        return paths[v]

    least, certifiable = {}, True
    for j, (u, v, w, label) in enumerate(zip(tails, heads, weights, labels)):
        if slots[v] == j or (u and slots[u] is None):
            continue  # a tree slot, or one out of an unreached vertex
        (f_u, r_u, chi_u), (f_v, r_v, chi_v) = path(u), path(v)
        c = f_u + w - f_v
        t = int(c > 0 or c == 0 and chi_u + (label and 1 << label) < chi_v)
        x = n + label
        if x == n and r_u == r_v:
            certifiable = certifiable and bool(t)
        else:
            least[r_u, x, r_v] = min(least.get((r_u, x, r_v), (c, t)), (c, t))
    return tuple(sorted((c, t, *key) for key, (c, t) in least.items())), certifiable


def reduced_tree_of_spt(inst: Instance, spt: SptResult) -> ReducedTree:
    """Contract the fixed edges of a full-graph shortest path tree."""
    return _contracted(inst, spt, last_priceable_labels(inst, spt))


def _contracted(inst: Instance, spt: SptResult, last: Sequence) -> ReducedTree:
    """``reduced_tree_of_spt`` given ``last``, the tree's ``last_priceable_labels``."""
    k = inst.k
    parents: list = [None] * k
    for i in range(1, k + 1):
        e = inst.priceable[i - 1]
        pe = spt.parent_edge[e.head]
        if pe is None:
            continue
        kind = inst._columns[2][pe]
        if isinstance(kind, Priceable) and kind.index == i:
            above = last[e.tail]
            parents[i - 1] = ROOT if above is None else above
    return ReducedTree(tuple(parents))


def w_infinity(mg: ModelGraph, seq: Sequence[int]) -> ExtScalar:
    """Fixed-only cost of following a label sequence, up to the last tail.

    The route enters the first edge's tail from the root and hops between
    consecutive priceable edges on fixed-only segments; the priced jumps and
    the final segment past the last head are *not* included.  Times
    ``mg.scale``, like the model weights; INF, with no sum taken (it could
    overflow), when some segment has no fixed-only route.
    """
    if not seq:
        raise ValidationError("w_infinity needs a non-empty label sequence")
    segments = [mg.root_w[mg.s_of(seq[0])]]
    segments += [mg.t_w[a - 1][mg.s_of(b)] for a, b in zip(seq, seq[1:])]
    return sum(segments) if all(map(is_finite, segments)) else INF
