"""Model graph construction, reduced trees, and label sequences."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies
from oracles import bellman_ford_fixed, reference_model_csr
from stackspt.errors import UnreachableVertexError, ValidationError
from stackspt.instance import Instance, Edge, Fixed, Priceable, PriceFunction
from stackspt.model import (
    ROOT,
    ModelGraph,
    ReducedTree,
    build_model_graph,
    reduced_tree,
    reduced_tree_of_spt,
    sequence_of,
    w_infinity,
)
from stackspt.oracle import build_oracle
from stackspt.rational import INF, is_finite
from stackspt.shortest import (
    _dijkstra,
    _fixed_sweep,
    _scaled_prices,
    chi_sum,
    last_priceable_labels,
    lex_dijkstra,
    naive_revenue,
)


def model_of(inst: Instance) -> ModelGraph:
    """The model graph from the tables ``build_oracle`` uses: times the cost scale."""
    d_root = _fixed_sweep(inst, inst.root)[0]
    d_t = [_fixed_sweep(inst, inst.target_of(i))[0] for i in range(1, inst.k + 1)]
    return build_model_graph(inst, d_root, d_t)


def chain_with_bypasses() -> Instance:
    # 0 -> 1 -(e1)-> 2 -> 3 -(e2)-> 4 with fixed shortcuts from the root
    edges = (
        Edge(0, 1, Fixed(2)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 3, Fixed(1)),
        Edge(3, 4, Priceable(2)),
        Edge(0, 2, Fixed(9)),
        Edge(0, 3, Fixed(10)),
        Edge(0, 4, Fixed(20)),
    )
    return Instance(n=5, root=0, edges=edges, demand=(1,) * 5)


def thirds(inst: Instance) -> Instance:
    """``inst`` with every fixed cost divided by 3: cost scale 3."""
    edges = tuple(
        Edge(e.tail, e.head, Fixed(Fraction(e.kind.cost, 3))) if isinstance(e.kind, Fixed) else e
        for e in inst.edges
    )
    return Instance(n=inst.n, root=inst.root, edges=edges, demand=inst.demand)


def shared_endpoints() -> Instance:
    # two priceable edges in series sharing a vertex, tails touching the root
    edges = (
        Edge(0, 1, Priceable(1)),
        Edge(1, 2, Priceable(2)),
        Edge(0, 1, Fixed(5)),
        Edge(1, 2, Fixed(7)),
        Edge(0, 2, Fixed(100)),
    )
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


def level_and_back() -> Instance:
    # e_1 joins two vertices at equal fixed distance (gap 0), e_2 leads back into the root
    edges = (
        Edge(0, 1, Fixed(3)),
        Edge(0, 2, Fixed(3)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 0, Priceable(2)),
    )
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


def priced_only_head() -> Instance:
    # t_1 = 2 has no fixed-only route from the root: every price lets e_1 in
    edges = (Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1)), Edge(2, 1, Fixed(1)))
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


def unreachable_endpoints() -> Instance:
    # e_1 sits where the root cannot reach; its head reaches back to e_2's tail
    edges = (
        Edge(0, 1, Fixed(3)),
        Edge(2, 3, Priceable(1)),
        Edge(1, 0, Priceable(2)),
        Edge(3, 1, Fixed(Fraction(1, 2))),
    )
    return Instance(n=4, root=0, edges=edges, demand=(1,) * 4)


class TestReducedTreeValidation:
    def test_accepts_forest_shapes(self):
        ReducedTree((None, None))
        ReducedTree((0, 0))
        ReducedTree((0, 1))
        rt = ReducedTree((0, 1, 1, None))
        assert rt.edges == (1, 2, 3)
        assert rt.k == 4

    @pytest.mark.parametrize(
        "parents",
        [
            (1,),  # self parent
            (2, 1),  # two-cycle
            (2, 3, 1),  # three-cycle
            (None, 1),  # hangs below an absent edge
            (0, 7),  # label out of range
            (0, -1),
            (0, True),  # booleans are not labels
        ],
    )
    def test_rejects_malformed(self, parents):
        with pytest.raises(ValidationError):
            ReducedTree(tuple(parents))

    def test_list_parents_are_kept_as_a_tuple(self):
        rt = ReducedTree([0, 1, None])
        assert rt.parents == (0, 1, None)
        assert rt == ReducedTree((0, 1, None))
        assert hash(rt) == hash(ReducedTree((0, 1, None)))

    def test_contains_and_empty(self):
        rt = ReducedTree((0, None, 1))
        assert 1 in rt and 3 in rt
        assert 2 not in rt
        assert 0 not in rt and 4 not in rt
        assert not rt.is_empty
        assert ReducedTree((None, None)).is_empty


class TestSequences:
    def test_paths_from_root(self):
        rt = ReducedTree((0, 1, 1, None, 3))
        assert sequence_of(rt, 1) == (1,)
        assert sequence_of(rt, 2) == (1, 2)
        assert sequence_of(rt, 3) == (1, 3)
        assert sequence_of(rt, 5) == (1, 3, 5)
        assert sequence_of(rt, 4) == ()
        assert sequence_of(rt, 0) == sequence_of(rt, 9) == ()
        assert rt == ReducedTree((0, 1, 1, None, 3)) and hash(rt) == hash(ReducedTree(rt.parents))

    def test_signature(self):
        assert chi_sum((1, 3)) == 0b1010
        assert chi_sum(()) == 0


class TestModelGraphBuild:
    def test_tables_and_fixed_edges(self):
        inst = chain_with_bypasses()
        mg = model_of(inst)
        assert mg.k == 2
        assert mg.vertex_of == (0, 1, 2, 3, 4)
        assert mg.root_w == (0, 2, 9, 10, 20)
        assert mg.t_w[0] == (INF, INF, 0, 1, INF)
        assert mg.t_w[1] == (INF, INF, INF, INF, 0)
        starts, heads, tails, weights, labels, priced = mg._csr
        assert mg.scale == 1 and len(starts) == 6
        assert priced == [4, 6] and [labels[j] for j in priced] == [1, 2]

        def slots(u):
            assert all(tails[j] == u for j in range(starts[u], starts[u + 1]))
            return [(heads[j], weights[j], labels[j]) for j in range(starts[u], starts[u + 1])]

        assert slots(0) == [(1, 2, 0), (2, 9, 0), (3, 10, 0), (4, 20, 0)]
        assert slots(mg.t_of(1)) == [(3, 1, 0)]  # only the finite hop survives
        assert slots(mg.t_of(2)) == []
        # s_i holds no fixed edge, only e_i itself
        assert slots(mg.s_of(1)) == [(2, 0, 1)] and slots(mg.s_of(2)) == [(4, 0, 2)]

    def test_tables_match_independent_sssp(self):
        inst = chain_with_bypasses()
        mg = model_of(inst)
        bf_root = bellman_ford_fixed(inst, inst.root)
        assert mg.root_w == tuple(bf_root[v] for v in mg.vertex_of)
        for i in (1, 2):
            bf = bellman_ford_fixed(inst, inst.target_of(i))
            assert mg.t_w[i - 1] == tuple(bf[v] for v in mg.vertex_of)

    def test_rejects_tables_in_the_wrong_unit(self):
        inst = thirds(chain_with_bypasses())
        d_root = tuple(bellman_ford_fixed(inst, 0))  # real units: 2/3, 10/3, ... are Fractions
        d_t = [tuple(bellman_ford_fixed(inst, inst.target_of(i))) for i in (1, 2)]
        assert any(type(d) is Fraction for d in d_root)
        with pytest.raises(ValidationError, match="ints times the cost scale"):
            build_model_graph(inst, d_root, d_t)
        mg = model_of(inst)
        assert mg.scale == 3 and mg.root_w == (0, 2, 9, 10, 20)
        for bad in (Fraction(1, 2), 2.0, True, -INF, float("nan")):
            with pytest.raises(ValidationError, match="ints times the cost scale"):
                build_model_graph(inst, (0, bad) + mg.root_w[2:], mg.t_w)  # vertex_of is 0..4

    def test_rejects_mismatched_tables(self):
        inst = chain_with_bypasses()
        d_root = tuple(bellman_ford_fixed(inst, 0))
        d_t = [tuple(bellman_ford_fixed(inst, inst.target_of(i))) for i in (1, 2)]
        with pytest.raises(ValidationError):
            build_model_graph(inst, d_root[:-1], d_t)
        with pytest.raises(ValidationError):
            build_model_graph(inst, d_root, d_t[:1])


class TestReducedTreeComputation:
    @pytest.mark.parametrize(
        "prices,parents",
        [
            ("1 1", (0, 1)),
            ("7 1", (0, 1)),  # tie on plain cost broken toward the priced edge
            ("8 1", (None, 0)),  # first edge priced out, second hangs off the root
            ("1 17", (0, None)),  # second edge priced out
            ("8 17", (None, None)),
            ("8 10", (None, 0)),  # the gaps are 7 and 10: at its gap the priced edge wins
            ("8 11", (None, None)),
            ("13/2 11", (0, None)),  # 13 > 7 only if the scale factor 2 is left out
        ],
    )
    def test_chain_with_bypasses(self, prices, parents):
        inst = chain_with_bypasses()
        mg = model_of(inst)
        p = PriceFunction.parse(prices, 2)
        rt = reduced_tree(mg, p)
        assert rt.parents == parents
        spt = lex_dijkstra(inst, p)
        assert reduced_tree_of_spt(inst, spt) == rt

    def test_price_count_mismatch(self):
        mg = model_of(chain_with_bypasses())
        with pytest.raises(ValidationError):
            reduced_tree(mg, PriceFunction.parse("1", 1))

    def test_shared_endpoints(self):
        inst = shared_endpoints()
        mg = model_of(inst)
        assert mg.root_w == (0, 0, 5, 5, 12)
        rt = reduced_tree(mg, PriceFunction.parse("2 3", 2))
        assert rt.parents == (0, 1)
        assert w_infinity(mg, (1, 2)) == 0
        spt = lex_dijkstra(inst, PriceFunction.parse("2 3", 2))
        assert reduced_tree_of_spt(inst, spt) == rt
        # pricing the first edge out also strands the second behind fixed cost
        rt2 = reduced_tree(mg, PriceFunction.parse("6 3", 2))
        assert rt2.parents == (None, 0)

    def test_priceable_into_root_never_used(self):
        edges = (
            Edge(0, 1, Fixed(3)),
            Edge(1, 0, Priceable(1)),
        )
        inst = Instance(n=2, root=0, edges=edges, demand=(1, 1))
        rt = reduced_tree(model_of(inst), PriceFunction.parse("1", 1))
        assert rt.parents == (None,)


class TestEmptyCertificate:
    """``tree_parents`` answers the empty tree from the gaps, without a sweep."""

    def test_gaps(self):
        assert model_of(chain_with_bypasses())._gaps == (7, 10)
        assert model_of(thirds(chain_with_bypasses()))._gaps == (7, 10)  # times the cost scale
        assert model_of(level_and_back())._gaps == (0, -3)
        assert model_of(unreachable_endpoints())._gaps == (-1, -6)  # s_1 has no fixed route; scale 2
        assert model_of(priced_only_head())._gaps == (INF,)  # only t_1 has none

    @pytest.mark.parametrize(
        "make,prices,sweeps,parents",
        [
            (chain_with_bypasses, "8 11", 0, (None, None)),
            (chain_with_bypasses, "8 10", 1, (None, 0)),
            (chain_with_bypasses, "7 11", 1, (0, None)),
            (chain_with_bypasses, "15/2 21/2", 0, (None, None)),  # times 2: 15 > 14, 21 > 20
            (chain_with_bypasses, "13/2 11", 1, (0, None)),
            (thirds, "8/3 11/3", 0, (None, None)),  # gaps 7/3 and 10/3
            (thirds, "7/3 11/3", 1, (0, None)),
            (thirds, "5/2 7/2", 0, (None, None)),  # times 6: 15 > 14, 21 > 20
            (thirds, "13/6 7/2", 1, (0, 1)),  # e_2 ties the root route at 20/3 and wins
            (level_and_back, "1/7 1", 0, (None, None)),
            (unreachable_endpoints, "1 1", 0, (None, None)),
            (priced_only_head, "1000000000", 1, (0,)),
        ],
    )
    def test_sweeps_only_when_not_certified(self, monkeypatch, make, prices, sweeps, parents):
        inst = make(chain_with_bypasses()) if make is thirds else make()
        mg, p = model_of(inst), PriceFunction.parse(prices, inst.k)
        calls = []

        def counting(*args):
            calls.append(args)
            return _dijkstra(*args)

        monkeypatch.setattr("stackspt.model._dijkstra", counting)
        assert reduced_tree(mg, p).parents == parents
        assert len(calls) == sweeps
        oracle = build_oracle(inst)  # the query kernel, which skips the served-demand check
        assert oracle._kernel(*_scaled_prices(mg.scale, p.values))[0] == parents
        assert len(calls) == 2 * sweeps
        assert reduced_tree_of_spt(inst, lex_dijkstra(inst, p)).parents == parents


def _gap_prices(draw, mg: ModelGraph) -> tuple:
    """One price per label: its gap in real units, the gap +- 1/q, or 10**9,
    whichever of these are > 0; 1/q or 2/q where the gap is INF."""
    out = []
    for gap in mg._gaps:
        q = draw(st.sampled_from((1, 2, 3, 7)))
        at = Fraction(gap, mg.scale) if is_finite(gap) else Fraction(1, q)
        options = [x for x in (at, at - Fraction(1, q), at + Fraction(1, q)) if x > 0]
        out.append(draw(st.sampled_from(options + [10**9])))
    return tuple(out)


def _revenue(fn, *args):
    try:
        return fn(*args)
    except UnreachableVertexError:
        return "unreachable"


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        strategies.instances(max_k=4),
        strategies.fractional_cost_instances(max_k=4),
        strategies.loose_instances(),
    ),
    st.data(),
)
@example(chain_with_bypasses(), None)
@example(thirds(chain_with_bypasses()), None)
@example(shared_endpoints(), None)
@example(level_and_back(), None)
@example(unreachable_endpoints(), None)
@example(priced_only_head(), None)
def test_certificate_agrees_at_the_gaps(inst, data):
    oracle = build_oracle(inst)
    mg = oracle.model
    if data is None:  # every price at its gap, where one exists
        vectors = [tuple(Fraction(g, mg.scale) if is_finite(g) and g > 0 else 10**9
                         for g in mg._gaps)]
    else:
        vectors = [_gap_prices(data.draw, mg) for _ in range(4)]
    for prices in vectors:
        rt = reduced_tree(mg, prices)
        assert rt == reduced_tree_of_spt(inst, lex_dijkstra(inst, prices))
        fast = _revenue(oracle.revenue, prices)
        assert fast == _revenue(naive_revenue, inst, prices)
        if fast != "unreachable":
            assert oracle.revenue_breakdown(prices)[0] == rt


class TestWInfinity:
    def test_hand_values(self):
        mg = model_of(chain_with_bypasses())
        assert w_infinity(mg, (1,)) == 2
        assert w_infinity(mg, (2,)) == 10
        assert w_infinity(mg, (1, 2)) == 3
        assert w_infinity(mg, (2, 1)) == INF  # no fixed route back

    def test_rejects_empty(self):
        mg = model_of(chain_with_bypasses())
        with pytest.raises(ValidationError):
            w_infinity(mg, ())


@settings(max_examples=150)
@given(
    st.one_of(
        strategies.instances(max_k=4),
        strategies.fractional_cost_instances(max_k=4),
        strategies.loose_instances(),
    )
)
@example(chain_with_bypasses())
@example(shared_endpoints())
@example(unreachable_endpoints())
def test_csr_matches_adjacency_reference(inst):
    mg = model_of(inst)
    csr = mg._csr
    ref = reference_model_csr(mg)
    assert len(csr) == len(ref) == 6
    for got, want in zip(csr, ref):
        assert got == want


@settings(max_examples=100)
@given(st.one_of(strategies.fractional_cost_instances(max_k=4), strategies.loose_instances()))
def test_tables_are_distances_times_the_cost_scale(inst):
    mg = model_of(inst)
    scale = lcm(*[e.kind.cost.denominator for e in inst.edges if isinstance(e.kind, Fixed)])
    assert mg.scale == scale
    want = [bellman_ford_fixed(inst, inst.root)]
    want += [bellman_ford_fixed(inst, inst.target_of(i)) for i in range(1, inst.k + 1)]
    for got, table in zip((mg.root_w,) + mg.t_w, want):
        assert got == tuple(table[v] * scale for v in mg.vertex_of)
        assert all(type(w) is int or w == INF for w in got)


@settings(max_examples=200)
@given(strategies.reduced_trees())
def test_routes_walk_parent_links(rt):
    for label in range(rt.k + 2):
        seq = sequence_of(rt, label)
        if label not in rt:
            assert seq == ()
            continue
        assert rt.parents[seq[0] - 1] == ROOT and seq[-1] == label
        assert len(seq) <= rt.k
        for parent, child in zip(seq, seq[1:]):
            assert rt.parents[child - 1] == parent


@settings(max_examples=120)
@given(strategies.priced_instances())
def test_model_matches_full_graph(case):
    inst, prices = case
    mg = model_of(inst)
    rt = reduced_tree(mg, prices)
    spt = lex_dijkstra(inst, prices)
    assert rt == reduced_tree_of_spt(inst, spt)


@settings(max_examples=120)
@given(strategies.priced_instances())
def test_tree_distances_decompose_over_sequences(case):
    inst, prices = case
    mg = model_of(inst)
    spt = lex_dijkstra(inst, prices)
    rt = reduced_tree_of_spt(inst, spt)
    last = last_priceable_labels(inst, spt)
    d_root = bellman_ford_fixed(inst, inst.root)
    d_t = {i: bellman_ford_fixed(inst, inst.target_of(i)) for i in rt.edges}
    for v in range(inst.n):
        if not spt.reachable(v):
            assert d_root[v] == INF
            continue
        w, neg_p, neg_chi = spt.dist[v]
        i = last[v]
        if i is None:
            assert (w, neg_p, neg_chi) == (d_root[v], 0, 0)
            continue
        seq = sequence_of(rt, i)
        assert seq, "classified vertex must sit below a present edge"
        price = sum(prices.price(j) for j in seq)
        assert -neg_p == price
        assert -neg_chi == chi_sum(seq)
        assert w == w_infinity(mg, seq) + price + d_t[i][v]
