"""Model graph construction, reduced trees, and label sequences."""

import pytest
from hypothesis import given, settings

import strategies
from oracles import bellman_ford_fixed
from stackspt.errors import ValidationError
from stackspt.instance import Instance, Edge, Fixed, Priceable, PriceFunction
from stackspt.model import (
    ModelGraph,
    ReducedTree,
    build_model_graph,
    reduced_tree,
    reduced_tree_of_spt,
    sequence_of,
    w_infinity,
)
from stackspt.rational import INF
from stackspt.shortest import chi_sum, fixed_cost_sssp, last_priceable_labels, lex_dijkstra


def model_of(inst: Instance) -> ModelGraph:
    d_root = fixed_cost_sssp(inst, inst.root)
    d_t = [fixed_cost_sssp(inst, inst.target_of(i)) for i in range(1, inst.k + 1)]
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
        assert sequence_of(rt, 5) is sequence_of(rt, 5)  # kept on the tree
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
        adj = mg.fixed_adjacency
        assert sorted(adj[0]) == [(1, 2), (2, 9), (3, 10), (4, 20)]
        assert adj[mg.t_of(1)] == ((3, 1),)  # only the finite hop survives
        assert adj[mg.t_of(2)] == ()
        assert adj[mg.s_of(1)] == () and adj[mg.s_of(2)] == ()

    def test_tables_match_independent_sssp(self):
        inst = chain_with_bypasses()
        mg = model_of(inst)
        bf_root = bellman_ford_fixed(inst, inst.root)
        assert mg.root_w == tuple(bf_root[v] for v in mg.vertex_of)
        for i in (1, 2):
            bf = bellman_ford_fixed(inst, inst.target_of(i))
            assert mg.t_w[i - 1] == tuple(bf[v] for v in mg.vertex_of)

    def test_rejects_mismatched_tables(self):
        inst = chain_with_bypasses()
        d_root = fixed_cost_sssp(inst, 0)
        d_t = [fixed_cost_sssp(inst, inst.target_of(i)) for i in (1, 2)]
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
        # two priceable edges in series sharing a vertex, tails touching the root
        edges = (
            Edge(0, 1, Priceable(1)),
            Edge(1, 2, Priceable(2)),
            Edge(0, 1, Fixed(5)),
            Edge(1, 2, Fixed(7)),
            Edge(0, 2, Fixed(100)),
        )
        inst = Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
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
    d_root = fixed_cost_sssp(inst, inst.root)
    d_t = {i: fixed_cost_sssp(inst, inst.target_of(i)) for i in rt.edges}
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
