"""Revenue oracle: embeddings, dominance rectangles, and naive agreement."""

import itertools
import logging
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from oracles import linear_scan, query_rect, route_costs, scaled_fixed_table, unpruned_embedding
from stackspt.errors import UnreachableVertexError, ValidationError
from stackspt.instance import Edge, Fixed, Instance, Priceable, PriceFunction, random_instance
from stackspt.model import ReducedTree, reduced_tree_of_spt, sequence_of, w_infinity
from stackspt.oracle import RevenueOracle, build_oracle, embed_points
from stackspt.rangetree import Interval, QueryRect, RangeTree, build_range_tree
from stackspt.rational import INF, NEG_INF, is_finite
from stackspt.shortest import last_priceable_labels, lex_dijkstra, naive_revenue
from stackspt.solver import fallback_price, heuristic_candidates


def chain_with_bypasses() -> Instance:
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


def priceable_chain() -> Instance:
    # s2 is reachable only through the first priceable edge
    edges = (
        Edge(0, 1, Fixed(1)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 3, Fixed(1)),
        Edge(3, 4, Priceable(2)),
    )
    return Instance(n=5, root=0, edges=edges, demand=(1,) * 5)


def shared_head() -> Instance:
    edges = (
        Edge(0, 1, Fixed(4)),
        Edge(0, 2, Fixed(6)),
        Edge(1, 2, Priceable(1)),
        Edge(0, 2, Priceable(2)),
    )
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


class TestBuild:
    def test_builds_for_fewer_than_two_priceable_edges(self):
        for k in (0, 1):
            inst = random_instance(6, 8, k, seed=3)
            oracle = build_oracle(inst)
            assert oracle.k == k and oracle.model.k == k
            assert oracle.revenue((4,) * k) == naive_revenue(inst, (4,) * k)

    def test_shared_distance_tables(self):
        # both priceable edges end at the same vertex: one sweep, one table
        oracle = build_oracle(shared_head())
        assert oracle.d_t[0] is oracle.d_t[1]

    def test_repeated_builds_agree(self):
        inst = random_instance(12, 30, 3, seed=11, cost_max=8)
        a, b = build_oracle(inst), build_oracle(inst)
        rng = random.Random(0)
        for _ in range(20):
            p = [rng.randint(1, 9) for _ in range(3)]
            assert a.revenue(p) == b.revenue(p)


def servable_vertices(oracle: RevenueOracle, label: int) -> list:
    """The vertices ``embed_points`` keeps for an edge, whatever the reduced
    tree: those its head's bounded sweep settled (``TestBoundedHeadSweeps``
    checks which)."""
    return [v for v, d in enumerate(oracle.d_t[label - 1]) if is_finite(d)]


def int_caps(oracle: RevenueOracle, rt: ReducedTree, label: int, rect: QueryRect) -> list:
    """Per axis, the largest int coordinate of ``embed_points`` inside
    ``query_rect``'s ``rect``: such a coordinate is the one of
    ``unpruned_embedding`` less w_label, plus w_j on the axis of e_j, the
    route costs w of ``route_costs``."""
    w = route_costs(oracle, rt)
    caps = []
    for j, interval in zip(rt.edges, rect.intervals, strict=True):
        bound, closed = interval.upper
        shifted = bound - w[label] + (0 if j == label else w[j])
        cap = math.floor(shifted)
        caps.append(cap - 1 if cap == shifted and not closed else cap)
    return caps


def checked_breakdown(oracle: RevenueOracle, prices) -> tuple:
    """``revenue_breakdown(prices)``, once every range tree count it made is
    checked: ``_kernel`` gave it the int caps of ``query_rect``, and its
    answer is that row's served weight."""
    calls = []
    real_count = RangeTree.count

    def spy(tree, caps):
        served = real_count(tree, caps)
        calls.append((list(caps), served))
        return served

    with patch.object(RangeTree, "count", spy):
        rt, rows = oracle.revenue_breakdown(prices)
    want = [(int_caps(oracle, rt, label, query_rect(oracle, rt, label, prices)), served)
            for label, _, served in rows]
    assert calls == want, prices
    return rt, rows


def head_floor(oracle: RevenueOracle, label: int):
    """The floor the table of ``label``'s head was swept at: the least floor
    of the labels sharing that head."""
    target = oracle.instance.target_of
    return min(f for j, f in enumerate(oracle.floors, 1) if target(j) == target(label))


def full_tables(oracle: RevenueOracle) -> list:
    """Unbounded fixed-only tables from every head, times the cost scale."""
    inst = oracle.instance
    scale = oracle.model.scale
    return [scaled_fixed_table(inst, scale, inst.target_of(i)) for i in range(1, inst.k + 1)]


sweep_instances = st.one_of(
    strategies.instances(min_n=2, max_k=4),
    strategies.fractional_cost_instances(min_n=2, max_k=4),
    strategies.nested_chains(max_k=4),
    strategies.loose_instances(max_k=4),  # parallel edges: shared heads
)


class TestBoundedHeadSweeps:
    """Label floors and the head tables swept bounded by them."""

    @settings(max_examples=200)
    @given(sweep_instances)
    def test_floors_are_free_metric_distances(self, inst):
        oracle = build_oracle(inst)
        free = scaled_fixed_table(inst, oracle.model.scale, inst.root, free_priced=True)
        assert oracle.floors == tuple(free[inst.source_of(i)] for i in range(1, inst.k + 1))

    @settings(max_examples=200)
    @given(sweep_instances)
    def test_tables_hold_exactly_the_servable_vertices(self, inst):
        oracle = build_oracle(inst)
        d_root = scaled_fixed_table(inst, oracle.model.scale, inst.root)
        assert list(oracle.d_root) == d_root
        for i, full in enumerate(full_tables(oracle), start=1):
            lb = head_floor(oracle, i)
            servable = [
                is_finite(lb) and is_finite(d) and not (is_finite(r) and lb + d >= r)
                for d, r in zip(full, d_root)
            ]
            assert list(oracle.d_t[i - 1]) == [d if ok else INF for d, ok in zip(full, servable)]

    @settings(max_examples=200)
    @given(sweep_instances, st.data())
    def test_pruned_oracle_matches_naive(self, inst, data):
        oracle = build_oracle(inst)
        prices = data.draw(st.tuples(*[strategies.scalar_prices()] * inst.k))
        try:
            expect = naive_revenue(inst, prices)
        except UnreachableVertexError:
            with pytest.raises(UnreachableVertexError):
                oracle.revenue(prices)
            return
        assert oracle.revenue(prices) == expect
        assert oracle.reduced_tree_for(prices) == reduced_tree_of_spt(inst, lex_dijkstra(inst, prices))

    def test_a_never_tight_hop_is_not_realizable(self):
        # from the root, vertex 3 costs 2 on a fixed edge, but 3 through edge 1
        edges = (
            Edge(0, 1, Fixed(2)),
            Edge(1, 2, Priceable(1)),
            Edge(2, 3, Fixed(1)),
            Edge(3, 4, Priceable(2)),
            Edge(0, 3, Fixed(2)),
            Edge(0, 4, Fixed(20)),
        )
        inst = Instance(n=5, root=0, edges=edges, demand=(1,) * 5)
        oracle = build_oracle(inst)
        assert oracle.floors == (2, 2)
        assert oracle.model.t_w[0][oracle.model.s_of(2)] == INF  # the hop e1 -> e2
        rt = ReducedTree((0, 1))
        with pytest.raises(ValidationError, match="not realizable"):
            oracle.warm_up([rt])
        for label in rt.edges:
            with pytest.raises(ValidationError, match="not realizable"):
                embed_points(oracle, rt, label)
        for p in ([1, 1], [1, 17], [5, 3]):
            assert oracle.reduced_tree_for(p) != rt
            assert oracle.revenue(p) == naive_revenue(inst, p)

    def test_debug_log_once_per_head_sweep(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="stackspt"):
            build_oracle(chain_with_bypasses())
        lines = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        # edge 2's floor is 2 + 1 through edge 1, not d_root[3] = 10
        assert [m.split(" sweep_s=")[0] for m in lines] == [
            "head sweep for edges [1]: head=2 floor=2 settled=2",
            "head sweep for edges [2]: head=4 floor=3 settled=1",
        ]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="stackspt"):
            build_oracle(shared_head())
        lines = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        assert len(lines) == 1 and lines[0].startswith("head sweep for edges [1, 2]: head=2")


class TestEmbedding:
    def test_one_point_per_servable_vertex(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        # t_1 = vertex 2 reaches {2, 3} on fixed edges; from its floor 2 it undercuts 9 and 10
        assert len(embed_points(oracle, rt, 1)) == 2
        # t_2 = vertex 4 reaches only itself
        assert len(embed_points(oracle, rt, 2)) == 1
        # a label's points depend on the reduced tree's edges alone, one axis per edge
        nested = ReducedTree((0, 0))
        assert embed_points(oracle, nested, 2) == embed_points(oracle, rt, 2)
        assert embed_points(oracle, nested, 1) == embed_points(oracle, rt, 1)
        assert embed_points(oracle, rt, 1).dim == 2
        alone, both = embed_points(oracle, ReducedTree((0, None)), 1), embed_points(oracle, rt, 1)
        assert alone.dim == 1 and alone.weights == both.weights
        assert alone.points == tuple(point[:1] for point in both.points)

    def test_vertices_no_positive_price_serves_get_no_point(self):
        # vertex 2 costs 1 from the root, but 2 through edge 1 at any price
        edges = (
            Edge(0, 1, Fixed(10)),
            Edge(0, 1, Priceable(1)),
            Edge(1, 2, Fixed(1)),
            Edge(0, 2, Fixed(1)),
        )
        oracle = build_oracle(Instance(n=3, root=0, edges=edges, demand=(1, 1, 1)))
        rt = ReducedTree((0,))
        assert servable_vertices(oracle, 1) == [1]
        assert embed_points(oracle, rt, 1).points == ((-10,),)
        assert unpruned_embedding(oracle, rt, 1)[1].points == ((-10,), (0,))

    def test_own_axis_of_edge_head(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        p = PriceFunction((3, 4))
        for label, head in ((1, 2), (2, 4)):
            pts = embed_points(oracle, rt, label)
            got = pts.points[servable_vertices(oracle, label).index(head)][label - 1]
            assert got == -oracle.d_root[head]
            # the route's fixed part moves the cut, not the point
            w = w_infinity(oracle.model, sequence_of(rt, label))
            price = sum(p.values[:label])
            rect = query_rect(oracle, rt, label, p)
            assert rect.intervals[label - 1].upper == (-price, True)
            assert int_caps(oracle, rt, label, rect)[label - 1] == -price - w
        assert checked_breakdown(oracle, p)[0] == rt

    def test_unreachable_axis_is_negative_infinity(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        pts = embed_points(oracle, rt, 2)  # single point, for vertex 4
        # t_1 = vertex 2 cannot reach vertex 4 on fixed edges
        assert pts.points[0][0] == NEG_INF

    def test_rejects_absent_label(self):
        oracle = build_oracle(chain_with_bypasses())
        with pytest.raises(ValidationError):
            embed_points(oracle, ReducedTree((0, None)), 2)

    def test_rejects_unrealizable_tree(self):
        oracle = build_oracle(priceable_chain())
        # hanging edge 2 directly off the root needs a fixed route to its tail
        rt, message = ReducedTree((0, 0)), "route to edge 2 has no fixed path"
        with pytest.raises(ValidationError, match=message):
            embed_points(oracle, rt, 2)
        # edge 1's own route is realizable: the whole tree is checked all the same
        with pytest.raises(ValidationError, match=message):
            embed_points(oracle, rt, 1)
        with pytest.raises(ValidationError, match=message):
            oracle.warm_up([rt])
        assert oracle._plans == {} and oracle.materialized_keys == frozenset()

    def test_unmet_tree_is_answered_without_building(self, monkeypatch):
        import stackspt.oracle as mod

        calls = []
        real = mod.build_range_tree
        monkeypatch.setattr(mod, "build_range_tree", lambda pts: calls.append(1) or real(pts))
        oracle = build_oracle(chain_with_bypasses())
        for warm in ([], [ReducedTree((0, 1))]):
            oracle.warm_up(warm)
            plans, keys, built = dict(oracle._plans), oracle.materialized_keys, len(calls)
            for rt in (ReducedTree((0, None)), ReducedTree((0, 0))):
                assert rt.parents not in plans
                for label in rt.edges:
                    embed_points(oracle, rt, label)
            assert len(calls) == built and oracle._plans == plans
            assert oracle.materialized_keys == keys


def test_warm_up_of_list_parents_builds_the_tuple_plan():
    listed, tupled = build_oracle(chain_with_bypasses()), build_oracle(chain_with_bypasses())
    listed.warm_up([ReducedTree([0, 1])])
    tupled.warm_up([ReducedTree((0, 1))])
    assert listed.materialized_keys == tupled.materialized_keys == {
        (ReducedTree((0, 1)), 1), (ReducedTree((0, 1)), 2)}
    assert list(listed._plans) == list(tupled._plans) == [(0, 1)]
    assert listed.revenue((1, 1)) == tupled.revenue((1, 1))


@pytest.mark.parametrize("parents", [(), (0,), (0, 1, None)])
def test_reduced_tree_with_the_wrong_k_is_rejected(parents):
    oracle = build_oracle(chain_with_bypasses())  # k = 2
    rt, good = ReducedTree(parents), ReducedTree((0, 1))
    message = f"reduced tree has k = {len(parents)}, the oracle has k = 2"
    with pytest.raises(ValidationError, match=message):
        embed_points(oracle, rt, 1)
    with pytest.raises(ValidationError, match=message):
        oracle.warm_up([good, rt])
    assert oracle.materialized_keys == {(good, 1), (good, 2)}  # no plan for rt


def huge_then_stranded(big) -> Instance:
    # root -big-> 1 -(e1)-> 2, root -1-> 3 -(e2)-> 4: nothing leads from 2 to 3
    edges = (
        Edge(0, 1, Fixed(big)),
        Edge(1, 2, Priceable(1)),
        Edge(0, 3, Fixed(1)),
        Edge(3, 4, Priceable(2)),
    )
    return Instance(n=5, root=0, edges=edges, demand=(1,) * 5)


@pytest.mark.parametrize("big", [10**400, Fraction(10**400 + 1, 7)])
def test_huge_segment_before_a_missing_one(big):
    # big + INF raises OverflowError, since it converts big to a float
    with pytest.raises(OverflowError):
        big + INF
    oracle = build_oracle(huge_then_stranded(big))
    mg = oracle.model
    # model weights are times the cost scale: exact ints
    assert mg.root_w[mg.s_of(1)] == big * mg.scale and mg.t_w[0][mg.s_of(2)] == INF
    assert w_infinity(mg, (1,)) == big * mg.scale and type(w_infinity(mg, (1,))) is int
    assert w_infinity(mg, (1, 2)) == INF
    for label in (1, 2):
        with pytest.raises(ValidationError, match="not realizable"):
            embed_points(oracle, ReducedTree((0, 1)), label)
    with pytest.raises(ValidationError, match="not realizable"):
        oracle.warm_up([ReducedTree((0, 1))])


class TestIntervals:
    # chain_with_bypasses under (0, 1), the tree of prices 3 4: sigma_1 = (1)
    # with fixed part w_1 = 2 (root to tail 1), sigma_2 = (1, 2) with
    # w_2 = 2 + 1 (head 2 to tail 3); the kernel's int caps on the embedded
    # points are the bounds less each axis's shift w_i (own) or w_i - w_j

    def test_own_axis_closed_at_negated_price(self):
        oracle = build_oracle(chain_with_bypasses())
        rt = ReducedTree((0, 1))
        p = PriceFunction.parse("3 4", 2)
        rect = query_rect(oracle, rt, 1, p)
        assert rect.intervals[0].upper == (-3, True)
        assert rect.intervals[0].lower is None
        assert int_caps(oracle, rt, 1, rect)[0] == -3 - 2  # minus the shift w_1
        assert checked_breakdown(oracle, p)[0] == rt

    def test_cross_axis_bound_and_openness(self):
        oracle = build_oracle(chain_with_bypasses())
        rt = ReducedTree((0, 1))
        p = PriceFunction.parse("3 4", 2)
        # sigma_1 price 3; sigma_2 price 7; difference 4
        rect1 = query_rect(oracle, rt, 1, p)
        assert rect1.intervals[1].upper == (4, False)  # 3 < 7: sigma_1 loses
        assert int_caps(oracle, rt, 1, rect1)[1] == 4 - (2 - 3) - 1  # open: below 5
        rect2 = query_rect(oracle, rt, 2, p)
        assert rect2.intervals[0].upper == (-4, True)  # sigma_2 wins
        assert int_caps(oracle, rt, 2, rect2)[0] == -4 - (3 - 2)
        assert checked_breakdown(oracle, p)[0] == rt

    def test_one_axis_per_edge_of_the_tree(self):
        oracle = build_oracle(chain_with_bypasses())
        p = PriceFunction.parse("3 4", 2)
        rect = query_rect(oracle, ReducedTree((0, None)), 1, p)
        assert rect.intervals == (Interval(upper=(-3, True)),)
        rect = query_rect(oracle, ReducedTree((0, 1)), 1, p)
        assert rect.dim == 2 and all(iv.lower is None and iv.upper for iv in rect.intervals)
        # the kernel cuts one axis per edge too: one cap on a one-edge tree
        assert checked_breakdown(oracle, (7, 11))[0] == ReducedTree((0, None))

    def test_equal_prices_decided_by_signature(self):
        # parallel priceable edges: sequences (1) and (2) can tie on price
        edges = (
            Edge(0, 1, Priceable(1)),
            Edge(0, 1, Priceable(2)),
            Edge(0, 1, Fixed(50)),
        )
        inst = Instance(n=2, root=0, edges=edges, demand=(1, 1))
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 0))
        p = PriceFunction.parse("5 5", 2)
        rect1 = query_rect(oracle, rt, 1, p)
        rect2 = query_rect(oracle, rt, 2, p)
        # equal price: higher label wins the preference order
        assert rect1.intervals[rt.edges.index(2)].upper == (0, False)
        assert rect2.intervals[rt.edges.index(1)].upper == (0, True)
        assert int_caps(oracle, rt, 1, rect1)[rt.edges.index(2)] == -1
        assert int_caps(oracle, rt, 2, rect2)[rt.edges.index(1)] == 0
        assert oracle.revenue(p) == naive_revenue(inst, p) == 5
        # in the kernel: the two routes of the diamond tie at vertex 3, and e2 serves it
        rt, rows = checked_breakdown(build_oracle(diamond()), (1, 1, 5))
        assert rt == ReducedTree((0, 0, None)) and rows == ((1, 1, 2), (2, 1, Fraction(15, 2)))


@settings(max_examples=100)
@given(strategies.priced_instances(min_n=2, min_k=2, max_n=7, max_extra=10))
def test_rectangle_membership_matches_classification(case):
    inst, prices = case
    oracle = build_oracle(inst)
    rt = oracle.reduced_tree_for(prices)
    spt = lex_dijkstra(inst, prices)
    assert rt == reduced_tree_of_spt(inst, spt) == checked_breakdown(oracle, prices)[0]
    last = last_priceable_labels(inst, spt)
    w = route_costs(oracle, rt)
    for label in rt.edges:
        pts = embed_points(oracle, rt, label)
        rect = query_rect(oracle, rt, label, prices)
        kept = servable_vertices(oracle, label)
        assert len(kept) == len(pts.points) and pts.dim == rect.dim == len(rt.edges)
        # a coordinate plus its axis's shift is the unpruned one, or NEG_INF
        # exactly where the other edge's route cannot undercut the fixed
        # route at any price
        vertices, full = unpruned_embedding(oracle, rt, label)
        d_root, tables = oracle.d_root, full_tables(oracle)
        for v, point in zip(kept, pts.points):
            lifted = []
            for j, x, want in zip(rt.edges, point, full.points[vertices.index(v)], strict=True):
                got = x + w[label] - (0 if j == label else w[j])
                d_j = tables[j - 1][v]
                never_tight = j != label and is_finite(d_j) and is_finite(d_root[v]) and (
                    head_floor(oracle, j) + d_j >= d_root[v]
                )
                assert got == (NEG_INF if never_tight else want), (v, label, j)
                lifted.append(got)
            assert rect.contains(tuple(lifted)) == (last[v] == label), (v, label)
        # every vertex the head reaches, kept or not
        for v, point in zip(vertices, full.points):
            assert rect.contains(point) == (last[v] == label), (v, label)
        for v in set(range(inst.n)).difference(kept):
            assert last[v] != label, (v, label)


@settings(max_examples=150)
@given(strategies.priced_instances(min_n=2, min_k=2, max_n=8))
def test_revenue_matches_naive(case):
    inst, prices = case
    oracle = build_oracle(inst)
    assert oracle.revenue(prices) == naive_revenue(inst, prices)


@settings(max_examples=150)
@given(strategies.priced_instances(min_n=2, max_n=8, max_k=1))
def test_fewer_than_two_priceable_edges_match_naive(case):
    inst, prices = case
    oracle = build_oracle(inst)
    assert oracle.revenue(prices) == naive_revenue(inst, prices)
    assert oracle.reduced_tree_for(prices) == reduced_tree_of_spt(inst, lex_dijkstra(inst, prices))


@settings(max_examples=150)
@given(strategies.priced_instances(fractional_costs=True, min_n=2, max_n=8, max_k=4))
def test_fractional_costs_match_naive_and_contraction(case):
    inst, prices = case
    oracle = build_oracle(inst)
    assert oracle.revenue(prices) == naive_revenue(inst, prices)
    assert oracle.reduced_tree_for(prices) == reduced_tree_of_spt(inst, lex_dijkstra(inst, prices))


@settings(max_examples=100)
@given(
    st.one_of(
        strategies.instances(min_n=2, max_n=8, min_k=1, max_k=4),
        strategies.fractional_cost_instances(min_n=2, max_n=8, min_k=1, max_k=4),
    ),
    st.data(),
)
def test_every_spelling_of_a_price_vector_answers_alike(inst, data):
    oracle = build_oracle(inst)
    values = data.draw(st.tuples(*[strategies.scalar_prices()] * inst.k))
    # ints as ints, every price as a Fraction (Fraction(n, 1) for an int), and a mix
    as_fractions = tuple(Fraction(p) for p in values)
    mixed = tuple(data.draw(st.sampled_from((p, Fraction(p)))) for p in values)
    naive = naive_revenue(inst, values)
    answers = set()
    for vector in (values, as_fractions, mixed):
        for spelling in (vector, list(vector), PriceFunction(vector)):
            revenue = oracle.revenue(spelling)
            assert revenue == naive
            assert type(revenue) is (int if revenue.denominator == 1 else Fraction)
            answers.add((repr(revenue), repr(oracle.revenue_breakdown(spelling))))
    assert len(answers) == 1


def test_revenue_matches_naive_on_larger_instances():
    rng = random.Random(424)
    for trial in range(15):
        n = rng.randint(10, 40)
        k = rng.randint(2, 4)
        m = rng.randint(n - 1 + k, 4 * n)
        inst = random_instance(n, m, k, seed=rng.randint(0, 10**9), cost_max=12, demand_max=4)
        oracle = build_oracle(inst)
        for _ in range(15):
            if rng.random() < 0.3:
                p = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(k)]
            else:
                p = [rng.randint(1, 15) for _ in range(k)]
            assert oracle.revenue(p) == naive_revenue(inst, p)


def four_root_shortcuts() -> Instance:
    """Four regions in a row, each entered from the root by a long fixed edge
    and by a priceable shortcut.  Regions link forward only, so a shortcut's
    head cannot reach the regions before it: those axes are NEG_INF."""
    edges = []
    for i in range(4):
        first = 1 + 4 * i
        edges.append(Edge(0, first, Fixed(20 + 3 * i)))
        edges.append(Edge(0, first, Priceable(i + 1)))
        for j in range(3):
            edges.append(Edge(first + j, first + j + 1, Fixed(1 + (i + j) % 3)))
        if i < 3:
            edges.append(Edge(first + 3, first + 4, Fixed(2)))
    return Instance(n=17, root=0, edges=tuple(edges), demand=tuple(1 + v % 3 for v in range(17)))


def test_four_edge_trees_match_naive_at_breakpoints():
    inst = four_root_shortcuts()
    oracle = build_oracle(inst)
    breakpoints = heuristic_candidates(oracle).per_edge
    rng = random.Random(4)
    shifts = [0, 0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 7)]
    four_edge = 0
    for _ in range(300):
        p = PriceFunction(tuple(rng.choice(bps) + rng.choice(shifts) for bps in breakpoints))
        four_edge += len(oracle.reduced_tree_for(p).edges) == 4
        assert oracle.revenue(p) == naive_revenue(inst, p), p
    assert four_edge >= 30
    # one tree per (label, edge set) that a plan met, with one axis per edge
    met = {(label, plan.rt.edges) for plan in filter(None, oracle._plans.values())
           for label in plan.rt.edges}
    keys = oracle.materialized_keys
    assert sorted((label, rt.edges) for rt, label in keys) == sorted(met)
    assert {label for label, _ in met} == {1, 2, 3, 4}
    pts = {(rt, label): embed_points(oracle, rt, label) for rt, label in keys}
    assert all(p.dim == len(rt.edges) for (rt, _), p in pts.items())
    assert any(NEG_INF in point for p in pts.values() for point in p.points)


def _check_integer_cuts(inst: Instance, prices: PriceFunction) -> int:
    """Assert the integer-cut query against the exact path; returns how many
    points lie exactly on a side of their rectangle."""
    oracle = build_oracle(inst)
    value = oracle.revenue(prices)
    rt, rows = checked_breakdown(oracle, prices)
    assert value == naive_revenue(inst, prices), prices
    assert value == sum(price * served for _, price, served in rows)
    assert rt == oracle.reduced_tree_for(prices) and [r[0] for r in rows] == list(rt.edges)
    if value == int(value):
        assert type(value) is int
    on_side = 0
    w = route_costs(oracle, rt)
    for label, price, served in rows:
        if price == int(price):
            assert type(price) is int
        pts = embed_points(oracle, rt, label)
        rect = query_rect(oracle, rt, label, prices)
        # points are times the cost scale, so every finite coordinate is an int
        assert all(type(x) is int or x == NEG_INF for point in pts.points for x in point)
        assert served == build_range_tree(unpruned_embedding(oracle, rt, label)[1]).query(rect)
        # a coordinate plus its axis's shift is in the frame of the rectangle
        shifts = [w[label] - (0 if j == label else w[j]) for j in rt.edges]
        on_side += sum(
            x + shift == iv.upper[0]
            for point in pts.points
            for x, shift, iv in zip(point, shifts, rect.intervals)
        )
    return on_side


def _near_breakpoints(oracle: RevenueOracle, pick, qs=(1, 2, 3, 4, 5, 7, 9)) -> PriceFunction:
    """Per edge a breakpoint, or a small int when it has none, moved by 0 or
    +-1/q, or now and then the previous edge's price, so that routes tie on
    price, or ``fallback_price``, so that plans hold a strict subset of the
    edges; ``pick(seq)`` chooses."""
    prices = []
    for bps in heuristic_candidates(oracle).per_edge:
        if prices and pick((False, False, True)):
            prices.append(prices[-1])
            continue
        if pick((False, False, False, False, False, True)):
            prices.append(fallback_price(oracle.instance))
            continue
        base = pick(bps) if bps else pick(range(1, 13))
        price = base + pick((0, 1, -1)) * Fraction(1, pick(qs))
        prices.append(price if price > 0 else base)
    return PriceFunction(tuple(prices))


@settings(max_examples=150)
@given(strategies.fractional_cost_instances(min_n=2, max_n=8, min_k=1, max_k=4), st.data())
def test_integer_cuts_match_exact_bounds_near_breakpoints(inst, data):
    # cost scales 2, 3, 7 and their LCMs, against price denominators q that
    # neither divide nor are divided by them; own-axis bounds are all negative
    prices = _near_breakpoints(build_oracle(inst), lambda seq: data.draw(st.sampled_from(seq)))
    _check_integer_cuts(inst, prices)


@settings(max_examples=150)
@given(
    st.one_of(
        strategies.fractional_cost_instances(min_n=2, max_n=8, min_k=1, max_k=4),
        strategies.nested_chains(),
    ),
    st.data(),
)
def test_pruned_trees_count_like_unpruned_ones(inst, data):
    oracle = build_oracle(inst)
    prices = _near_breakpoints(oracle, lambda seq: data.draw(st.sampled_from(seq)))
    rt, rows = checked_breakdown(oracle, prices)
    for label, _, served in rows:
        rect = query_rect(oracle, rt, label, prices)
        _, full = unpruned_embedding(oracle, rt, label)
        assert served == build_range_tree(full).query(rect), (label, prices)
        assert served == linear_scan(full.points, full.weights, rect)
    assert oracle.revenue(prices) == naive_revenue(inst, prices)


def test_tree_of_an_edge_serving_only_zero_demand():
    # edge 1 can serve vertex 1 only (demand 0): vertex 2 is 1 from the root
    # on fixed edges and more through edge 1; edge 2 serves vertex 3
    edges = (
        Edge(0, 1, Fixed(10)),
        Edge(0, 1, Priceable(1)),
        Edge(1, 2, Fixed(1)),
        Edge(0, 2, Fixed(1)),
        Edge(0, 3, Fixed(8)),
        Edge(0, 3, Priceable(2)),
    )
    inst = Instance(n=4, root=0, edges=edges, demand=(1, 0, 3, 2))
    oracle = build_oracle(inst)
    for p in ([1, 1], [9, 7], [Fraction(19, 2), 8], [10, 8], [11, 9]):
        rt, rows = oracle.revenue_breakdown(p)
        assert oracle.revenue(p) == naive_revenue(inst, p) == sum(q * w for _, q, w in rows)
        assert [served for label, _, served in rows if label == 1] in ([], [0])
    rt, rows = oracle.revenue_breakdown([1, 1])
    assert rows == ((1, 1, 0), (2, 1, 2))
    tree = build_range_tree(embed_points(oracle, rt, 1))
    assert (tree.size, tree.distinct, tree.values) == (1, 0, ([], []))


def test_four_root_shortcut_trees_hold_the_servable_vertices():
    inst = four_root_shortcuts()
    oracle = build_oracle(inst)
    rng = random.Random(11)
    for _ in range(100):
        oracle.revenue_breakdown(_near_breakpoints(oracle, rng.choice))
    plans = [plan for plan in oracle._plans.values() if plan is not None]
    assert any(len(plan.rt.edges) == 4 for plan in plans)
    for plan in plans:
        dim = len(plan.rt.edges)
        for label, tree in zip(plan.rt.edges, plan.trees, strict=True):
            assert (tree.dim, tree.size) == (dim, len(servable_vertices(oracle, label)))


def test_two_edge_plan_builds_two_axis_trees():
    # edges 3 and 4 priced out of use: the plan's trees cut only the axes of edges 1 and 2
    inst = four_root_shortcuts()
    oracle = build_oracle(inst)
    out = fallback_price(inst)
    full = next(
        p for p in itertools.product(*heuristic_candidates(oracle).per_edge)
        if len(oracle.reduced_tree_for(p).edges) == 4
    )
    partial = full[:2] + (out, out)
    for p in (partial, full):
        assert oracle.revenue(p) == naive_revenue(inst, p), p
    two = oracle._plans[oracle.reduced_tree_for(partial).parents]
    four = oracle._plans[oracle.reduced_tree_for(full).parents]
    assert two.rt.edges == (1, 2) and [tree.dim for tree in two.trees] == [2, 2]
    assert [tree.dim for tree in four.trees] == [4] * 4
    for small, big in zip(two.trees, four.trees):
        assert small.distinct <= big.distinct


def _divided_costs(inst: Instance, divisors) -> Instance:
    edges = tuple(
        Edge(e.tail, e.head, Fixed(Fraction(e.kind.cost, divisors[pos % len(divisors)])))
        if isinstance(e.kind, Fixed) else e
        for pos, e in enumerate(inst.edges)
    )
    return Instance(n=inst.n, root=inst.root, edges=edges, demand=inst.demand)


def diamond() -> Instance:
    """Shortcuts 1 and 2 reach vertex 3 at equal fixed cost, so at equal
    prices the signature alone decides which serves it; 3 hangs below both."""
    edges = (
        Edge(0, 1, Fixed(Fraction(10, 3))),
        Edge(0, 2, Fixed(Fraction(10, 3))),
        Edge(1, 3, Fixed(Fraction(1, 7))),
        Edge(2, 3, Fixed(Fraction(1, 7))),
        Edge(3, 4, Fixed(Fraction(5, 2))),
        Edge(4, 5, Fixed(Fraction(1, 2))),
        Edge(0, 3, Fixed(9)),
        Edge(0, 4, Fixed(12)),
        Edge(0, 1, Priceable(1)),
        Edge(0, 2, Priceable(2)),
        Edge(3, 4, Priceable(3)),
    )
    return Instance(n=6, root=0, edges=edges, demand=(1, 2, 3, 1, 2, Fraction(3, 2)))


@pytest.mark.parametrize(
    "make, divisors",
    [(four_root_shortcuts, (7,)), (four_root_shortcuts, (2, 3)),
     (four_root_shortcuts, (3, 7, 2)), (diamond, (1,))],
)
def test_integer_cuts_meet_points_on_the_sides(make, divisors):
    rng = random.Random(sum(divisors))
    inst = _divided_costs(make(), divisors)
    oracle = build_oracle(inst)
    on_side = deep = 0
    for _ in range(120):
        prices = _near_breakpoints(oracle, rng.choice)
        on_side += _check_integer_cuts(inst, prices)
        deep += len(oracle.reduced_tree_for(prices).edges) >= 3
    assert on_side >= 100 and deep >= 10


class TestPartition:
    @settings(max_examples=80)
    @given(strategies.priced_instances(min_n=2, min_k=2, max_n=7))
    def test_served_weights_partition_total_demand(self, case):
        inst, prices = case
        oracle = build_oracle(inst)
        rt, rows = oracle.revenue_breakdown(prices)
        spt = lex_dijkstra(inst, prices)
        last = last_priceable_labels(inst, spt)
        free = sum(inst.demand[v] for v in range(inst.n) if last[v] is None)
        assert sum(served for _, _, served in rows) + free == sum(inst.demand)

    def test_breakdown_is_consistent(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        p = PriceFunction.parse("7 1", 2)
        rt, rows = oracle.revenue_breakdown(p)
        assert rt.parents == (0, 1)
        assert rows == ((1, 7, 2), (2, 8, 1))
        assert oracle.revenue(p) == 7 * 2 + 8 * 1 == naive_revenue(inst, p)


class TestDegenerate:
    def test_huge_prices_give_zero(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        assert oracle.reduced_tree_for((100, 100)).is_empty
        assert oracle.revenue((100, 100)) == 0

    def test_price_count_mismatch(self):
        oracle = build_oracle(chain_with_bypasses())
        with pytest.raises(ValidationError):
            oracle.revenue((1,))

    def test_unreachable_demand_vertex(self):
        edges = (
            Edge(0, 1, Priceable(1)),
            Edge(0, 1, Priceable(2)),
            Edge(2, 0, Fixed(1)),
        )
        inst = Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
        oracle = build_oracle(inst)
        with pytest.raises(UnreachableVertexError):
            oracle.revenue((1, 1))
        ok = Instance(n=3, root=0, edges=edges, demand=(1, 1, 0))
        assert build_oracle(ok).revenue((1, 1)) == 1

    def test_demand_reachable_only_through_a_priceable_edge(self):
        inst = priceable_chain()  # vertices 2, 3, 4 have no fixed-only route
        oracle = build_oracle(inst)
        assert [v for v, d in enumerate(oracle.d_root) if not is_finite(d)] == [2, 3, 4]
        for p in ((1, 1), (3, 1), (Fraction(1, 2), 7)):
            assert oracle.revenue(p) == naive_revenue(inst, p) > 0

    def test_unreachable_demand_raises_at_query_time(self):
        # vertex 3 hangs below nothing: no edge enters it
        edges = (Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1)), Edge(3, 2, Fixed(1)))
        inst = Instance(n=4, root=0, edges=edges, demand=(1, 1, 1, 2))
        oracle = build_oracle(inst)  # builds; the query reports the vertex
        message = "vertex 3 has positive demand but is unreachable from the root"
        for p in ((1,), (Fraction(5, 2),)):
            with pytest.raises(UnreachableVertexError, match=message):
                oracle.revenue(p)
            with pytest.raises(UnreachableVertexError, match=message):
                oracle.revenue_breakdown(p)
            with pytest.raises(UnreachableVertexError):
                naive_revenue(inst, p)

    def test_unreachable_vertex_without_demand(self):
        edges = (Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1)), Edge(3, 2, Fixed(1)))
        inst = Instance(n=4, root=0, edges=edges, demand=(1, 1, 1, 0))
        oracle = build_oracle(inst)
        for p in ((1,), (Fraction(5, 2),), (100,)):
            assert oracle.revenue(p) == naive_revenue(inst, p)
        assert oracle.revenue((1,)) == 1


def counting_plans(monkeypatch, mod, plans: list) -> None:
    """Record the reduced tree of every plan constructed."""
    real = mod._Plan
    monkeypatch.setattr(mod, "_Plan", lambda mg, rt: plans.append(rt) or real(mg, rt))


class TestMemo:
    def test_single_construction_per_edge_set(self, monkeypatch):
        import stackspt.oracle as mod

        calls = []
        real = mod.build_range_tree
        monkeypatch.setattr(mod, "build_range_tree", lambda pts: calls.append(pts.dim) or real(pts))
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        p = PriceFunction.parse("1 1", 2)
        first = oracle.revenue(p)
        rt = oracle.reduced_tree_for(p)
        assert rt.parents == (0, 1) and calls == [2, 2]
        assert oracle.revenue(p) == first
        # a second query, and another nesting of the same edges, reuse every tree
        oracle.warm_up([ReducedTree((0, 0))])
        assert calls == [2, 2]
        # each other edge set builds its own tree, once
        for q in ((1, 1), (7, 11), (8, 1), (7, 11), (8, 1)):
            assert oracle.revenue(q) == naive_revenue(inst, q)
        assert calls == [2, 2, 1, 1]
        assert oracle.materialized_keys == {
            (rt, 1), (rt, 2), (ReducedTree((0, None)), 1), (ReducedTree((None, 0)), 2)
        }

    def test_warm_up_prematerializes(self, monkeypatch):
        import stackspt.oracle as mod

        calls = []
        real = mod.build_range_tree
        monkeypatch.setattr(mod, "build_range_tree", lambda pts: calls.append(1) or real(pts))
        oracle = build_oracle(chain_with_bypasses())
        p = PriceFunction.parse("2 3", 2)
        rt = oracle.reduced_tree_for(p)
        oracle.warm_up([rt])
        n_built = len(calls)
        assert n_built == len(rt.edges)
        oracle.revenue(p)
        assert len(calls) == n_built

    def test_one_plan_per_reduced_tree_and_none_for_the_empty_tree(self, monkeypatch):
        import stackspt.oracle as mod

        plans, trees = [], []
        real_tree = mod.build_range_tree
        counting_plans(monkeypatch, mod, plans)
        monkeypatch.setattr(
            mod, "build_range_tree", lambda pts: trees.append(pts.dim) or real_tree(pts)
        )
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        empty = oracle.reduced_tree_for((100, 100))
        assert empty.is_empty
        oracle.warm_up([empty])
        assert oracle.revenue((100, 100)) == 0
        assert oracle.revenue_breakdown((100, 100)) == (empty, ())
        assert plans == trees == [] and oracle.materialized_keys == frozenset()

        vectors = [(a, b) for a in range(1, 9) for b in range(1, 9)]
        seen = {oracle.reduced_tree_for(p) for p in vectors} - {empty}
        assert len(seen) >= 2
        for _ in range(2):
            for p in vectors:
                assert oracle.revenue(p) == naive_revenue(inst, p)
        assert sorted(plans, key=repr) == sorted(seen, key=repr)  # once each
        met = {(label, rt.edges) for rt in seen for label in rt.edges}
        # once per (label, edge set), with one axis per edge of the set
        assert sorted(trees) == sorted(len(edges) for _, edges in met)
        keys = oracle.materialized_keys
        assert sorted((label, rt.edges) for rt, label in keys) == sorted(met)
        assert all(rt in seen and label in rt for rt, label in keys)

    def test_memoized_query_builds_nothing_and_scales_once(self, monkeypatch):
        import stackspt.model
        import stackspt.oracle as mod
        import stackspt.shortest

        base = chain_with_bypasses()
        thirds = Instance(  # cost scale 3; the half prices make the price scale 6
            n=base.n,
            root=base.root,
            edges=tuple(
                Edge(e.tail, e.head, Fixed(Fraction(e.kind.cost, 3))) if isinstance(e.kind, Fixed) else e
                for e in base.edges
            ),
            demand=base.demand,
        )
        vectors = [(a, b) for a in (Fraction(1, 2), 1, 3, 100) for b in (Fraction(3, 2), 2, 100)]
        for inst in (base, thirds):
            oracle = build_oracle(inst)
            first = [oracle.revenue(p) for p in vectors]
            trees = {oracle.reduced_tree_for(p) for p in vectors}
            assert any(rt.is_empty for rt in trees) and len(trees) >= 3
            calls = []
            # every construction of a ReducedTree, in any module, runs its validation
            real_check, real_plan = ReducedTree.__post_init__, mod._Plan
            monkeypatch.setattr(ReducedTree, "__post_init__", lambda rt: calls.append(rt) or real_check(rt))
            monkeypatch.setattr(mod, "_Plan", lambda *a: calls.append(a) or real_plan(*a))
            scalings = []
            real_scale = stackspt.shortest._scaled_prices
            for owner in (stackspt.shortest, stackspt.model, mod):
                monkeypatch.setattr(owner, "_scaled_prices", lambda *a: scalings.append(1) or real_scale(*a))
            again = [oracle.revenue(p) for p in vectors]
            assert calls == [] and len(scalings) == len(vectors)
            assert again == first == [naive_revenue(inst, p) for p in vectors]
            monkeypatch.undo()

    def test_warm_query_makes_no_price_function_and_scales_once(self, monkeypatch):
        import stackspt.instance
        import stackspt.model
        import stackspt.oracle as mod
        import stackspt.shortest

        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        vectors = [(a, b) for a in (1, 3, 100) for b in (2, 5, 100)]
        first = [(oracle.revenue(p), oracle.revenue_breakdown(p)) for p in vectors]  # warm
        built, scalings, checks = [], [], []
        real_init = PriceFunction.__post_init__
        monkeypatch.setattr(PriceFunction, "__post_init__", lambda pf: built.append(pf) or real_init(pf))
        real_scale = stackspt.shortest._scaled_prices
        for owner in (stackspt.shortest, stackspt.model, mod):
            monkeypatch.setattr(owner, "_scaled_prices", lambda *a: scalings.append(1) or real_scale(*a))
        real_check = stackspt.instance.ensure_scalar
        monkeypatch.setattr(stackspt.instance, "ensure_scalar", lambda *a: checks.append(a) or real_check(*a))
        for p, want in zip(vectors, first):
            for spelling in (p, list(p)):
                before = len(scalings)
                assert (oracle.revenue(spelling), oracle.revenue_breakdown(spelling)) == want
                assert len(scalings) == before + 2  # once per query
        assert built == [] and checks == []  # an int price needs no ensure_scalar either
        # a PriceFunction's values were checked when it was made, and are not again
        pfs = [PriceFunction(p) for p in vectors]
        pfs += [PriceFunction((Fraction(2 * a + 1, 2), Fraction(b, 3))) for a, b in vectors]
        assert len(built) == len(pfs) and len(checks) == 2 * len(vectors)  # the Fraction prices
        wants = [naive_revenue(inst, pf) for pf in pfs]
        scalings.clear()
        got = [(oracle.revenue(pf), oracle.revenue_breakdown(pf)) for pf in pfs]
        assert got[: len(vectors)] == first and [revenue for revenue, _ in got] == wants
        assert len(built) == len(pfs) and len(checks) == 2 * len(vectors)
        assert len(scalings) == 2 * len(pfs)  # once per query

    def test_concurrent_first_queries_build_once(self, monkeypatch):
        import stackspt.oracle as mod

        gate = threading.Barrier(8)
        lock = threading.Lock()
        calls = []
        plans = []
        real = mod.build_range_tree

        def counting(pts):
            with lock:
                calls.append(1)
            time.sleep(0.002)  # let the other threads reach the memo while this build runs
            return real(pts)

        monkeypatch.setattr(mod, "build_range_tree", counting)
        counting_plans(monkeypatch, mod, plans)  # list.append is atomic
        inst = diamond()
        probe = build_oracle(inst)
        # distinct reduced trees, two of them nestings of one edge set, so
        # threads race for the trees that those two plans share
        vectors = {}
        prices = (Fraction(1, 2), 1, 2, 4, 7)
        for p in [(a, b, c) for a in prices for b in prices for c in (1, 2, 5, 9)]:
            rt = probe.reduced_tree_for(p)
            if len(rt.edges) >= 1:
                vectors.setdefault(rt, p)
        trees, vectors = list(vectors), list(vectors.values())
        assert len(trees) >= 6 and len({label for rt in trees for label in rt.edges}) == 3
        met = {(label, rt.edges) for rt in trees for label in rt.edges}
        assert len(met) < sum(len(rt.edges) for rt in trees)
        expect = [naive_revenue(inst, p) for p in vectors]
        calls.clear()
        plans.clear()
        oracle = build_oracle(inst)

        def worker(shift):
            gate.wait(timeout=60)
            order = vectors[shift:] + vectors[:shift]
            return [oracle.revenue(p) for p in order], shift

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's check-then-build
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, s % len(vectors)) for s in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for got, shift in results:
            assert got == expect[shift:] + expect[:shift]
        assert len(calls) == len(met)  # one tree per (label, edge set), never two
        assert sorted(plans, key=repr) == sorted(trees, key=repr)


def test_debug_log_once_per_materialized_tree(caplog):
    oracle = build_oracle(chain_with_bypasses())
    p = PriceFunction.parse("1 1", 2)
    with caplog.at_level(logging.DEBUG, logger="stackspt"):
        oracle.revenue(p)
        built = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        assert [m.split(":")[0] for m in built] == [
            f"range tree for edge {i} over (1, 2)" for i in (1, 2)
        ]
        assert all("dim=2" in m and "build_s=" in m for m in built)
        assert "points=2 distinct=1" in built[0]  # two equal points merged
        caplog.clear()
        oracle.revenue(p)
        oracle.warm_up([ReducedTree((0, 0))])  # the same tree, then another nesting of its edges
        assert not [r for r in caplog.records if r.name == "stackspt"]
        for q in ((7, 11), (8, 1), (7, 11), (8, 1)):  # two other edge sets, twice each
            oracle.revenue(q)
        built = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        assert [m.split(":")[0] for m in built] == [
            "range tree for edge 1 over (1,)", "range tree for edge 2 over (2,)"
        ]
        assert all("dim=1" in m for m in built)


@settings(max_examples=60)
@given(strategies.nested_chains(max_k=4), st.data())
def test_plans_share_one_tree_per_edge_set(inst, data):
    import stackspt.oracle as mod

    calls = []
    counting = lambda pts: calls.append(1) or build_range_tree(pts)  # noqa: E731
    with patch.object(mod, "build_range_tree", counting):
        oracle = build_oracle(inst)
        for _ in range(12):
            prices = _near_breakpoints(oracle, lambda seq: data.draw(st.sampled_from(seq)))
            assert oracle.revenue(prices) == naive_revenue(inst, prices)
    shared = {}
    for plan in filter(None, oracle._plans.values()):
        for label, tree in zip(plan.rt.edges, plan.trees, strict=True):
            assert shared.setdefault((label, plan.rt.edges), tree) is tree, label
            assert tree.dim == len(plan.rt.edges)
    # plans with the same edge set share a tree object, and plans with different ones do not
    assert len({id(tree) for tree in shared.values()}) == len(shared)
    assert len(calls) == len(shared) <= inst.k * 2 ** (inst.k - 1)
    keys = oracle.materialized_keys
    assert len(keys) == len(shared) and {(label, rt.edges) for rt, label in keys} == set(shared)
