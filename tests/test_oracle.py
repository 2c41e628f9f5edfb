"""Revenue oracle: embeddings, dominance rectangles, and naive agreement."""

import logging
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from stackspt.errors import UnreachableVertexError, ValidationError
from stackspt.instance import Edge, Fixed, Instance, Priceable, PriceFunction, random_instance
from stackspt.model import ReducedTree, reduced_tree_of_spt, sequence_of, w_infinity
from stackspt.oracle import RevenueOracle, build_oracle, embed_points, query_intervals
from stackspt.rangetree import build_range_tree
from stackspt.rational import NEG_INF, is_finite
from stackspt.shortest import last_priceable_labels, lex_dijkstra, naive_revenue
from stackspt.solver import heuristic_candidates


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


class TestBuild:
    def test_builds_for_fewer_than_two_priceable_edges(self):
        for k in (0, 1):
            inst = random_instance(6, 8, k, seed=3)
            oracle = build_oracle(inst)
            assert oracle.k == k and oracle.model.k == k
            assert oracle.revenue((4,) * k) == naive_revenue(inst, (4,) * k)

    def test_shared_distance_tables(self):
        # both priceable edges end at the same vertex: one sweep, one table
        edges = (
            Edge(0, 1, Fixed(4)),
            Edge(0, 2, Fixed(6)),
            Edge(1, 2, Priceable(1)),
            Edge(0, 2, Priceable(2)),
        )
        inst = Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
        oracle = build_oracle(inst)
        assert oracle.d_t[0] is oracle.d_t[1]

    def test_repeated_builds_agree(self):
        inst = random_instance(12, 30, 3, seed=11, cost_max=8)
        a, b = build_oracle(inst), build_oracle(inst)
        rng = random.Random(0)
        for _ in range(20):
            p = [rng.randint(1, 9) for _ in range(3)]
            assert a.revenue(p) == b.revenue(p)


class TestEmbedding:
    def test_one_point_per_fixed_reachable_vertex(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        # t_1 = vertex 2 reaches {2, 3} on fixed edges
        assert len(embed_points(oracle, rt, 1)) == 2
        # t_2 = vertex 4 reaches only itself
        assert len(embed_points(oracle, rt, 2)) == 1

    def test_own_axis_of_edge_head(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        for label, head in ((1, 2), (2, 4)):
            seq = sequence_of(rt, label)
            expect = w_infinity(oracle.model, seq) - oracle.d_root[head]
            pts = embed_points(oracle, rt, label)
            axis = rt.edges.index(label)
            heads = [v for v in range(inst.n) if is_finite(oracle.d_t[label - 1][v])]
            got = pts.points[heads.index(head)][axis]
            assert got == expect

    def test_unreachable_axis_is_negative_infinity(self):
        inst = chain_with_bypasses()
        oracle = build_oracle(inst)
        rt = ReducedTree((0, 1))
        pts = embed_points(oracle, rt, 2)  # single point, for vertex 4
        axis_1 = rt.edges.index(1)
        # t_1 = vertex 2 cannot reach vertex 4 on fixed edges
        assert pts.points[0][axis_1] == NEG_INF

    def test_rejects_absent_label(self):
        oracle = build_oracle(chain_with_bypasses())
        with pytest.raises(ValidationError):
            embed_points(oracle, ReducedTree((0, None)), 2)

    def test_rejects_unrealizable_tree(self):
        oracle = build_oracle(priceable_chain())
        # hanging edge 2 directly off the root needs a fixed route to its tail
        with pytest.raises(ValidationError):
            embed_points(oracle, ReducedTree((0, 0)), 2)


class TestIntervals:
    def test_own_axis_closed_at_negated_price(self):
        oracle = build_oracle(chain_with_bypasses())
        rt = ReducedTree((0, 1))
        p = PriceFunction.parse("3 4", 2)
        rect = query_intervals(oracle, rt, 1, p)
        axis = rt.edges.index(1)
        assert rect.intervals[axis].upper == (-3, True)
        assert rect.intervals[axis].lower is None

    def test_cross_axis_bound_and_openness(self):
        oracle = build_oracle(chain_with_bypasses())
        rt = ReducedTree((0, 1))
        p = PriceFunction.parse("3 4", 2)
        # sigma_1 = (1) price 3; sigma_2 = (1,2) price 7; difference 4
        rect1 = query_intervals(oracle, rt, 1, p)
        axis2 = rt.edges.index(2)
        assert rect1.intervals[axis2].upper == (4, False)  # 3 < 7: sigma_1 loses
        rect2 = query_intervals(oracle, rt, 2, p)
        axis1 = rt.edges.index(1)
        assert rect2.intervals[axis1].upper == (-4, True)  # sigma_2 wins

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
        rect1 = query_intervals(oracle, rt, 1, p)
        rect2 = query_intervals(oracle, rt, 2, p)
        # equal price: higher label wins the preference order
        assert rect1.intervals[rt.edges.index(2)].upper == (0, False)
        assert rect2.intervals[rt.edges.index(1)].upper == (0, True)
        assert oracle.revenue(p) == naive_revenue(inst, p) == 5


@settings(max_examples=100)
@given(strategies.priced_instances(min_n=2, min_k=2, max_n=7, max_extra=10))
def test_rectangle_membership_matches_classification(case):
    inst, prices = case
    oracle = build_oracle(inst)
    rt = oracle.reduced_tree_for(prices)
    spt = lex_dijkstra(inst, prices)
    assert rt == reduced_tree_of_spt(inst, spt)
    last = last_priceable_labels(inst, spt)
    for label in rt.edges:
        pts = embed_points(oracle, rt, label)
        rect = query_intervals(oracle, rt, label, prices)
        vertices = [v for v in range(inst.n) if is_finite(oracle.d_t[label - 1][v])]
        for v, point in zip(vertices, pts.points):
            assert rect.contains(point) == (last[v] == label), (v, label)


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
    deep = [(rt, label) for rt, label in oracle.materialized_keys if len(rt.edges) == 4]
    assert any(
        NEG_INF in point for rt, label in deep for point in embed_points(oracle, rt, label).points
    )


def _check_integer_cuts(inst: Instance, prices: PriceFunction) -> int:
    """Assert the integer-cut query against the exact path; returns how many
    points lie exactly on a side of their rectangle."""
    oracle = build_oracle(inst)
    value = oracle.revenue(prices)
    rt, rows = oracle.revenue_breakdown(prices)
    assert value == naive_revenue(inst, prices), prices
    assert value == sum(price * served for _, price, served in rows)
    assert rt == oracle.reduced_tree_for(prices) and [r[0] for r in rows] == list(rt.edges)
    if value == int(value):
        assert type(value) is int
    on_side = 0
    for label, price, served in rows:
        if price == int(price):
            assert type(price) is int
        pts = embed_points(oracle, rt, label)
        rect = query_intervals(oracle, rt, label, prices)
        assert served == build_range_tree(pts).query(rect), (label, prices)
        on_side += sum(
            x == iv.upper[0] for point in pts.points for x, iv in zip(point, rect.intervals)
        )
    return on_side


def _near_breakpoints(oracle: RevenueOracle, pick, qs=(1, 2, 3, 4, 5, 7, 9)) -> PriceFunction:
    """Per edge a breakpoint, or a small int when it has none, moved by 0 or
    +-1/q, or now and then the previous edge's price, so that routes tie on
    price; ``pick(seq)`` chooses."""
    prices = []
    for bps in heuristic_candidates(oracle).per_edge:
        if prices and pick((False, False, True)):
            prices.append(prices[-1])
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
    for _ in range(60):
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


class TestMemo:
    def test_single_construction_per_key(self, monkeypatch):
        import stackspt.oracle as mod

        calls = []
        real = mod.build_range_tree
        monkeypatch.setattr(mod, "build_range_tree", lambda pts: calls.append(1) or real(pts))
        oracle = build_oracle(chain_with_bypasses())
        p = PriceFunction.parse("1 1", 2)
        first = oracle.revenue(p)
        built = len(calls)
        assert built == len(oracle.reduced_tree_for(p).edges)
        assert oracle.revenue(p) == first
        assert len(calls) == built  # second query reuses everything
        keys = oracle.materialized_keys
        assert all(label in rt for rt, label in keys)

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
        real_plan, real_tree = mod._Plan, mod.build_range_tree
        monkeypatch.setattr(mod, "_Plan", lambda mg, rt: plans.append(rt) or real_plan(mg, rt))
        monkeypatch.setattr(mod, "build_range_tree", lambda pts: trees.append(1) or real_tree(pts))
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
        assert len(trees) == sum(len(rt.edges) for rt in seen)
        assert oracle.materialized_keys == {(rt, label) for rt in seen for label in rt.edges}

    def test_concurrent_first_queries_build_once(self, monkeypatch):
        import stackspt.oracle as mod

        gate = threading.Barrier(8)
        lock = threading.Lock()
        calls = []
        plans = []
        real = mod.build_range_tree
        real_plan = mod._Plan

        def counting(pts):
            with lock:
                calls.append(1)
            return real(pts)

        def counting_plan(mg, rt):
            with lock:
                plans.append(rt)
            return real_plan(mg, rt)

        monkeypatch.setattr(mod, "build_range_tree", counting)
        monkeypatch.setattr(mod, "_Plan", counting_plan)
        inst = random_instance(16, 40, 3, seed=77, cost_max=9)
        oracle = build_oracle(inst)
        p = PriceFunction.parse("2 3 4", 3)
        expect = naive_revenue(inst, p)

        def worker():
            gate.wait(timeout=60)
            return oracle.revenue(p)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's check-then-build
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert all(r == expect for r in results)
        rt = oracle.reduced_tree_for(p)
        assert len(calls) == len(rt.edges) >= 1
        assert plans == [rt]


def test_debug_log_once_per_materialized_tree(caplog):
    oracle = build_oracle(chain_with_bypasses())
    p = PriceFunction.parse("1 1", 2)
    rt = oracle.reduced_tree_for(p)
    with caplog.at_level(logging.DEBUG, logger="stackspt"):
        oracle.revenue(p)
        built = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        assert len(built) == len(rt.edges) == 2
        assert all(f"{rt.parents}" in m and "dim=2" in m and "build_s=" in m for m in built)
        assert any("points=2 distinct=1" in m for m in built)  # two equal points merged
        caplog.clear()
        oracle.revenue(p)
        assert not [r for r in caplog.records if r.name == "stackspt"]
