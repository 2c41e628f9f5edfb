"""Composite-weight shortest paths: the tie-break order and the naive evaluator."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from stackspt.errors import UnreachableVertexError, ValidationError
from stackspt.instance import Edge, Fixed, Instance, Priceable, PriceFunction
from stackspt.model import reduced_tree_of_spt, sequence_of
from stackspt.oracle import build_oracle
from stackspt.rational import INF
from stackspt.shortest import (
    UNREACHABLE_WEIGHT,
    CompositeWeight,
    _csr,
    _dijkstra,
    _fixed_sweep,
    chi_sum,
    last_priceable_labels,
    lex_dijkstra,
    naive_revenue,
)
from strategies import fractional_cost_instances, instances, priced_instances


def chain(*kinds, demand=None):
    """Path instance 0 -> 1 -> ... with the given edge kinds."""
    n = len(kinds) + 1
    edges = tuple(Edge(i, i + 1, kind) for i, kind in enumerate(kinds))
    return Instance(n=n, root=0, edges=edges, demand=tuple(demand or (1,) * n))


class TestChi:
    def test_sum_is_injective_on_label_sets(self):
        k = 8
        values = set()
        for size in range(k + 1):
            for subset in itertools.combinations(range(1, k + 1), size):
                values.add(chi_sum(subset))
        assert len(values) == 2**k

    def test_larger_top_label_dominates(self):
        # whichever set holds the largest differing label has the bigger signature
        assert chi_sum({3}) > chi_sum({1, 2})
        assert chi_sum({4}) > chi_sum({1, 2, 3})


class TestCompositeWeight:
    def test_lexicographic_order(self):
        # cheaper first
        assert CompositeWeight(2, 0, 0) < CompositeWeight(3, -5, -8)
        # among equal cost, higher price first
        assert CompositeWeight(5, -3, 0) < CompositeWeight(5, -2, -8)
        # among equal cost and price, higher signature first
        assert CompositeWeight(5, -3, -4) < CompositeWeight(5, -3, -2)


class TestTieBreaks:
    def test_priceable_wins_cost_tie(self):
        # two routes of cost 2 to vertex 2; the priced one is preferred
        inst = Instance(
            n=3,
            root=0,
            edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, Fixed(1)), Edge(0, 2, Priceable(1))),
            demand=(1, 1, 1),
        )
        spt = lex_dijkstra(inst, PriceFunction((2,)))
        assert spt.dist[2] == CompositeWeight(2, -2, -2)
        assert spt.parent_edge[2] == 2
        assert naive_revenue(inst, PriceFunction((2,))) == 2

    def test_priceable_loses_when_strictly_costlier(self):
        inst = Instance(
            n=3,
            root=0,
            edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, Fixed(1)), Edge(0, 2, Priceable(1))),
            demand=(1, 1, 1),
        )
        spt = lex_dijkstra(inst, PriceFunction((3,)))
        assert spt.dist[2] == CompositeWeight(2, 0, 0)
        assert naive_revenue(inst, PriceFunction((3,))) == 0

    def test_signature_breaks_price_tie(self):
        # parallel priceable edges at the same price: larger label wins
        inst = Instance(
            n=3,
            root=0,
            edges=(
                Edge(0, 2, Priceable(1)),
                Edge(0, 2, Priceable(2)),
                Edge(0, 1, Fixed(1)),
            ),
            demand=(1, 1, 1),
        )
        spt = lex_dijkstra(inst, PriceFunction((2, 2)))
        assert spt.dist[2] == CompositeWeight(2, -2, -4)
        assert last_priceable_labels(inst, spt)[2] == 2
        assert naive_revenue(inst, PriceFunction((2, 2))) == 2

    def test_price_paid_and_path(self):
        inst = chain(Priceable(1), Fixed(1), Priceable(2), Fixed(1))
        prices = PriceFunction((2, Fraction(5, 2)))
        spt = lex_dijkstra(inst, prices)
        assert spt.price_paid(4) == Fraction(9, 2)
        assert spt.parent_edge == (None, 0, 1, 2, 3)
        assert last_priceable_labels(inst, spt) == (None, 1, 1, 2, 2)
        assert naive_revenue(inst, prices) == 2 + 2 + Fraction(9, 2) + Fraction(9, 2)


class TestAgainstPathEnumeration:
    @given(priced_instances(max_n=6, max_extra=8))
    def test_distances_match_brute_force(self, case):
        inst, prices = case
        source = inst.root
        best = oracles.min_composite_by_path_enumeration(inst, prices, source)
        spt = lex_dijkstra(inst, prices, source)
        for v in range(inst.n):
            if best[v] is None:
                assert spt.dist[v] == UNREACHABLE_WEIGHT
            else:
                assert spt.dist[v] == CompositeWeight(*best[v])

    @given(priced_instances(max_n=6, max_extra=8), st.integers(min_value=0, max_value=5))
    def test_distances_from_other_sources(self, case, source_pick):
        inst, prices = case
        source = source_pick % inst.n
        best = oracles.min_composite_by_path_enumeration(inst, prices, source)
        spt = lex_dijkstra(inst, prices, source)
        for v in range(inst.n):
            expected = UNREACHABLE_WEIGHT if best[v] is None else CompositeWeight(*best[v])
            assert spt.dist[v] == expected


def _exact_scalars(*values):
    """Every value is an int when integral, else a Fraction in lowest terms."""
    return all(
        isinstance(x, int) if x == int(x) else isinstance(x, Fraction) for x in values
    )


class TestFractionalCosts:
    """Fraction costs (denominators 2, 3, 7) against brute force.

    The core scales costs and prices to ints by the LCM of their denominators
    and divides back; these checks hold only if both scalings are exact.
    """

    @given(priced_instances(fractional_costs=True, max_n=6, max_extra=8))
    def test_distances_match_path_enumeration(self, case):
        inst, prices = case
        best = oracles.min_composite_by_path_enumeration(inst, prices, inst.root)
        spt = lex_dijkstra(inst, prices)
        for v in range(inst.n):
            expected = UNREACHABLE_WEIGHT if best[v] is None else CompositeWeight(*best[v])
            assert spt.dist[v] == expected
            if spt.reachable(v):
                assert _exact_scalars(spt.dist[v].w, spt.dist[v].neg_p)

    @settings(max_examples=60)
    @given(priced_instances(fractional_costs=True, max_n=6, max_extra=6))
    def test_naive_revenue_matches_exhaustive_tree_maximum(self, case):
        inst, prices = case
        try:
            expected = oracles.max_spt_revenue(inst, prices, cap=50_000)
        except ValueError:
            return  # too many trees to enumerate; other examples cover it
        value = naive_revenue(inst, prices)
        assert value == expected
        assert _exact_scalars(value)

    @given(fractional_cost_instances(max_n=12, max_extra=20), st.integers(0, 11))
    def test_fixed_sweep_matches_bellman_ford(self, inst, source_pick):
        source = source_pick % inst.n
        got = _fixed_sweep(inst, source)[0]
        assert list(got) == oracles.scaled_fixed_table(inst, _csr(inst)[5], source)
        assert all(type(d) is int for d in got if d is not INF)

    def test_huge_costs_stay_exact(self):
        # scaled distances far beyond the float range
        big = Fraction(10**400 + 1, 7)
        scaled = 3 * (10**400 + 1)  # big times the cost scale 21
        inst = chain(Fixed(big), Priceable(1), Fixed(Fraction(1, 3)), Fixed(big))
        assert _csr(inst)[5] == 21
        assert _fixed_sweep(inst, 0)[0] == (0, scaled, INF, INF, INF)
        assert _fixed_sweep(inst, 2)[0] == (INF, INF, 0, 7, scaled + 7)
        spt = lex_dijkstra(inst, PriceFunction((Fraction(1, 2),)))
        assert spt.dist[4] == CompositeWeight(2 * big + Fraction(5, 6), Fraction(-1, 2), -2)
        assert naive_revenue(inst, PriceFunction((5,))) == 15
        # the oracle too: costs above 2**1100 beside vertices with no fixed path,
        # whose NEG_INF coordinates must never be added to a huge finite value
        assert big > 2**1100
        inst = Instance(n=6, root=0, edges=(
            Edge(0, 1, Fixed(big)),
            Edge(1, 2, Priceable(1)),
            Edge(2, 3, Fixed(Fraction(1, 3))),
            Edge(3, 4, Priceable(2)),
            Edge(0, 3, Fixed(3 * big)),
            Edge(4, 5, Fixed(big)),
        ), demand=(1, 2, 3, 4, 5, 6))
        assert _csr(inst)[5] == 21
        assert _fixed_sweep(inst, 0)[0] == (0, scaled, INF, 3 * scaled, INF, INF)
        oracle = build_oracle(inst)
        for prices in [(Fraction(1, 2), 5), (big, 1), (1, 3 * big), (3 * big, 1)]:
            p = PriceFunction(prices)
            spt = lex_dijkstra(inst, p)
            rt = reduced_tree_of_spt(inst, spt)
            last = last_priceable_labels(inst, spt)
            expected = tuple(
                (
                    label,
                    sum(p.price(i) for i in sequence_of(rt, label)),
                    sum(phi for v, phi in enumerate(inst.demand) if last[v] == label),
                )
                for label in rt.edges
            )
            assert oracle.revenue(p) == naive_revenue(inst, p)
            assert oracle.revenue_breakdown(p) == (rt, expected)

    def test_integral_fraction_costs_give_int_distances(self):
        # every denominator is 1, so the scale is 1, yet the costs are Fractions
        inst = chain(Fixed(Fraction(4, 2)), Priceable(1), Fixed(3), Fixed(Fraction(1)))
        assert _csr(inst)[5] == 1
        got = _fixed_sweep(inst, 2)[0]
        assert got == (INF, INF, 0, 3, 4)
        assert all(type(d) is int for d in got if d is not INF)
        assert _exact_scalars(naive_revenue(inst, PriceFunction((Fraction(6, 3),))))

    def test_integral_fraction_after_an_equal_int(self):
        # a set of the costs keeps the int 1 and drops the Fraction(1) after it
        inst = chain(Fixed(1), Priceable(1), Fixed(Fraction(1)), Fixed(1))
        assert _csr(inst)[5] == 1
        got = _fixed_sweep(inst, 2)[0]
        assert got == (INF, INF, 0, 1, 2)
        assert all(type(d) is int for d in got if d is not INF)
        assert naive_revenue(inst, PriceFunction((2,))) == 6


class TestPermutationInvariance:
    @given(priced_instances(max_n=8, max_extra=10), st.randoms(use_true_random=False))
    def test_distances_and_classification(self, case, rng):
        inst, prices = case
        order = list(range(inst.m))
        rng.shuffle(order)
        permuted = Instance(
            n=inst.n,
            root=inst.root,
            edges=tuple(inst.edges[j] for j in order),
            demand=inst.demand,
        )
        a = lex_dijkstra(inst, prices)
        b = lex_dijkstra(permuted, prices)
        assert a.dist == b.dist
        assert last_priceable_labels(inst, a) == last_priceable_labels(permuted, b)
        assert naive_revenue(inst, prices) == naive_revenue(permuted, prices)


class TestFixedSweep:
    @given(instances(max_n=12, max_extra=20), st.integers(min_value=0, max_value=11))
    def test_matches_bellman_ford(self, inst, source_pick):
        source = source_pick % inst.n
        assert _csr(inst)[5] == 1
        assert list(_fixed_sweep(inst, source)[0]) == oracles.scaled_fixed_table(inst, 1, source)

    def test_priceable_edges_are_ignored(self):
        inst = chain(Priceable(1), Fixed(4))
        d = _fixed_sweep(inst, 0)[0]
        assert d[0] == 0 and d[1] is INF and d[2] is INF
        assert _fixed_sweep(inst, 1)[0] == (INF, 0, 4)


def test_lex_dijkstra_source_out_of_range():
    inst = chain(Fixed(1), Priceable(1))
    for source in (-1, 3):
        with pytest.raises(ValidationError) as err:
            lex_dijkstra(inst, (1,), source)
        assert str(err.value) == f"source {source} out of range [0, 3)"


class TestNaiveRevenue:
    def test_matches_exhaustive_tree_maximum(self):
        # revenue is the max over every plain shortest path tree
        inst = Instance(
            n=3,
            root=0,
            edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, Fixed(1)), Edge(0, 2, Priceable(1))),
            demand=(1, 1, 1),
        )
        prices = PriceFunction((2,))
        assert naive_revenue(inst, prices) == oracles.max_spt_revenue(inst, prices) == 2

    @settings(max_examples=60)
    @given(priced_instances(max_n=6, max_extra=6))
    def test_matches_exhaustive_tree_maximum_random(self, case):
        inst, prices = case
        try:
            expected = oracles.max_spt_revenue(inst, prices, cap=50_000)
        except ValueError:
            return  # too many trees to enumerate; other examples cover it
        assert naive_revenue(inst, prices) == expected

    def test_unreachable_demand_raises(self):
        inst = Instance(n=2, root=0, edges=(), demand=(1, 1))
        with pytest.raises(UnreachableVertexError):
            naive_revenue(inst, PriceFunction(()))

    def test_unreachable_huge_demand_is_named_in_full(self):
        # past the 4300 digits that str() of an int is capped at
        inst = Instance(n=2, root=0, edges=(), demand=(1, 10**5000))
        with pytest.raises(UnreachableVertexError, match="vertex 1 has demand 10{5000} but"):
            naive_revenue(inst, PriceFunction(()))

    def test_unreachable_zero_demand_is_fine(self):
        inst = Instance(n=2, root=0, edges=(), demand=(1, 0))
        assert naive_revenue(inst, PriceFunction(())) == 0

    def test_price_count_must_match(self):
        inst = chain(Priceable(1))
        with pytest.raises(ValidationError):
            naive_revenue(inst, PriceFunction((1, 2)))

    @given(priced_instances(max_n=8, max_extra=10))
    def test_consistent_with_tree_distances(self, case):
        inst, prices = case
        spt = lex_dijkstra(inst, prices)
        expected = sum(
            inst.demand[v] * spt.price_paid(v)
            for v in range(inst.n)
            if spt.reachable(v)
        )
        assert naive_revenue(inst, prices) == expected

    @given(priced_instances(max_n=8, max_extra=10))
    def test_exact_type(self, case):
        inst, prices = case
        value = naive_revenue(inst, prices)
        assert isinstance(value, (int, Fraction))


@st.composite
def csr_graphs(draw):
    """``_dijkstra`` arguments (starts, heads, inc, source, start, dist) of a random CSR.

    Increments come from a two-value set, so equal keys and therefore ties
    are common; on half the graphs that set sits above 2^200.  Vertices have
    0..3 out-edges, so some are left unreached.  The initial ``dist`` is all
    INF, or a ceiling: per vertex INF or ``start`` plus a few increments, so
    some routes stop below it and some do not.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    base = draw(st.sampled_from((0, 2**200)))
    starts, heads, inc = [0], [], []
    for _ in range(n):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            heads.append(draw(st.integers(min_value=0, max_value=n - 1)))
            inc.append(base + draw(st.integers(min_value=1, max_value=2)))
        starts.append(len(heads))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    start = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=2**210)))
    dist = [INF] * n
    if draw(st.booleans()):
        steps = st.integers(min_value=0, max_value=6).map(lambda x: start + x * (base + 1))
        dist = draw(st.lists(st.one_of(st.just(INF), steps), min_size=n, max_size=n))
    return starts, heads, inc, source, start, dist


class TestDijkstraCore:
    """The packed-heap core against the tuple-heap core it replaced."""

    @given(csr_graphs())
    @example(([0, 0], [], [], 0, 7, [INF]))  # n = 1
    @example(([0, 2, 3, 4, 4, 4], [1, 2, 3, 3], [1, 1, 1, 1], 0, 3, [INF] * 5))  # tie at 3, 4 unreached
    @example(([0, 2, 3, 4, 4, 4], [1, 2, 3, 3], [1, 1, 1, 1], 0, 3, [INF, 4, INF, 5, INF]))  # 1 and 3 capped
    @settings(max_examples=300)
    def test_same_dist_and_parents_as_tuple_heap(self, graph):
        *csr, dist = graph
        dist, parent = _dijkstra(*csr, list(dist))
        ref_dist, ref_parent = oracles.tuple_heap_dijkstra(*csr, list(graph[-1]))
        assert [(type(d), d) for d in dist] == [(type(d), d) for d in ref_dist]
        assert parent == ref_parent
