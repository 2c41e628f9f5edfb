"""Candidate generation, the sweep solver, and the verification driver."""

import itertools
import logging
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from oracles import bellman_ford_fixed
from stackspt.errors import ParseError, UnreachableVertexError, ValidationError
import stackspt.shortest
import stackspt.solver
from stackspt.instance import (
    Edge,
    Fixed,
    Instance,
    Priceable,
    PriceFunction,
    random_instance,
    serialize_instance,
)
from stackspt.model import ROOT, ReducedTree
from stackspt.oracle import build_oracle
from stackspt.solver import (
    CandidateSet,
    fallback_price,
    heuristic_candidates,
    parse_candidates,
    random_prices,
    solve,
    verify_oracle,
)
from stackspt.rational import is_finite
from stackspt.shortest import naive_revenue


def breakpoint_fixture() -> Instance:
    # one priceable edge bridging a 10-cost fixed detour; breakpoint at 9
    edges = (
        Edge(0, 1, Fixed(1)),
        Edge(1, 2, Priceable(1)),
        Edge(0, 2, Fixed(10)),
    )
    return Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))


def priceable_chain() -> Instance:
    edges = (
        Edge(0, 1, Fixed(1)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 3, Fixed(1)),
        Edge(3, 4, Priceable(2)),
    )
    return Instance(n=5, root=0, edges=edges, demand=(1,) * 5)


class TestHeuristicCandidates:
    def test_single_breakpoint(self):
        cands = heuristic_candidates(build_oracle(breakpoint_fixture()))
        assert cands.per_edge == ((9,),)

    def test_unreachable_tail_gives_empty_list(self):
        cands = heuristic_candidates(build_oracle(priceable_chain()))
        # neither tail is fixed-reachable together with a fixed alternative route
        assert cands.per_edge == ((), ())

    def test_all_candidates_positive_and_sorted(self):
        rng = random.Random(9)
        for _ in range(10):
            n, k = rng.randint(4, 20), rng.randint(1, 4)
            m = max(n - 1 + k, rng.randint(8, 50))
            inst = random_instance(n, m, k, seed=rng.randint(0, 10**9), cost_max=9)
            for lst in heuristic_candidates(build_oracle(inst)).per_edge:
                assert all(c > 0 for c in lst)
                assert list(lst) == sorted(set(lst))

    @settings(max_examples=100)
    @given(strategies.fractional_cost_instances(min_n=2, min_k=1, max_k=4))
    def test_fractional_costs_match_bellman_ford_breakpoints(self, inst):
        # the oracle's tables are times the cost scale; the candidates are not
        d_root = bellman_ford_fixed(inst, inst.root)
        want = []
        for i in range(1, inst.k + 1):
            d_head = bellman_ford_fixed(inst, inst.target_of(i))
            d_tail = d_root[inst.source_of(i)]
            found = {
                d_root[v] - d_tail - d_head[v]
                for v in range(inst.n)
                if all(map(is_finite, (d_root[v], d_tail, d_head[v])))
            }
            want.append(tuple(sorted(b for b in found if b > 0)))
        assert heuristic_candidates(build_oracle(inst)).per_edge == tuple(want)


class TestCandidateSet:
    def test_deduplicates_per_edge(self):
        cs = CandidateSet(k=1, per_edge=((3, 3, Fraction(6, 2), 5),))
        assert cs.per_edge == ((3, 5),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=1, per_edge=((0,),))
        with pytest.raises(ValidationError, match=r"^candidate vector 2: price 2 must be > 0, got -2$"):
            CandidateSet.from_vectors(2, [(1, 2), (1, -2)])

    def test_rejects_inexact(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=1, per_edge=((1.5,),))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=2, per_edge=((1,),))
        with pytest.raises(ValidationError, match=r"^candidate vector 1: expected 2 prices, got 3$"):
            CandidateSet.from_vectors(2, [(1, 2, 3)])

    def test_rejects_no_edges(self):
        with pytest.raises(ValidationError, match=r"^candidate set needs k >= 1$"):
            CandidateSet(k=0, per_edge=())

    def test_rejects_entries_that_are_not_sequences(self):
        with pytest.raises(ValidationError, match=r"^candidates of edge 2: prices must be a sequence of scalars, got 5$"):
            CandidateSet(k=2, per_edge=((1,), 5))
        with pytest.raises(ValidationError, match=r"^candidate vector 2: prices must be a sequence of scalars, got 5$"):
            CandidateSet.from_vectors(2, [(1, 2), 5])
        with pytest.raises(ValidationError, match=r"^candidate vector 1: prices must be a sequence of scalars, got 5$"):
            CandidateSet(k=2, per_edge=((), ()), vectors=(5,))
        assert CandidateSet.from_vectors(2, [iter((1, 2))]).vectors == ((1, 2),)


class TestParseCandidates:
    def test_cand_lines(self):
        text = "# grid\ncand 2 7\ncand 1 3\ncand 1 1/2\ncand 2 7\n"
        cs = parse_candidates(text, 2)
        assert cs.per_edge == ((3, Fraction(1, 2)), (7,))
        assert cs.vectors is None

    def test_vector_lines(self):
        cs = parse_candidates("vector 1 2\nvector 3/2 5\n", 2)
        assert cs.vectors == ((1, 2), (Fraction(3, 2), 5))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("cand 1 2\nvector 2 2\n", "mix"),
            ("cand 3 2\n", "out of range"),
            ("cand 1\n", "expected"),
            ("vector 1\n", "expected 2 prices"),
            ("orbit 1 2\n", "unknown directive"),
            ("cand 1 1e3\n", "not a scalar"),
            ("cand 1 0\n", "^candidates of edge 1: price 1 must be > 0, got 0$"),
            ("vector 1 x\n", "not a scalar"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_candidates(text, 2)


class TestSolve:
    def test_breakpoint_fixture_is_solved_exactly(self):
        inst = breakpoint_fixture()
        result = solve(inst)
        assert tuple(result.best_price) == (9,)
        assert result.best_revenue == 9
        assert result.evaluations == 1
        assert naive_revenue(inst, result.best_price) == result.best_revenue

    def test_single_explicit_vector_is_echoed(self):
        inst = random_instance(8, 18, 2, seed=5, cost_max=7)
        cands = CandidateSet.from_vectors(2, [(3, Fraction(5, 2))])
        result = solve(inst, cands)
        assert tuple(result.best_price) == (3, Fraction(5, 2))
        assert result.best_revenue == naive_revenue(inst, result.best_price)
        assert result.evaluations == 1

    def test_empty_vector_list_is_an_error(self):
        inst = random_instance(6, 10, 2, seed=1)
        with pytest.raises(ValidationError, match="empty candidate space"):
            solve(inst, CandidateSet.from_vectors(2, []))

    def test_no_priceable_edges_is_an_error(self):
        inst = random_instance(5, 8, 0, seed=2)
        with pytest.raises(ValidationError):
            solve(inst)

    def test_candidate_arity_must_match(self):
        inst = random_instance(6, 10, 2, seed=3)
        with pytest.raises(ValidationError):
            solve(inst, CandidateSet(k=1, per_edge=((1,),)))

    def test_fallback_price_fills_empty_lists(self):
        inst = priceable_chain()
        result = solve(inst)
        big = fallback_price(inst)
        assert big == 3  # 1 + total fixed cost
        assert tuple(result.best_price) == (big, big)
        assert result.evaluations == 1
        assert result.best_revenue == naive_revenue(inst, (big, big)) == 12

    def test_ties_break_to_lexicographically_smallest(self):
        # both vectors serve nothing: revenue 0, smaller vector must win
        inst = breakpoint_fixture()
        cands = CandidateSet.from_vectors(1, [(50,), (40,)])
        result = solve(inst, cands)
        assert tuple(result.best_price) == (40,)
        assert result.best_revenue == 0

    def test_matches_naive_sweep_over_same_candidates(self):
        rng = random.Random(88)
        for trial in range(6):
            n = rng.randint(4, 9)
            m = max(n + 1, rng.randint(6, 16))
            inst = random_instance(
                n, m, 2, seed=rng.randint(0, 10**9), cost_max=6, demand_max=2,
            )
            cands = heuristic_candidates(build_oracle(inst))
            lists = [lst if lst else (fallback_price(inst),) for lst in cands.per_edge]
            best = None
            for vec in itertools.product(*lists):
                rev = naive_revenue(inst, vec)
                if best is None or rev > best[0] or (rev == best[0] and vec < best[1]):
                    best = (rev, vec)
            result = solve(inst, cands)
            assert result.best_revenue == best[0]
            assert tuple(result.best_price) == best[1]
            assert result.evaluations == len(list(itertools.product(*lists)))

    def test_beats_random_sampling_for_single_edge(self):
        rng = random.Random(31)
        for _ in range(4):
            n = rng.randint(5, 12)
            m = max(n, rng.randint(8, 30))
            inst = random_instance(
                n, m, 1, seed=rng.randint(0, 10**9), cost_max=10, demand_max=3,
            )
            best = solve(inst).best_revenue
            for _ in range(800):
                sample = [Fraction(rng.randint(1, 400), rng.randint(1, 10))]
                assert naive_revenue(inst, sample) <= best

    def test_fallback_price_on_fractional_costs(self):
        edges = (
            Edge(0, 1, Fixed(Fraction(1, 2))),
            Edge(1, 2, Priceable(1)),
            Edge(0, 2, Fixed(Fraction(7, 3))),
        )
        inst = Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
        assert fallback_price(inst) == Fraction(23, 6)  # 1 + 1/2 + 7/3
        halves = Instance(n=3, root=0, edges=edges[:2] + (Edge(0, 2, Fixed(Fraction(3, 2))),),
                          demand=(1, 1, 1))
        assert fallback_price(halves) == 3 and type(fallback_price(halves)) is int

    @settings(max_examples=60)
    @given(strategies.fractional_cost_instances(max_n=8))
    def test_fallback_price_is_one_above_all_fixed_costs(self, inst):
        want = 1 + sum(e.kind.cost for e in inst.edges if isinstance(e.kind, Fixed))
        got = fallback_price(inst)
        assert got == want and (type(got) is int) == (want.denominator == 1)

    def test_stranded_demand_raises(self):
        edges = (Edge(0, 1, Priceable(1)), Edge(0, 1, Fixed(4)))
        inst = Instance(n=3, root=0, edges=edges, demand=(0, 1, 1))
        for cands in (None, CandidateSet(k=1, per_edge=((2, Fraction(5, 2)),)),
                      CandidateSet.from_vectors(1, [(3,)])):
            with pytest.raises(UnreachableVertexError, match="vertex 2"):
                solve(inst, cands)

    def test_debug_log_once_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="stackspt"):
            solve(priceable_chain(), CandidateSet(k=2, per_edge=((1, Fraction(1, 2)), (Fraction(2, 3),))))
        lines = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        solves = [m for m in lines if m.startswith("solve:")]
        assert len(solves) == 1
        assert solves[0].startswith("solve: grid=2x1 scale=6 evaluations=2 solve_s=")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="stackspt"):
            solve(priceable_chain(), CandidateSet.from_vectors(2, [(1, 1), (2, Fraction(1, 5))]))
        lines = [r.getMessage() for r in caplog.records if r.name == "stackspt"]
        assert [m.split(" solve_s=")[0] for m in lines if m.startswith("solve:")] == [
            "solve: grid=2 vectors scale=5 evaluations=2"
        ]


def _brute_force_solve(inst: Instance, cands: CandidateSet):
    """``solve``'s answer from ``naive_revenue`` over the same candidate space."""
    if cands.vectors is not None:
        space = cands.vectors
    else:
        big = 1 + sum(e.kind.cost for e in inst.edges if isinstance(e.kind, Fixed))
        space = itertools.product(*[lst or (big,) for lst in cands.per_edge])
    best, count = None, 0
    for vec in space:
        rev = naive_revenue(inst, vec)
        count += 1
        if best is None or rev > best[0] or (rev == best[0] and vec < best[1]):
            best = (rev, vec)
    return repr(PriceFunction(best[1])), best[0], count


@st.composite
def solve_cases(draw):
    """An instance with 1..3 priceable edges (fixed costs sometimes
    fractional) and a candidate set over it: per-edge lists or explicit
    vectors of Fractions with denominators 1..7.  Prices at or above every
    fixed cost combined serve only vertices no fixed route reaches, so
    vectors drawn from them tie, often at 0."""
    kind = draw(st.sampled_from((strategies.instances, strategies.fractional_cost_instances)))
    inst = draw(kind(min_n=2, max_n=7, min_k=1, max_k=3))
    big = 1 + sum(e.kind.cost for e in inst.edges if isinstance(e.kind, Fixed))
    price = st.one_of(
        st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
        st.sampled_from((big, big + Fraction(1, 3))),
    )
    if draw(st.booleans()):
        vectors = draw(st.lists(st.tuples(*[price] * inst.k), min_size=1, max_size=8))
        return inst, CandidateSet.from_vectors(inst.k, vectors)
    lists = draw(st.tuples(*[st.lists(price, max_size=3)] * inst.k))
    return inst, CandidateSet(k=inst.k, per_edge=lists)


@settings(max_examples=150, deadline=None)
@given(solve_cases())
def test_solve_equals_naive_sweep_over_the_grid(case):
    inst, cands = case
    try:
        want = _brute_force_solve(inst, cands)
    except UnreachableVertexError:
        with pytest.raises(UnreachableVertexError):
            solve(inst, cands)
        return
    got = solve(inst, cands)
    assert (repr(got.best_price), got.best_revenue, got.evaluations) == want


class TestVerifyOracle:
    def test_clean_oracle_passes(self):
        inst = random_instance(15, 45, 3, seed=7, cost_max=8, demand_max=2)
        report = verify_oracle(inst, trials=40, seed=99)
        assert report.passed
        assert report.trials == 40
        assert len(report.rows) == 40
        assert all(ok for _, ok, _, _ in report.rows)
        assert report.first_counterexample is None

    def test_seed_determinism(self):
        inst = random_instance(10, 24, 2, seed=21, cost_max=6)
        a = verify_oracle(inst, trials=25, seed=5)
        b = verify_oracle(inst, trials=25, seed=5)
        assert a.rows == b.rows

    def test_fault_injection_is_detected(self):
        inst = random_instance(12, 30, 2, seed=13, cost_max=7)
        oracle = build_oracle(inst)
        real = oracle.revenue
        oracle.revenue = types.MethodType(lambda self, p: real(p) + 1, oracle)
        report = verify_oracle(inst, trials=5, seed=3, oracle=oracle)
        assert not report.passed
        assert any(f.kind == "revenue" for f in report.failures)
        text = report.first_counterexample
        assert "prices:" in text and "stackspt" in text

    # Fault injection per check: each patch breaks what ``revenue_breakdown`` or
    # ``revenue`` returns, and the report must name every check that notices, in
    # check order and with its detail text.  On ``priceable_chain`` every trial
    # serves both edges: e_1 collects vertices 2 and 3, e_2 below it vertex 4.

    @staticmethod
    def _inject(inst, method, patch):
        """An oracle whose ``method`` returns ``patch(its answer)``; the truth per trial."""
        oracle, truth = build_oracle(inst), build_oracle(inst)
        real = getattr(oracle, method)
        setattr(oracle, method, lambda p: patch(real(p)))
        rng = random.Random(3)
        trials = []
        for _ in range(6):
            p = tuple(random_prices(inst, rng))
            trials.append((p, truth.revenue(p), *truth.revenue_breakdown(p)))
        return oracle, trials

    def _failures(self, oracle, inst):
        report = verify_oracle(inst, trials=6, seed=3, oracle=oracle)
        assert [ok for _, ok, _, _ in report.rows] == [False] * 6
        return [(f.trial, f.prices, f.kind, f.detail) for f in report.failures]

    def test_wrong_revenue_fails_the_revenue_and_breakdown_checks(self):
        inst = priceable_chain()
        oracle, trials = self._inject(inst, "revenue", lambda rev: rev + 1)
        want = []
        for t, (p, fast, _, _) in enumerate(trials):
            want.append((t, p, "revenue", f"fast {fast + 1} != naive {fast}"))
            want.append((t, p, "breakdown", f"rows sum {fast} != revenue {fast + 1}"))
        assert self._failures(oracle, inst) == want

    def test_wrong_tree_fails_the_reduced_tree_check_alone(self):
        inst = priceable_chain()

        def flip(answer):
            rt, rows = answer  # every absent edge hangs from the root, every present one goes
            return ReducedTree(tuple(ROOT if par is None else None for par in rt.parents)), rows

        oracle, trials = self._inject(inst, "revenue_breakdown", flip)
        want = [
            (t, p, "reduced-tree", f"model {(None, None)} != full graph {rt.parents}")
            for t, (p, _, rt, _) in enumerate(trials)
        ]
        assert all(rt.parents == (ROOT, 1) for _, _, rt, _ in trials)
        assert self._failures(oracle, inst) == want

    def test_wrong_served_weight_fails_classification_partition_and_breakdown(self):
        inst = priceable_chain()

        def heavier(answer):
            rt, ((label, price, served), *rest) = answer
            return rt, ((label, price, served + 1), *rest)

        oracle, trials = self._inject(inst, "revenue_breakdown", heavier)
        want = []
        for t, (p, fast, _, rows) in enumerate(trials):
            assert [(label, served) for label, _, served in rows] == [(1, 2), (2, 1)]
            price = rows[0][1]
            want += [
                (t, p, "classification", "edge 1: fast weight 3 != tree weight 2"),
                (t, p, "partition", "served 4 + free 2 != total 5"),
                (t, p, "breakdown", f"rows sum {fast + price} != revenue {fast}"),
            ]
        assert self._failures(oracle, inst) == want

    def test_missing_row_fails_the_partition_and_breakdown_checks(self):
        inst = priceable_chain()
        oracle, trials = self._inject(inst, "revenue_breakdown", lambda a: (a[0], a[1][:1]))
        want = []
        for t, (p, fast, _, rows) in enumerate(trials):
            kept = rows[0][1] * rows[0][2]
            want += [
                (t, p, "partition", "served 2 + free 2 != total 5"),
                (t, p, "breakdown", f"rows sum {kept} != revenue {fast}"),
            ]
        assert self._failures(oracle, inst) == want

    def test_wrong_row_price_fails_the_breakdown_check_alone(self):
        inst = priceable_chain()

        def dearer(answer):
            rt, ((label, price, served), *rest) = answer
            return rt, ((label, price + 1, served), *rest)

        oracle, trials = self._inject(inst, "revenue_breakdown", dearer)
        want = [
            (t, p, "breakdown", f"rows sum {fast + rows[0][2]} != revenue {fast}")
            for t, (p, fast, _, rows) in enumerate(trials)
        ]
        assert self._failures(oracle, inst) == want

    def test_one_breakdown_per_trial_and_one_serialization_per_report(self, monkeypatch):
        inst = priceable_chain()
        oracle = build_oracle(inst)
        calls = []
        real_breakdown, real_serialize = oracle.revenue_breakdown, serialize_instance

        def breakdown(p):
            calls.append("breakdown")
            rt, rows = real_breakdown(p)
            return rt, rows[:1]  # a missing row: every trial fails two checks

        def serialize(i):
            calls.append("serialize")
            return real_serialize(i)

        oracle.revenue_breakdown = breakdown
        oracle.reduced_tree_for = lambda p: calls.append("reduced_tree_for")
        monkeypatch.setattr(stackspt.solver, "serialize_instance", serialize)
        report = verify_oracle(inst, trials=5, seed=3, oracle=oracle)
        assert len(report.failures) == 10
        assert calls == ["breakdown", "serialize"] + ["breakdown"] * 4
        assert {f.instance_text for f in report.failures} == {real_serialize(inst)}
        calls.clear()
        assert verify_oracle(inst, trials=5, seed=3).passed and calls == []

    def test_one_composite_sweep_per_trial(self, monkeypatch):
        inst = random_instance(30, 90, 3, seed=5)
        sweeps = []
        real_sweep = stackspt.shortest._lex_sweep

        def counting(instance, pvals, source):
            sweeps.append(source)
            return real_sweep(instance, pvals, source)

        # the sweep is counted wherever verify looks it up: in shortest, or imported by name
        monkeypatch.setattr(stackspt.shortest, "_lex_sweep", counting)
        monkeypatch.setattr(stackspt.solver, "_lex_sweep", counting, raising=False)
        assert verify_oracle(inst, trials=5, seed=3).passed
        assert sweeps == [inst.root] * 5

    def test_random_prices_are_positive_and_seeded(self):
        inst = random_instance(8, 20, 3, seed=2)
        a = random_prices(inst, random.Random(4))
        b = random_prices(inst, random.Random(4))
        assert a == b and len(a) == 3
        assert all(p > 0 for p in a)
        # integers and non-integers both occur
        many = random_prices(random_instance(40, 100, 16, seed=2), random.Random(4))
        assert {type(p) for p in many} == {int, Fraction} and all(p > 0 for p in many)
