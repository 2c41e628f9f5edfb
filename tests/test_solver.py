"""Candidate generation, the sweep solver, and the verification driver."""

import itertools
import random
import types
from fractions import Fraction

import pytest

from stackspt.errors import ParseError, ValidationError
from stackspt.instance import (
    Edge,
    Fixed,
    Instance,
    Priceable,
    PriceFunction,
    random_instance,
)
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


class TestCandidateSet:
    def test_deduplicates_per_edge(self):
        cs = CandidateSet(k=1, per_edge=((3, 3, Fraction(6, 2), 5),))
        assert cs.per_edge == ((3, 5),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=1, per_edge=((0,),))
        with pytest.raises(ValidationError):
            CandidateSet.from_vectors(2, [(1, -2)])

    def test_rejects_inexact(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=1, per_edge=((1.5,),))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValidationError):
            CandidateSet(k=2, per_edge=((1,),))
        with pytest.raises(ValidationError):
            CandidateSet.from_vectors(2, [(1, 2, 3)])


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
            ("cand 1 0\n", "strictly positive"),
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

    def test_random_prices_are_positive_and_seeded(self):
        inst = random_instance(8, 20, 3, seed=2)
        a = random_prices(inst, random.Random(4))
        b = random_prices(inst, random.Random(4))
        assert a == b and len(a) == 3
        assert all(p > 0 for p in a)
        ints = random_prices(inst, random.Random(4), integer_only=True)
        assert all(isinstance(p, int) for p in ints)
