"""Acceptance gate: eight checks, one printed pass/fail line each.

Every check pins its own runtime budget and tolerance (all value comparisons
are exact; the only approximate assertions are the benchmark trend ratios).
Run with ``pytest tests/test_acceptance.py -v``; each check prints

    [acceptance N] PASS <title> (<detail>)

even under capture, so a full-suite run shows the gate at a glance.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from stackspt.instance import Instance, PriceFunction, random_instance
from stackspt.model import reduced_tree_of_spt
from stackspt.oracle import build_oracle
from stackspt.rangetree import Interval, QueryRect, WeightedPointSet, build_range_tree
from stackspt.bench import run_bench
from stackspt.shortest import chi_sum, last_priceable_labels, lex_dijkstra, naive_revenue
from stackspt.solver import (
    CandidateSet,
    fallback_price,
    heuristic_candidates,
    random_prices,
    solve,
)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, title: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance {num}] {status} {title}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


# -- criteria 1 and 2 share one batch of trials ------------------------------


@pytest.fixture(scope="module")
def equivalence_trials():
    """50 random instances x 200 price vectors: fast vs naive revenue, plus
    the model-graph reduced tree vs the full-graph contraction on each trial.
    """
    rng = random.Random(20260816)
    revenue_mismatches = []
    tree_mismatches = []
    instances = 50
    vectors = 200
    t0 = time.perf_counter()
    for idx in range(instances):
        n = rng.randint(10, 200)
        k = rng.choice([2, 3, 4])
        m = rng.randint(n - 1 + k, 5 * n)
        inst = random_instance(
            n, m, k, seed=rng.randrange(2**48), cost_max=10, demand_max=3
        )
        oracle = build_oracle(inst)
        for _ in range(vectors):
            p = PriceFunction(tuple(random_prices(inst, rng)))
            fast = oracle.revenue(p)
            naive = naive_revenue(inst, p)
            if fast != naive:
                revenue_mismatches.append((idx, tuple(p), fast, naive))
            rt_full = reduced_tree_of_spt(inst, lex_dijkstra(inst, p))
            rt_model = oracle.reduced_tree_for(p)
            if rt_model != rt_full:
                tree_mismatches.append((idx, tuple(p), rt_model, rt_full))
    return {
        "instances": instances,
        "vectors": vectors,
        "revenue_mismatches": revenue_mismatches,
        "tree_mismatches": tree_mismatches,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_oracle_equivalence(equivalence_trials, announce):
    tr = equivalence_trials
    ok = not tr["revenue_mismatches"] and tr["elapsed"] < 180.0
    announce(
        1,
        "oracle equivalence",
        ok,
        f"{tr['instances']} instances x {tr['vectors']} vectors, "
        f"{len(tr['revenue_mismatches'])} mismatches, {tr['elapsed']:.1f}s",
    )
    assert not tr["revenue_mismatches"], tr["revenue_mismatches"][:3]
    assert tr["elapsed"] < 180.0


def test_criterion_2_model_graph_fidelity(equivalence_trials, announce):
    tr = equivalence_trials
    ok = not tr["tree_mismatches"]
    announce(
        2,
        "model-graph reduced tree fidelity",
        ok,
        f"same {tr['instances']} x {tr['vectors']} trials, "
        f"{len(tr['tree_mismatches'])} mismatches",
    )
    assert not tr["tree_mismatches"], tr["tree_mismatches"][:3]


def test_criterion_3_tie_break_well_defined(announce):
    """Reduced tree and served demand per edge are invariant under edge order."""
    rng = random.Random(316)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(20):
        n = rng.randint(8, 40)
        k = rng.choice([2, 3])
        m = rng.randint(n - 1 + k, 4 * n)
        inst = random_instance(
            n, m, k, seed=rng.randrange(2**48), cost_max=10, demand_max=3
        )
        price_batch = [
            PriceFunction(tuple(random_prices(inst, rng))) for _ in range(20)
        ]
        reference = None
        for perm in range(10):
            edges = list(inst.edges)
            if perm:
                rng.shuffle(edges)
            shuffled = Instance(
                n=inst.n, root=inst.root, edges=tuple(edges), demand=inst.demand
            )
            oracle = build_oracle(shuffled)
            outcome = []
            for p in price_batch:
                rt, rows = oracle.revenue_breakdown(p)
                last = last_priceable_labels(shuffled, lex_dijkstra(shuffled, p))
                counts = {}
                for v, label in enumerate(last):
                    if label is not None:
                        counts[label] = counts.get(label, 0) + shuffled.demand[v]
                outcome.append((rt, rows, tuple(sorted(counts.items()))))
            if reference is None:
                reference = outcome
            elif outcome != reference:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    announce(
        3,
        "tie-break invariance under edge order",
        ok,
        f"20 instances x 20 vectors x 10 orders, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_4_revenue_maximal_tree(announce):
    """naive_revenue equals the max revenue over ALL plain-weight shortest path trees."""
    rng = random.Random(47)
    mismatches = []
    trials = 200
    t0 = time.perf_counter()
    for idx in range(trials):
        # integer prices half the time: they tie far more often, which is
        # exactly the regime the tie-break has to win in
        integer_only = idx % 2 == 0
        while True:
            n = rng.randint(2, 8)
            k = rng.randint(1, min(3, max(1, n - 1)))
            m = rng.randint(n - 1 + k, max(n - 1 + k, 3 * n))
            inst = random_instance(
                n, m, k, seed=rng.randrange(2**48), cost_max=6, demand_max=3
            )
            p = PriceFunction(tuple(random_prices(inst, rng, integer_only)))
            try:
                best = oracles.max_spt_revenue(inst, p)
            except ValueError:  # astronomically many tied trees; redraw
                continue
            break
        got = naive_revenue(inst, p)
        if best != got:
            mismatches.append((idx, tuple(p), best, got))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    announce(
        4,
        "revenue-maximal tree among ties",
        ok,
        f"{trials} instances, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert not mismatches, mismatches[:3]
    assert elapsed < 120.0


# -- criterion 5: range tree vs vectorized scan ------------------------------


def _numpy_scan(coords: np.ndarray, weights: np.ndarray, rect: QueryRect) -> int:
    mask = np.ones(len(coords), dtype=bool)
    for axis, iv in enumerate(rect.intervals):
        col = coords[:, axis]
        if iv.lower is not None:
            value, closed = iv.lower
            mask &= (col >= value) if closed else (col > value)
        if iv.upper is not None:
            value, closed = iv.upper
            mask &= (col <= value) if closed else (col < value)
    return int(weights[mask].sum())


def _random_rect(rng, pools, dim):
    intervals = []
    boundary_hits = 0
    for axis in range(dim):
        bounds = []
        for _ in range(2):
            if rng.random() < 0.15:
                bounds.append(None)
                continue
            if rng.random() < 0.5:
                value = rng.choice(pools[axis])  # lands exactly on a point
                boundary_hits += 1
            else:
                value = rng.randint(-60, 60)
            bounds.append((value, rng.random() < 0.5))
        lo, hi = bounds
        if lo is not None and hi is not None and lo[0] > hi[0]:
            lo, hi = hi, lo
        intervals.append(Interval(lo, hi))
    return QueryRect(tuple(intervals)), boundary_hits


def test_criterion_5_range_tree_exactness(announce):
    rng = random.Random(55)
    configs = [(1, 10_000), (2, 10_000), (3, 4_000), (4, 1_200)]
    rects_per_config = 1000
    mismatches = 0
    boundary_total = 0
    t0 = time.perf_counter()
    for dim, count in configs:
        pts = [
            tuple(rng.randint(-50, 50) for _ in range(dim)) for _ in range(count)
        ]
        ws = [rng.randint(0, 5) for _ in range(count)]
        tree = build_range_tree(WeightedPointSet(dim, tuple(pts), tuple(ws)))
        coords = np.array(pts, dtype=np.int64).reshape(count, dim)
        weights = np.array(ws, dtype=np.int64)
        pools = [sorted({p[a] for p in pts}) for a in range(dim)]
        for i in range(rects_per_config):
            rect, hits = _random_rect(rng, pools, dim)
            boundary_total += hits
            want = _numpy_scan(coords, weights, rect)
            if i < 5:  # cross-check the vectorized scan itself
                assert want == oracles.linear_scan(pts, ws, rect)
            if tree.query(rect) != want:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and boundary_total > 0 and elapsed < 120.0
    announce(
        5,
        "range tree vs linear scan",
        ok,
        f"dims 1-4, {rects_per_config} rects each, {mismatches} mismatches, "
        f"{boundary_total} boundary-aligned ends, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert boundary_total > 0
    assert elapsed < 120.0


def test_criterion_6_signature_injectivity(announce):
    """Distinct label sets get distinct signatures, exhaustively for k <= 12."""
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 13):
        signatures = {
            chi_sum(i + 1 for i in range(k) if mask >> i & 1)
            for mask in range(1 << k)
        }
        if len(signatures) != 1 << k:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    announce(
        6,
        "signature injectivity over label subsets",
        ok and elapsed < 10.0,
        f"all pairs up to k=12 via cardinality, {elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_7_performance_trend(announce):
    sizes = [1 << e for e in range(10, 18)]
    t0 = time.perf_counter()
    records = run_bench(sizes, k=2, queries=200, seed=7)
    elapsed = time.perf_counter() - t0
    top = records[-1]
    ratio = top.naive_us / top.fast_us
    growth = top.fast_us / records[0].fast_us
    ok = ratio >= 10.0 and growth <= 8.0 and elapsed < 600.0
    announce(
        7,
        "query speedup and polylog growth",
        ok,
        f"n=2^17: fast {top.fast_us:.0f}us vs naive {top.naive_us:.0f}us "
        f"({ratio:.0f}x), growth 2^10->2^17 {growth:.2f}x, {elapsed:.0f}s",
    )
    assert ratio >= 10.0
    assert growth <= 8.0
    assert elapsed < 600.0


def test_criterion_8_solver_sanity(announce):
    rng = random.Random(88)
    t0 = time.perf_counter()

    # (a) single-edge: the breakpoint sweep dominates random sampling
    beaten = 0
    for _ in range(20):
        n = rng.randint(6, 20)
        m = rng.randint(n, 3 * n)
        inst = random_instance(n, m, 1, seed=rng.randrange(2**48), cost_max=10, demand_max=3)
        best = solve(inst).best_revenue
        for _ in range(10_000):
            if rng.random() < 0.25:
                p = Fraction(rng.randint(1, 480), rng.randint(1, 6))
            else:
                p = rng.randint(1, 120)
            if naive_revenue(inst, (p,)) > best:
                beaten += 1
                break

    # (b) two edges: solve equals a from-scratch sweep of the same cross product
    sweep_mismatches = 0
    for _ in range(10):
        n = rng.randint(4, 10)
        m = rng.randint(n + 1, 3 * n)
        inst = random_instance(n, m, 2, seed=rng.randrange(2**48), cost_max=8, demand_max=2)
        cands = CandidateSet(
            k=2, per_edge=tuple(lst[:8] for lst in heuristic_candidates(build_oracle(inst)).per_edge)
        )
        lists = [lst if lst else (fallback_price(inst),) for lst in cands.per_edge]
        best_vec = best_rev = None
        total = 0
        for vec in itertools.product(*lists):
            rev = naive_revenue(inst, vec)
            total += 1
            if best_rev is None or rev > best_rev or (rev == best_rev and vec < best_vec):
                best_rev, best_vec = rev, vec
        result = solve(inst, cands)
        if (
            tuple(result.best_price) != best_vec
            or result.best_revenue != best_rev
            or result.evaluations != total
        ):
            sweep_mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = beaten == 0 and sweep_mismatches == 0 and elapsed < 180.0
    announce(
        8,
        "solver beats sampling and matches the naive sweep",
        ok,
        f"20 single-edge instances x 10000 samples, 10 two-edge sweeps, "
        f"{beaten + sweep_mismatches} failures, {elapsed:.1f}s",
    )
    assert beaten == 0
    assert sweep_mismatches == 0
    assert elapsed < 180.0
