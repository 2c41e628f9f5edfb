"""Price search over finite candidate sets, plus the equivalence test driver.

The solver evaluates every vector in a candidate cross product (or an
explicit vector list) through the fast oracle and keeps the best, breaking
revenue ties toward the lexicographically smallest vector so results are
reproducible.

Candidate generation ships as a breakpoint heuristic: for each priceable
edge, the prices at which routing some vertex through that edge exactly ties
its priceable-free alternative.  For a single priceable edge this set is
exact (the revenue function is piecewise linear in the price with its maxima
at breakpoints); for several edges it is a practical grid, not a proof of
optimality.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Union

from .errors import ParseError, ValidationError
from .instance import Fixed, Instance, PriceFunction, ensure_scalar, serialize_instance
from .model import reduced_tree_of_spt
from .oracle import RevenueOracle, build_oracle
from .rational import Scalar, format_scalar, is_finite, parse_scalar
from .shortest import last_priceable_labels, lex_dijkstra, naive_revenue

__all__ = [
    "CandidateSet",
    "SolveResult",
    "VerifyFailure",
    "VerifyReport",
    "fallback_price",
    "heuristic_candidates",
    "parse_candidates",
    "random_prices",
    "solve",
    "verify_oracle",
]


def _exact_positive(v, what: str) -> Scalar:
    try:
        v = ensure_scalar(v, what)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    if v <= 0:
        raise ValidationError(f"{what} must be strictly positive, got {v}")
    return v


def _clean_candidates(values, what: str) -> tuple[Scalar, ...]:
    seen = set()
    out = []
    for v in values:
        v = _exact_positive(v, what)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class CandidateSet:
    """Per-edge price candidates, or an explicit list of full vectors."""

    k: int
    per_edge: tuple[tuple[Scalar, ...], ...]
    vectors: Optional[tuple[tuple[Scalar, ...], ...]] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("candidate set needs k >= 1")
        if len(self.per_edge) != self.k:
            raise ValidationError(
                f"expected {self.k} per-edge candidate lists, got {len(self.per_edge)}"
            )
        object.__setattr__(
            self,
            "per_edge",
            tuple(_clean_candidates(lst, "candidate price") for lst in self.per_edge),
        )
        if self.vectors is not None:
            cleaned = []
            for vec in self.vectors:
                if len(vec) != self.k:
                    raise ValidationError(
                        f"candidate vector {vec!r} does not have {self.k} entries"
                    )
                cleaned.append(tuple(_exact_positive(v, "candidate price") for v in vec))
            object.__setattr__(self, "vectors", tuple(cleaned))

    @classmethod
    def from_vectors(cls, k: int, vectors) -> "CandidateSet":
        return cls(k=k, per_edge=((),) * k, vectors=tuple(tuple(v) for v in vectors))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a candidate sweep.

    ``wall_time`` is informational; equality of interest is on the price
    vector, the revenue, and the evaluation count.
    """

    best_price: PriceFunction
    best_revenue: Scalar
    evaluations: int
    wall_time: float


def fallback_price(inst: Instance) -> Scalar:
    """A price no follower route ever pays: one above all fixed costs combined.

    Used for edges with no candidates; any such edge is effectively switched
    off (or serves only vertices with no priceable-free alternative).
    """
    total: Scalar = 1
    for e in inst.edges:
        if isinstance(e.kind, Fixed):
            total = total + e.kind.cost
    return total


def heuristic_candidates(oracle: RevenueOracle) -> CandidateSet:
    """Breakpoint prices per edge: where serving some vertex becomes tight.

    For edge i and vertex v the breakpoint is
    d(root, v) - d(root, tail_i) - d(head_i, v), all on fixed edges only;
    kept when finite and strictly positive, deduplicated, ascending.  The
    distances are the oracle's own fixed-only tables.
    """
    inst = oracle.instance
    d_root = oracle.d_root
    per_edge = []
    for i in range(1, inst.k + 1):
        d_head = oracle.d_t[i - 1]
        d_tail = d_root[inst.source_of(i)]
        found = set()
        if is_finite(d_tail):
            for v in range(inst.n):
                if not is_finite(d_head[v]) or not is_finite(d_root[v]):
                    continue
                b = d_root[v] - d_tail - d_head[v]
                if b > 0:
                    found.add(b)
        per_edge.append(tuple(sorted(found)))
    return CandidateSet(k=inst.k, per_edge=tuple(per_edge))


def parse_candidates(text: str, k: int) -> CandidateSet:
    """Candidate file: ``cand <i> <price>`` lines or ``vector <p1> .. <pk>`` lines.

    The two forms cannot be mixed in one file.
    """
    per_edge: list[list[Scalar]] = [[] for _ in range(k)]
    vectors: list[tuple[Scalar, ...]] = []
    saw_cand = saw_vector = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "cand":
                if len(fields) != 3:
                    raise ParseError("expected: cand <edge> <price>", lineno)
                saw_cand = True
                i = int(fields[1])
                if not 1 <= i <= k:
                    raise ParseError(f"edge label {i} out of range 1..{k}", lineno)
                per_edge[i - 1].append(parse_scalar(fields[2]))
            elif fields[0] == "vector":
                if len(fields) != k + 1:
                    raise ParseError(f"expected {k} prices after 'vector'", lineno)
                saw_vector = True
                vectors.append(tuple(parse_scalar(f) for f in fields[1:]))
            else:
                raise ParseError(f"unknown directive {fields[0]!r}", lineno)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    if saw_cand and saw_vector:
        raise ParseError("cannot mix 'cand' and 'vector' lines in one candidate file")
    try:
        if saw_vector:
            return CandidateSet.from_vectors(k, vectors)
        return CandidateSet(k=k, per_edge=tuple(tuple(lst) for lst in per_edge))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def solve(inst: Instance, cands: Union[CandidateSet, None] = None) -> SolveResult:
    """Evaluate every candidate price vector and return the best.

    Without candidates, the breakpoint heuristic runs on the oracle's own
    distance tables.  Revenue ties go to the lexicographically smallest vector.
    """
    t0 = time.perf_counter()
    if inst.k < 1:
        raise ValidationError("instance has no priceable edges to solve for")
    oracle = build_oracle(inst)
    if cands is None:
        cands = heuristic_candidates(oracle)
    if cands.k != inst.k:
        raise ValidationError(f"candidate set is for k = {cands.k}, instance has k = {inst.k}")
    if cands.vectors is not None:
        if not cands.vectors:
            raise ValidationError("empty candidate space")
        vectors = cands.vectors
    else:
        lists = [lst if lst else (fallback_price(inst),) for lst in cands.per_edge]
        vectors = itertools.product(*lists)

    best_vec = None
    best_rev: Optional[Scalar] = None
    count = 0
    for vec in vectors:
        rev = oracle.revenue(vec)
        count += 1
        if best_rev is None or rev > best_rev or (rev == best_rev and vec < best_vec):
            best_rev = rev
            best_vec = vec

    return SolveResult(
        best_price=PriceFunction(tuple(best_vec)),
        best_revenue=best_rev,
        evaluations=count,
        wall_time=time.perf_counter() - t0,
    )


# -- equivalence verification --------------------------------------------------


@dataclass(frozen=True)
class VerifyFailure:
    trial: int
    prices: tuple[Scalar, ...]
    kind: str
    detail: str
    instance_text: str

    def __str__(self) -> str:
        prices = " ".join(format_scalar(p) for p in self.prices)
        return (
            f"trial {self.trial}: {self.kind} check failed ({self.detail})\n"
            f"prices: {prices}\n{self.instance_text}"
        )


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    failures: tuple[VerifyFailure, ...]
    rows: tuple[tuple[int, bool, Scalar, Scalar], ...]  # (trial, ok, fast, naive)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_counterexample(self) -> Optional[str]:
        return str(self.failures[0]) if self.failures else None


def random_prices(inst: Instance, rng: Random, integer_only: bool = False) -> list[Scalar]:
    """Small random prices, mixing integers and non-integers unless told not to."""
    out: list[Scalar] = []
    for _ in range(inst.k):
        if not integer_only and rng.random() < 0.3:
            out.append(Fraction(rng.randint(1, 24), rng.randint(1, 5)))
        else:
            out.append(rng.randint(1, 12))
    return out


def verify_oracle(
    inst: Instance,
    trials: int,
    seed: int,
    *,
    integer_only: bool = False,
    oracle: Optional[RevenueOracle] = None,
) -> VerifyReport:
    """Cross-check the fast path against first principles on random prices.

    Per trial: fast revenue vs naive revenue, model-graph reduced tree vs
    full-graph contraction, per-edge served weights vs the full-graph
    classification, and the partition of total demand.  Failures carry the
    serialized instance so they can be replayed.
    """
    if oracle is None:
        oracle = build_oracle(inst)
    rng = Random(seed)
    failures: list[VerifyFailure] = []
    rows = []

    def fail(trial, prices, kind, detail):
        failures.append(
            VerifyFailure(
                trial=trial,
                prices=tuple(prices),
                kind=kind,
                detail=detail,
                instance_text=serialize_instance(inst),
            )
        )

    for trial in range(trials):
        prices = random_prices(inst, rng, integer_only)
        p = PriceFunction(tuple(prices))
        fast = oracle.revenue(p)
        naive = naive_revenue(inst, p)
        ok = fast == naive
        if not ok:
            fail(trial, prices, "revenue", f"fast {fast} != naive {naive}")

        spt = lex_dijkstra(inst, p)
        rt_full = reduced_tree_of_spt(inst, spt)
        rt_model = oracle.reduced_tree_for(p)
        if rt_model != rt_full:
            ok = False
            fail(
                trial, prices, "reduced-tree",
                f"model {rt_model.parents} != full graph {rt_full.parents}",
            )
        else:
            _, breakdown_rows = oracle.revenue_breakdown(p)
            last = last_priceable_labels(inst, spt)
            counts = {label: 0 for label in rt_full.edges}
            free: Scalar = 0
            for v in range(inst.n):
                if last[v] is None:
                    free = free + inst.demand[v]
                else:
                    counts[last[v]] += inst.demand[v]
            served_total: Scalar = 0
            recomputed: Scalar = 0
            for label, price, served in breakdown_rows:
                served_total = served_total + served
                recomputed = recomputed + price * served
                if served != counts[label]:
                    ok = False
                    fail(
                        trial, prices, "classification",
                        f"edge {label}: fast weight {served} != tree weight {counts[label]}",
                    )
            if served_total + free != sum(inst.demand):
                ok = False
                fail(
                    trial, prices, "partition",
                    f"served {served_total} + free {free} != total {sum(inst.demand)}",
                )
            if recomputed != fast:
                ok = False
                fail(trial, prices, "breakdown", f"rows sum {recomputed} != revenue {fast}")

        rows.append((trial, ok, fast, naive))

    return VerifyReport(trials=trials, failures=tuple(failures), rows=tuple(rows))
