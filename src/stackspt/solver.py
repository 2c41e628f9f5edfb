"""Price search over finite candidate sets, plus the equivalence test driver.

The solver evaluates every vector in a candidate cross product (or an
explicit vector list) through the fast oracle and keeps the best, breaking
revenue ties toward the lexicographically smallest vector so results are
reproducible.  The candidates are scaled to ints once, by one common scale,
and every vector goes through the oracle's integer query kernel.

Candidate generation ships as a breakpoint heuristic: for each priceable
edge, the prices at which routing some vertex through that edge exactly ties
its priceable-free alternative.  For a single priceable edge this set is
exact (the revenue function is piecewise linear in the price with its maxima
at breakpoints); for several edges it is a practical grid, not a proof of
optimality.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random
from typing import Optional, Union

from .errors import ParseError, ValidationError
from .instance import Instance, PriceFunction, ensure_scalar, serialize_instance
from .model import _contracted
from .oracle import RevenueOracle, build_oracle
from .rational import Scalar, format_scalar, is_finite, parse_scalar
from .shortest import _lex_sweep, _revenue_of, _spt_of, _unscaled, last_priceable_labels

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

_log = logging.getLogger("stackspt")


def _exact_positive(v, what: str) -> Scalar:
    try:
        v = ensure_scalar(v, what)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    if v <= 0:
        raise ValidationError(f"{what} must be strictly positive, got {format_scalar(v)}")
    return v


def _prices_of(values, what: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of prices, got {values!r}") from None


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
            tuple(_clean_candidates(_prices_of(lst, f"candidates of edge {i}"), "candidate price")
                  for i, lst in enumerate(self.per_edge, start=1)),
        )
        if self.vectors is not None:
            cleaned = []
            for vec in self.vectors:
                vec = _prices_of(vec, "candidate vector")
                if len(vec) != self.k:
                    raise ValidationError(
                        f"candidate vector {vec!r} does not have {self.k} entries"
                    )
                cleaned.append(tuple(_exact_positive(v, "candidate price") for v in vec))
            object.__setattr__(self, "vectors", tuple(cleaned))

    @classmethod
    def from_vectors(cls, k: int, vectors) -> "CandidateSet":
        return cls(k=k, per_edge=((),) * k, vectors=tuple(vectors))


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
    _starts, _heads, _epos, _costs, _priced, scale, cutoff = inst._layout
    return _unscaled(cutoff - 1, scale) + 1  # cutoff is 1 + the scaled fixed total


def heuristic_candidates(oracle: RevenueOracle) -> CandidateSet:
    """Breakpoint prices per edge: where serving some vertex becomes tight.

    For edge i and vertex v the breakpoint is
    d(root, v) - d(root, tail_i) - d(head_i, v), all on fixed edges only;
    kept when finite and strictly positive, deduplicated, ascending.  The
    distances are the oracle's own fixed-only tables, times the cost scale,
    so each breakpoint is divided back once, to an int whenever integral.
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
        per_edge.append(tuple(_unscaled(b, oracle.model.scale) for b in sorted(found)))
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
    The candidates were checked when the set was built, so they are scaled
    once, by the LCM S of the cost scale and every candidate denominator, and
    each vector goes straight to the oracle's integer kernel; revenues and
    vectors compare as ints times S, and only the winner is divided back.
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
        grid = cands.vectors
    else:
        grid = [lst if lst else (fallback_price(inst),) for lst in cands.per_edge]
    oracle._check_served()
    scale = lcm(oracle.model.scale, *{p.denominator for row in grid for p in row})
    scaled = [tuple(p.numerator * (scale // p.denominator) for p in row) for row in grid]
    vectors = scaled if cands.vectors is not None else itertools.product(*scaled)

    kernel = oracle._kernel
    best_vec, best_rev, count = None, -1, 0  # every revenue is >= 0
    for ps in vectors:
        rev = sum(price * served for _, price, served in kernel(scale, ps)[2])
        count += 1
        if rev > best_rev or (rev == best_rev and ps < best_vec):
            best_rev, best_vec = rev, ps

    wall = time.perf_counter() - t0
    if _log.isEnabledFor(logging.DEBUG):
        shape = f"{len(grid)} vectors" if cands.vectors else "x".join(str(len(r)) for r in grid)
        _log.debug("solve: grid=%s scale=%d evaluations=%d solve_s=%.4f", shape, scale, count, wall)
    return SolveResult(
        best_price=PriceFunction(tuple(_unscaled(p, scale) for p in best_vec)),
        best_revenue=_unscaled(best_rev, scale),
        evaluations=count,
        wall_time=wall,
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


def random_prices(inst: Instance, rng: Random) -> list[Scalar]:
    """Small random prices, mixing integers and non-integers."""
    out: list[Scalar] = []
    for _ in range(inst.k):
        if rng.random() < 0.3:
            out.append(Fraction(rng.randint(1, 24), rng.randint(1, 5)))
        else:
            out.append(rng.randint(1, 12))
    return out


def verify_oracle(
    inst: Instance,
    trials: int,
    seed: int,
    *,
    oracle: Optional[RevenueOracle] = None,
) -> VerifyReport:
    """Cross-check the fast path against first principles on random prices.

    Per trial, in this order: fast revenue vs naive revenue, the reduced
    tree of ``revenue_breakdown`` vs the full-graph contraction and, when the
    two trees agree, the breakdown's served weights vs the full-graph
    classification, the partition of total demand, and the rows' revenue
    sum vs fast revenue.  Failures carry the serialized instance, made once
    per report, so they can be replayed.
    """
    if oracle is None:
        oracle = build_oracle(inst)
    rng = Random(seed)
    total = sum(inst.demand)
    instance_text = None
    failures: list[VerifyFailure] = []
    rows = []
    for trial in range(trials):
        prices = tuple(random_prices(inst, rng))
        p = PriceFunction(prices)
        fast = oracle.revenue(p)
        sweep = _lex_sweep(inst, p.values, inst.root)
        naive = _revenue_of(inst, *sweep)
        found = []  # (kind, detail) per failed check
        if fast != naive:
            found.append(("revenue", f"fast {fast} != naive {naive}"))

        spt = _spt_of(inst, inst.root, *sweep)
        last = last_priceable_labels(inst, spt)
        rt_full = _contracted(inst, spt, last)
        rt, breakdown = oracle.revenue_breakdown(p)
        if rt != rt_full:
            found.append(("reduced-tree", f"model {rt.parents} != full graph {rt_full.parents}"))
        else:
            counts = dict.fromkeys((*rt_full.edges, None), 0)  # None: priceable-free routes
            for label, phi in zip(last, inst.demand):
                counts[label] += phi
            free = counts.pop(None)
            for label, _, served in breakdown:
                if served != counts[label]:
                    detail = f"edge {label}: fast weight {served} != tree weight {counts[label]}"
                    found.append(("classification", detail))
            served_total = sum(served for _, _, served in breakdown)
            if served_total + free != total:
                found.append(("partition", f"served {served_total} + free {free} != total {total}"))
            recomputed = sum(price * served for _, price, served in breakdown)
            if recomputed != fast:
                found.append(("breakdown", f"rows sum {recomputed} != revenue {fast}"))

        if found and instance_text is None:
            instance_text = serialize_instance(inst)
        failures.extend(VerifyFailure(trial, prices, kind, detail, instance_text)
                        for kind, detail in found)
        rows.append((trial, not found, fast, naive))

    return VerifyReport(trials=trials, failures=tuple(failures), rows=tuple(rows))
