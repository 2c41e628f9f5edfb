"""Doubling benchmark: preprocessing cost, fast queries, naive evaluations.

Each size builds one random instance with m = 4n edges, draws a batch of
integer price vectors, runs them all once through the oracle (materializing
every range tree the batch needs, folded into the build figure), then times
the fast queries and the naive per-query evaluations on the identical
vectors.  The naive pass doubles as an equivalence check: any disagreement
aborts the run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import instance
from .errors import ValidationError
from .instance import random_instance
from .oracle import build_oracle
from .shortest import naive_revenue

__all__ = ["BenchRecord", "format_csv", "parse_sizes", "run_bench"]

CSV_HEADER = "n,m,k,build_s,fast_us,naive_us,speedup"


@dataclass(frozen=True)
class BenchRecord:
    n: int
    m: int
    k: int
    build_s: float
    fast_us: float
    naive_us: float
    queries: int

    @property
    def speedup(self) -> float:
        return self.naive_us / self.fast_us

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.m},{self.k},{self.build_s:.6f},"
            f"{round(self.fast_us)},{round(self.naive_us)},{self.speedup:.2f}"
        )


def parse_sizes(text: str) -> list[int]:
    """Size list: comma or space separated, plain integers or ``2^e`` powers,
    each in [2, ``MAX_VERTICES``]."""
    cap = instance.MAX_VERTICES
    sizes = []
    for token in text.replace(",", " ").split():
        try:
            if "^" in token:
                base, exp = (int(part) for part in token.split("^", 1))
            else:
                base, exp = int(token), 1
        except ValueError as exc:
            raise ValidationError(f"bad size {token!r}") from exc
        if exp < 0:
            raise ValidationError(f"bad size {token!r}")
        # checked before the power is taken: b^e grows without bound in e
        if exp > cap.bit_length() or abs(base) > cap:
            raise ValidationError(f"size {token!r} is above the cap {cap}")
        if base < 0:  # an even power would turn it positive
            raise ValidationError(f"bad size {token!r}")
        value = base ** exp
        if value < 2:
            raise ValidationError(f"sizes must be >= 2, got {value}")
        if value > cap:
            raise ValidationError(f"size {token!r} is above the cap {cap}")
        sizes.append(value)
    if not sizes:
        raise ValidationError("no sizes given")
    return sizes


def run_bench(
    sizes: Sequence[int],
    k: int = 2,
    queries: int = 200,
    seed: int = 0,
    *,
    cost_max: int = 10,
    progress: Optional[Callable[[str], None]] = None,
) -> list[BenchRecord]:
    """Benchmark one instance per size; returns one record per size.

    Deterministic content for fixed arguments (timings vary, answers do not).
    """
    if queries < 1:
        raise ValidationError("bench needs at least one query")
    if k < 1:
        raise ValidationError("bench requires at least one priceable edge (--k >= 1)")
    records = []
    for n in sizes:
        m = 4 * n
        if m - (n - 1) < k:
            raise ValidationError(f"size {n} cannot host {k} priceable edges")
        rng = random.Random(seed * 1_000_003 + n)
        inst = random_instance(
            n, m, k, seed=rng.randrange(2**48), cost_max=cost_max, demand_max=1
        )
        batch = [
            tuple(rng.randint(1, 2 * cost_max) for _ in range(k)) for _ in range(queries)
        ]

        t0 = time.perf_counter()
        oracle = build_oracle(inst)
        expected = [oracle.revenue(p) for p in batch]  # materializes every tree needed
        build_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for p in batch:
            oracle.revenue(p)
        fast_us = (time.perf_counter() - t0) * 1e6 / queries

        t0 = time.perf_counter()
        for p, want in zip(batch, expected):
            got = naive_revenue(inst, p)
            if got != want:
                raise ValidationError(
                    f"fast/naive disagreement at n={n}, prices={p}: {want} != {got}"
                )
        naive_us = (time.perf_counter() - t0) * 1e6 / queries

        rec = BenchRecord(
            n=n, m=m, k=k, build_s=build_s,
            fast_us=fast_us, naive_us=naive_us, queries=queries,
        )
        records.append(rec)
        if progress is not None:
            progress(
                f"n={n} m={m} build {build_s:.2f}s fast {fast_us:.0f}us "
                f"naive {naive_us:.0f}us speedup {rec.speedup:.0f}x"
            )
    return records


def format_csv(records: Sequence[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
