"""The untraced run: end-to-end metrics plus the answer checks behind them.

Every figure starts from the serialized instance text, as a user's program
would.  The run is ``SLICES`` slices spread over its measuring time: timed
set-ups, ``solve`` calls, ``naive_revenue`` calls and passes of warm queries
take turns, and every answer the run produces is checked:

* each warm revenue against the first answer for the same vector, also
  across the oracles of different set-ups;
* ``revenue_breakdown`` rows against ``revenue`` for every vector;
* fast against ``naive_revenue`` on the fixed subsample;
* the ``solve`` optimum against ``naive_revenue`` at the same prices;
* the reduced-tree mix against the workload's fingerprint.

A check that raises counts as failed; ``failed / attempted`` is the run's
mismatch fraction.

Every time is scaled to one host speed.  On a shared host the same code
runs up to about 1.7 times slower in phases that last from a fraction of a
second to minutes, so raw times depend on which phases a run happened to
meet.  The run times a fixed pure-Python reference kernel (``HostSpeed``)
around every chunk of warm queries and every naive call, and multiplies
each by ``REF_NOMINAL_S`` over the kernel's time around it; a set-up or a
``solve`` by the median kernel time from just before it to the end of its
slice.  A figure is then the program's time at the host speed where the
kernel takes ``REF_NOMINAL_S``, its best time on the machine in README.md:
comparable between runs on one kind of machine, not a wall-clock reading.
A change to the program moves it as it moves the raw time; a change of
host phase mostly does not.  stderr shows the scale factors a run applied.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction

from metrics import SHAPES

SLICES = 6  # three rounds of set-ups, three of solves; queries and naive calls in each
NAIVE_REPEATS = 3  # timed naive_revenue calls per subsample vector
MIN_PASSES = 1  # query passes per slice, however long the slice's other work took
LONG_SLICE_S = 1.0  # a slice repeats its set-up or solve() until this much time is spent
KEPT_LATENCIES = 100_000  # warm query latencies kept for the percentiles, a uniform sample
CHUNK_S = 0.1  # warm queries timed between two runs of the reference kernel
REF_STEPS = 1000  # size of the reference kernel
BURST = 4  # kernel runs just before a set-up or a solve
REF_NOMINAL_S = 1.4e-3  # the kernel's best time on the machine in README.md


def _kernel():
    """Fixed work of the kinds the library does: heap, dict, int and Fraction arithmetic."""
    heap, counts, total, frac = [], {}, 0, Fraction(0)
    for i in range(REF_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += (i * i) % 13
        if i % 4 == 0:
            frac += Fraction(1, 1 + i % 7)
    while heap:
        heapq.heappop(heap)
    return total, frac


class HostSpeed:
    """Scale factors that bring timed work to the speed where the kernel takes ``REF_NOMINAL_S``.

    ``mark()`` times the kernel just before an interval; ``factor()`` times
    it just after and returns ``REF_NOMINAL_S`` over the mean of the two,
    for intervals short enough that the host's speed holds across them.
    Consecutive intervals share the kernel run between them.  A set-up or a
    ``solve`` (seconds) is too long for two kernel runs to speak for: it
    follows ``BURST`` kernel runs (``burst()``), and ``since()`` scales it
    by the median kernel time from those on to the end of its slice, whose
    naive calls and query chunks time the kernel every 0.1 s or so.  A
    kernel time is the better of two runs, so that a single preemption
    does not read as a slow host.
    """

    def __init__(self):
        self.kernel_s = []
        self.factors = []
        self.mark()

    def _reference(self) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.kernel_s.append(best)
        return best

    def mark(self) -> None:
        self.before = self._reference()

    def factor(self) -> float:
        after = self._reference()
        f = 2 * REF_NOMINAL_S / (self.before + after)
        self.before = after
        self.factors.append(f)
        return f

    def burst(self) -> int:
        """Time the kernel ``BURST`` times; returns the index of the first."""
        first = len(self.kernel_s)
        for _ in range(BURST):
            self.mark()
        return first

    def since(self, i: int) -> float:
        """The factor from the median of kernel runs ``i`` and later."""
        f = REF_NOMINAL_S / statistics.median(self.kernel_s[i:])
        self.factors.append(f)
        return f


class Reservoir:
    """A uniform sample of at most ``size`` values of a stream (algorithm R).

    The run keeps its latencies in one, so that its memory, part of
    ``peak_rss_mib``, does not grow with the number of queries it makes.
    """

    def __init__(self, size: int):
        self.values = array("d", bytes(8 * size))
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, value: float) -> None:
        if self.seen < len(self.values):
            self.values[self.seen] = value
        else:
            i = self._rng.randrange(self.seen + 1)
            if i < len(self.values):
                self.values[i] = value
        self.seen += 1

    def sample(self) -> list:
        return list(self.values[:self.seen])


class Checks:
    """Counts answer checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn):
        """Call ``fn``; an exception counts as one failed check."""
        try:
            return fn()
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"check failed: {what} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def shape_of(trees) -> dict:
    """Exact reduced-tree mix of a query set (k <= 3), as fractions of its size."""
    total = len(trees)
    shape = {f"model.rt_edges.{e}": sum(len(t.edges) == e for t in trees) / total for e in range(4)}
    shape["model.rt_nested_frac"] = (
        sum(any(p not in (None, 0) for p in t.parents) for t in trees) / total
    )
    shape["model.distinct_trees"] = len(set(trees))
    return shape


def check_shape(checks: Checks, workload: str, shape: dict) -> None:
    for name, (lo, hi) in SHAPES[workload].items():
        checks.expect(lo <= shape[name] <= hi, f"fingerprint {name} = {shape[name]} outside [{lo}, {hi}]")


def setup(spt, text: str, vectors):
    """One user set-up: parse, preprocess, warm every tree the vectors need."""
    inst = spt.parse_instance(text)
    oracle = spt.build_oracle(inst)
    trees = [oracle.reduced_tree_for(v) for v in vectors]
    oracle.warm_up(set(trees))
    return inst, oracle, trees


def run(spt, workload, seconds: float) -> tuple[Checks, dict]:
    """``SLICES`` slices that end evenly spaced over ``seconds``.

    Even slices start with ``LONG_SLICE_S`` of timed set-ups, odd ones
    with as much of timed ``solve`` calls (one at least).  Then
    comes the slice's share of naive calls (each subsample vector's repeats
    lie about ``SLICES / NAIVE_REPEATS`` slices apart), and warm query
    passes fill the slice up to its end, ``MIN_PASSES`` at least.  Whole
    passes give every vector the same weight in the percentiles.
    """
    start = time.perf_counter()
    checks = Checks()
    speed = HostSpeed()
    vectors = workload.vectors
    naive_order = list(workload.naive_sample) * NAIVE_REPEATS
    answers = None
    setups, naive, solves = [], [], []
    kept = Reservoir(KEPT_LATENCIES)
    for r in range(SLICES):
        long_s = []  # (raw seconds, first kernel run, list to report it in)
        while sum(t for t, _, _ in long_s) < LONG_SLICE_S:
            if r % 2 == 0:
                oracle = inst = None
                gc.collect()
                first = speed.burst()
                t0 = time.perf_counter()
                inst, oracle, trees = setup(spt, workload.text, vectors)
                long_s.append((time.perf_counter() - t0, first, setups))
            else:
                cold = spt.parse_instance(workload.text)
                gc.collect()
                first = speed.burst()
                t0 = time.perf_counter()
                result = checks.run("solve", lambda: spt.solve(cold))
                long_s.append((time.perf_counter() - t0, first, solves))
                if result is not None:
                    best = checks.run("naive_revenue of the optimum",
                                      lambda: spt.naive_revenue(cold, result.best_price))
                    checks.expect(best == result.best_revenue,
                                  f"solve optimum {result.best_revenue} != naive {best}")
        if answers is None:
            check_shape(checks, workload.name, shape_of(trees))
            answers = [oracle.revenue(v) for v in vectors]
            for j in range(len(vectors)):
                checks.run(f"breakdown of vector {j}", lambda: _check_breakdown(checks, oracle, vectors[j], answers[j]))

        lo, hi = (len(naive_order) * i // SLICES for i in (r, r + 1))
        speed.mark()
        for j in naive_order[lo:hi]:
            t0 = time.perf_counter()
            want = checks.run(f"naive_revenue of vector {j}", lambda: spt.naive_revenue(inst, vectors[j]))
            naive.append((time.perf_counter() - t0) * speed.factor())
            checks.expect(want == answers[j], f"vector {j}: fast {answers[j]} != naive {want}")

        revenue = oracle.revenue
        slice_end = start + seconds * (r + 1) / SLICES
        passes = 0
        speed.mark()
        while passes < MIN_PASSES or time.perf_counter() < slice_end:
            j = 0
            while j < len(vectors):
                chunk = []
                chunk_end = time.perf_counter() + CHUNK_S
                while j < len(vectors):
                    t0 = time.perf_counter()
                    got = revenue(vectors[j])
                    t1 = time.perf_counter()
                    chunk.append(t1 - t0)
                    checks.expect(got == answers[j], f"vector {j}: revenue {got} != first answer {answers[j]}")
                    j += 1
                    if t1 >= chunk_end:
                        break
                f = speed.factor()
                for t in chunk:
                    kept.add(t * f)
            passes += 1
        for t, first, into in long_s:
            into.append(t * speed.since(first))

    factors = sorted(speed.factors)
    print(f"host speed: {len(factors)} scale factors, {factors[0]:.3f} .. {factors[-1]:.3f}, "
          f"median {statistics.median(factors):.3f}", file=sys.stderr)
    latencies = kept.sample()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return checks, {
        "setup_s": statistics.median(setups),
        "query_us_p50": statistics.median(latencies) * 1e6,
        "query_us_p90": percentile(latencies, 90) * 1e6,
        "naive_us_p50": statistics.median(naive) * 1e6,
        "solve_s": statistics.median(solves),
        "peak_rss_mib": rss_kib / 1024,
    }


def _check_breakdown(checks: Checks, oracle, vector, revenue) -> bool:
    _rt, rows = oracle.revenue_breakdown(vector)
    total = sum(price * served for _label, price, served in rows)
    return checks.expect(total == revenue, f"prices {vector}: breakdown {total} != revenue {revenue}")
