"""The traced run: per-layer metrics from spans around each module's entry points.

The run replaces, for its own duration, the names that ``stackspt.oracle``
and ``stackspt.solver`` call across module lines (and ``RangeTree.query``)
with wrappers that record a span: name, start, end, parent and a few
attributes.  ``revenue()`` and ``solve()`` themselves run unmodified; the
benchmark opens its own spans around its calls into them.  Spans stay in
memory and are written out, gzipped JSON lines, when the run ends.

A layer's self time is its spans' duration minus the time covered by their
children.  A wrapped name that no longer exists is reported as absent (the
``trace.absent_names`` count, and by name on stderr), not as a failure, so
the benchmark keeps running when a later change removes the name.

The traced run also times one untraced pass over the same price vectors
first; ``trace.overhead_us`` is the traced median query minus that one.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import endtoend

# (module, attribute, span name, attributes taken from the call's args and result)
TARGETS = [
    ("oracle", "fixed_cost_sssp", "shortest.fixed_cost_sssp", lambda a, r: {"via": "oracle"}),
    ("oracle", "build_model_graph", "model.build_model_graph", None),
    ("oracle", "reduced_tree", "model.reduced_tree", None),
    ("oracle", "embed_points", "oracle.embed_points", lambda a, r: {"points": len(r)}),
    ("oracle", "build_range_tree", "rangetree.build_range_tree",
     lambda a, r: {"dim": a[0].dim, "points": len(a[0])}),
    ("oracle", "query_intervals", "oracle.query_intervals", None),
    ("oracle", "sequence_of", "model.sequence_of", None),
    ("oracle", "seq_price", "model.seq_price", None),
    ("solver", "fixed_cost_sssp", "shortest.fixed_cost_sssp", lambda a, r: {"via": "solver"}),
    ("solver", "heuristic_candidates", "solver.heuristic_candidates", None),
    ("rangetree", "RangeTree.query", "rangetree.query",
     lambda a, r: {"dim": a[0].dim, "nonzero": r != 0}),
]

MODULES = ("instance", "shortest", "model", "oracle", "rangetree", "solver")


class Tracer:
    """In-memory spans: ``[name, start, end, parent index or -1, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, attrs)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, {})
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    self.spans[idx][4] = note(args, result)
                return result
            finally:
                self.end(idx)

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def install(tracer: Tracer) -> tuple[list, list]:
    """Wrap every target that exists; returns (undo list, absent names)."""
    undo, absent = [], []
    for module, attr, name, note in TARGETS:
        try:
            owner = importlib.import_module(f"stackspt.{module}")
        except ImportError:
            owner = None
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, last, None)
        if not callable(original):
            absent.append(f"stackspt.{module}.{attr}")
            continue
        setattr(owner, last, tracer.wrap(name, original, note))
        undo.append((owner, last, original))
    return undo, absent


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _tree_alloc_mib(spt, oracle) -> float:
    """Largest tracemalloc peak of rebuilding one of the oracle's range trees."""
    embed = getattr(importlib.import_module("stackspt.oracle"), "embed_points", None)
    if embed is None:
        return 0.0
    peaks = []
    for rt, label in sorted(oracle.materialized_keys, key=repr):
        pts = embed(oracle, rt, label)
        tracemalloc.start()
        try:
            spt.RangeTree(pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks, default=0) / 2**20


def run(spt, workload, trace_path: Path) -> tuple:
    """One untraced and one traced pass over the vectors, so every count repeats exactly."""
    checks = endtoend.Checks()
    vectors = workload.vectors

    inst, oracle, trees = endtoend.setup(spt, workload.text, vectors)
    shape = endtoend.shape_of(trees)
    endtoend.check_shape(checks, workload.name, shape)
    expected, plain = [], []
    for v in vectors:
        t0 = time.perf_counter()
        expected.append(oracle.revenue(v))
        plain.append(time.perf_counter() - t0)

    tracer = Tracer()
    undo, absent = install(tracer)
    try:
        with tracer.span("bench.setup"):
            with tracer.span("instance.parse_instance"):
                inst = spt.parse_instance(workload.text)
            with tracer.span("oracle.build_oracle"):
                oracle = spt.build_oracle(inst)
            trees = [oracle.reduced_tree_for(v) for v in vectors]
            oracle.warm_up(set(trees))
        with tracer.span("bench.queries"):
            for j, v in enumerate(vectors):
                with tracer.span("bench.query"):
                    with tracer.span("instance.PriceFunction"):
                        p = spt.PriceFunction(v)
                    with tracer.span("oracle.revenue"):
                        got = oracle.revenue(p)
                checks.expect(got == expected[j], f"vector {j}: traced {got} != untraced {expected[j]}")
        cold = spt.parse_instance(workload.text)
        with tracer.span("bench.solve"):
            with tracer.span("solver.solve"):
                result = checks.run("solve", lambda: spt.solve(cold))
    finally:
        for owner, attr, original in undo:
            setattr(owner, attr, original)
    if result is not None:
        best = checks.run("naive_revenue of the optimum", lambda: spt.naive_revenue(cold, result.best_price))
        checks.expect(best == result.best_revenue, f"solve optimum {result.best_revenue} != naive {best}")
    for name in absent:
        print(f"trace: {name} is absent, its spans are missing", file=sys.stderr)

    metrics = layer_metrics(tracer.spans, _p50(plain))
    metrics.update(shape)
    metrics["solver.vectors"] = result.evaluations if result is not None else 0
    metrics["rangetree.alloc_mib"] = _tree_alloc_mib(spt, oracle)
    metrics["trace.absent_names"] = len(absent)
    tracer.dump(trace_path)
    return checks, metrics


def layer_metrics(spans: list, untraced_query_s: float) -> dict:
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    phase = [""] * n
    query = [-1] * n  # index of the enclosing bench.query span
    for i, (name, _start, _end, parent, _attrs) in enumerate(spans):
        if parent < 0:
            phase[i] = name
            continue
        covered[parent] += dur[i]
        phase[i] = phase[parent]
        query[i] = i if name == "bench.query" else query[parent]
    own = [d - c for d, c in zip(dur, covered)]

    def pick(name, in_phase, **attrs):
        return [
            i for i, s in enumerate(spans)
            if s[0] == name and phase[i] == in_phase
            and all(s[4].get(k) == v for k, v in attrs.items())
        ]

    def total(idx):
        return sum(dur[i] for i in idx)

    def per_query(names, only=None):
        """Per-query time in the named spans, for queries that reach them."""
        sums: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[0] in names and query[i] >= 0 and (only is None or only(i)):
                sums[query[i]] = sums.get(query[i], 0.0) + dur[i]
        return list(sums.values())

    m = {}
    m["instance.parse_s"] = total(pick("instance.parse_instance", "bench.setup"))
    m["instance.price_validate_us_p50"] = _p50(per_query({"instance.PriceFunction"})) * 1e6
    for via, key in (("oracle", "oracle"), ("solver", "candidates")):
        phase_name = "bench.setup" if via == "oracle" else "bench.solve"
        sweeps = pick("shortest.fixed_cost_sssp", phase_name, via=via)
        m[f"shortest.sweep_s.{key}"] = total(sweeps)
        m[f"shortest.sweeps.{key}"] = len(sweeps)
    m["model.build_us"] = total(pick("model.build_model_graph", "bench.setup")) * 1e6
    m["model.reduced_tree_us_p50"] = _p50(per_query({"model.reduced_tree"})) * 1e6
    m["oracle.build_s"] = total(pick("oracle.build_oracle", "bench.setup"))
    embeds = pick("oracle.embed_points", "bench.setup")
    m["oracle.embed_s"] = total(embeds)
    m["oracle.points"] = sum(spans[i][4].get("points", 0) for i in embeds)
    m["oracle.rect_us_p50"] = _p50(per_query({"oracle.query_intervals"})) * 1e6
    m["oracle.route_price_us_p50"] = _p50(per_query(
        {"model.sequence_of", "model.seq_price"},
        only=lambda i: spans[spans[i][3]][0] == "oracle.revenue",
    )) * 1e6
    m["oracle.revenue_self_us_p50"] = _p50(
        [own[i] for i in pick("oracle.revenue", "bench.queries")]
    ) * 1e6
    solve_builds = len(pick("rangetree.build_range_tree", "bench.solve"))
    solve_lookups = len(pick("rangetree.query", "bench.solve"))
    m["oracle.trees"] = solve_builds
    m["oracle.tree_lookups"] = solve_lookups
    m["oracle.tree_hit_frac"] = (solve_lookups - solve_builds) / solve_lookups if solve_lookups else 0.0
    lookups = pick("rangetree.query", "bench.queries")
    for d in (1, 2, 3):
        builds = pick("rangetree.build_range_tree", "bench.setup", dim=d)
        m[f"rangetree.build_s.d{d}"] = total(builds)
        m[f"rangetree.points.d{d}"] = sum(spans[i][4]["points"] for i in builds)
        at_d = [i for i in lookups if spans[i][4]["dim"] == d]
        m[f"rangetree.query_us_p50.d{d}"] = _p50([dur[i] for i in at_d]) * 1e6
        m[f"rangetree.lookups.d{d}"] = len(at_d)
    m["rangetree.nonzero_frac"] = (
        sum(spans[i][4]["nonzero"] for i in lookups) / len(lookups) if lookups else 0.0
    )
    m["solver.candidates_s"] = total(pick("solver.heuristic_candidates", "bench.solve"))
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            own[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == module
        )
    traced = [dur[i] for i, s in enumerate(spans) if s[0] == "bench.query"]
    m["trace.overhead_us"] = (_p50(traced) - untraced_query_s) * 1e6
    return m
