"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` is what a user of the library sees; ``--trace 0`` runs print
all of them, every time scaled to one host speed (``endtoend.HostSpeed``).
``PER_LAYER`` is what one module costs; ``--trace 1`` runs
print all of them.

``SHAPES`` is the workload fingerprint: the reduced-tree mix each workload
must show on every seed.  A run whose mix falls outside it fails, because
it no longer measures what its name says.
"""

from __future__ import annotations


# name -> unit
END_TO_END = {
    "setup_s": "s",  # parse_instance + build_oracle + warm_up of the query set's trees
    "query_us_p50": "us",  # warm RevenueOracle.revenue latency, median
    "query_us_p90": "us",  # same latencies, 90th percentile
    "naive_us_p50": "us",  # naive_revenue latency on the fixed subsample, median
    "solve_s": "s",  # solve(inst) with default heuristic candidates, cold
    "peak_rss_mib": "MiB",  # peak resident memory of the run's process
}

# name -> unit; README.md says which end-to-end metric each should move, and where
PER_LAYER = {
    "instance.parse_s": "s",
    "instance.price_validate_us_p50": "us",
    "shortest.sweep_s.oracle": "s",
    "shortest.sweeps.oracle": "count",
    "shortest.sweep_s.candidates": "s",
    "shortest.sweeps.candidates": "count",
    "model.build_us": "us",
    "model.reduced_tree_us_p50": "us",
    "model.rt_edges.0": "ratio",
    "model.rt_edges.1": "ratio",
    "model.rt_edges.2": "ratio",
    "model.rt_edges.3": "ratio",
    "model.rt_nested_frac": "ratio",
    "model.distinct_trees": "count",
    "oracle.build_s": "s",
    "oracle.embed_s": "s",
    "oracle.points": "count",
    "oracle.rect_us_p50": "us",
    "oracle.route_price_us_p50": "us",
    "oracle.revenue_self_us_p50": "us",
    "oracle.trees": "count",
    "oracle.tree_lookups": "count",
    "oracle.tree_hit_frac": "ratio",
    "rangetree.build_s.d1": "s",
    "rangetree.build_s.d2": "s",
    "rangetree.build_s.d3": "s",
    "rangetree.points.d1": "count",
    "rangetree.points.d2": "count",
    "rangetree.points.d3": "count",
    "rangetree.query_us_p50.d1": "us",
    "rangetree.query_us_p50.d2": "us",
    "rangetree.query_us_p50.d3": "us",
    "rangetree.lookups.d1": "count",
    "rangetree.lookups.d2": "count",
    "rangetree.lookups.d3": "count",
    "rangetree.nonzero_frac": "ratio",
    "rangetree.alloc_mib": "MiB",
    "solver.candidates_s": "s",
    "solver.vectors": "count",
    "instance.self_s": "s",
    "shortest.self_s": "s",
    "model.self_s": "s",
    "oracle.self_s": "s",
    "rangetree.self_s": "s",
    "solver.self_s": "s",
    "trace.overhead_us": "us",
    "trace.absent_names": "count",
}

# workload -> metric -> (lowest, highest) allowed on every seed
SHAPES = {
    "random-k2": {
        "model.rt_edges.0": (0.55, 0.75),
        "model.rt_edges.1": (0.25, 0.45),
        "model.rt_edges.2": (0.0, 0.02),
        "model.rt_edges.3": (0.0, 0.0),
        "model.rt_nested_frac": (0.0, 0.02),
    },
    "siblings-k3": {
        "model.rt_edges.3": (0.9, 1.0),
        "model.rt_nested_frac": (0.0, 0.0),
    },
    "chain-frac": {
        "model.rt_edges.0": (0.0, 0.02),
        "model.rt_edges.1": (0.0, 0.05),
        "model.rt_edges.3": (0.7, 0.8),
        "model.rt_nested_frac": (0.85, 0.98),
    },
}
