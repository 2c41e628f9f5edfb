"""Leader pricing on shortest-path trees: preprocess once, query fast.

An instance is a directed graph with positive fixed costs, k priceable
edges, and per-vertex demand routed along a composite-weight shortest path
tree from the root.  :func:`build_oracle` preprocesses the instance so that
the revenue of any price vector is answered from fixed-cost distance tables
(1 full, k bounded) and a few layered range trees instead of a fresh Dijkstra
sweep; :func:`naive_revenue` is the slow reference it is checked against.
"""

from .bench import BenchRecord, format_csv, parse_sizes, run_bench
from .errors import (
    ParseError,
    StacksptError,
    UnreachableVertexError,
    ValidationError,
)
from .instance import (
    Edge,
    Fixed,
    Instance,
    MAX_EDGES,
    MAX_PRICEABLE_EDGES,
    MAX_VERTICES,
    PriceFunction,
    Priceable,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .model import ModelGraph, ReducedTree, build_model_graph, reduced_tree, sequence_of
from .oracle import RevenueOracle, build_oracle
from .rangetree import (
    Interval,
    QueryRect,
    RangeTree,
    WeightedPointSet,
    build_range_tree,
)
from .rational import INF, NEG_INF, format_scalar, parse_scalar
from .shortest import (
    CompositeWeight,
    SptResult,
    last_priceable_labels,
    lex_dijkstra,
    naive_revenue,
)
from .solver import (
    CandidateSet,
    SolveResult,
    VerifyFailure,
    VerifyReport,
    heuristic_candidates,
    parse_candidates,
    solve,
    verify_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CandidateSet",
    "CompositeWeight",
    "Edge",
    "Fixed",
    "INF",
    "Instance",
    "Interval",
    "MAX_EDGES",
    "MAX_PRICEABLE_EDGES",
    "MAX_VERTICES",
    "ModelGraph",
    "NEG_INF",
    "ParseError",
    "PriceFunction",
    "Priceable",
    "QueryRect",
    "RangeTree",
    "ReducedTree",
    "RevenueOracle",
    "SolveResult",
    "SptResult",
    "StacksptError",
    "UnreachableVertexError",
    "ValidationError",
    "VerifyFailure",
    "VerifyReport",
    "WeightedPointSet",
    "build_model_graph",
    "build_oracle",
    "build_range_tree",
    "format_csv",
    "format_scalar",
    "heuristic_candidates",
    "last_priceable_labels",
    "lex_dijkstra",
    "naive_revenue",
    "parse_candidates",
    "parse_instance",
    "parse_scalar",
    "parse_sizes",
    "random_instance",
    "reduced_tree",
    "run_bench",
    "sequence_of",
    "serialize_instance",
    "solve",
    "verify_oracle",
]
