"""The public surface: exported names, and one validation of every price vector."""

import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import stackspt
from stackspt.errors import ValidationError
from stackspt.instance import Edge, Fixed, Instance, Priceable, PriceFunction
from stackspt.model import reduced_tree
from stackspt.oracle import build_oracle
from stackspt.rangetree import WeightedPointSet
from stackspt.shortest import lex_dijkstra, naive_revenue
from stackspt.solver import CandidateSet, solve, verify_oracle


def two_edge_instance() -> Instance:
    edges = (
        Edge(0, 1, Fixed(2)),
        Edge(1, 2, Priceable(1)),
        Edge(2, 3, Fixed(1)),
        Edge(3, 4, Priceable(2)),
        Edge(0, 4, Fixed(20)),
    )
    return Instance(n=5, root=0, edges=edges, demand=(1,) * 5)


MODULES = ["stackspt"] + [f"stackspt.{m.name}" for m in pkgutil.iter_modules(stackspt.__path__)]


PUBLIC_NAMES = [
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


def test_public_surface():
    assert sorted(stackspt.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


BAD_PRICES = [
    ((1,), "expected 2 prices, got 1"),
    ((1, 2, 3), "expected 2 prices, got 3"),
    ((1.5, 1), "price 1 must be an int or Fraction, got float"),
    ((1, float("inf")), "price 2 must be an int or Fraction, got float"),
    ((1, True), "price 2 must be an int or Fraction, got bool"),
    ((0, 1), "price 1 must be > 0, got 0"),
    ((1, -2), "price 2 must be > 0, got -2"),
    ((Fraction(-1, 2), 1), "price 1 must be > 0, got -1/2"),
    ((1, Fraction(0, 3)), "price 2 must be > 0, got 0"),
    (("3", 1), "price 1 must be an int or Fraction, got str"),
    ((None, 1), "price 1 must be an int or Fraction, got NoneType"),
    ((False, 1), "price 1 must be an int or Fraction, got bool"),
    (5, "prices must be a sequence of scalars, got 5"),
    (None, "prices must be a sequence of scalars, got None"),
    # unordered containers: iterated, they would price the edges in their own order
    ({1: 5, 2: 7}, "prices must be a sequence of scalars in edge order, got a dict"),
    ({3, 4}, "prices must be a sequence of scalars in edge order, got a set"),
    (frozenset((3, 4)), "prices must be a sequence of scalars in edge order, got a frozenset"),
    (MappingProxyType({1: 5, 2: 7}),
     "prices must be a sequence of scalars in edge order, got a mappingproxy"),
]

ENTRY_POINTS = {
    "revenue": lambda inst, oracle, p: oracle.revenue(p),
    "revenue_breakdown": lambda inst, oracle, p: oracle.revenue_breakdown(p),
    "reduced_tree_for": lambda inst, oracle, p: oracle.reduced_tree_for(p),
    "naive_revenue": lambda inst, oracle, p: naive_revenue(inst, p),
    "lex_dijkstra": lambda inst, oracle, p: lex_dijkstra(inst, p),
    "model.reduced_tree": lambda inst, oracle, p: reduced_tree(oracle.model, p),
    # values checked by the constructor, the count by the query
    "PriceFunction": lambda inst, oracle, p: oracle.revenue(PriceFunction(p)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("prices, message", BAD_PRICES)
def test_bad_prices_raise_validation_error(entry, prices, message):
    inst = two_edge_instance()
    oracle = build_oracle(inst)
    with pytest.raises(ValidationError) as info:
        ENTRY_POINTS[entry](inst, oracle, prices)
    assert str(info.value) == message


HUGE = -(10**5000)  # past the 4300 digits that str() of an int is capped at
HUGE_VALUES = {
    "price": (lambda: PriceFunction((1, HUGE)), "price 2 must be > 0, got "),
    "candidate": (
        lambda: CandidateSet(k=1, per_edge=((HUGE,),)),
        "candidates of edge 1: price 1 must be > 0, got ",
    ),
    "edge cost": (
        lambda: Instance(n=2, root=0, edges=(Edge(0, 1, Fixed(HUGE)),), demand=(0, 1)),
        "edge 0 cost must be > 0, got ",
    ),
    "point weight": (
        lambda: WeightedPointSet(dim=1, points=((0,),), weights=(HUGE,)),
        "weights must be nonnegative, got ",
    ),
}


@pytest.mark.parametrize("what", HUGE_VALUES)
def test_huge_value_is_named_in_full(what):
    build, prefix = HUGE_VALUES[what]
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == prefix + "-1" + "0" * 5000


_ONE = (Edge(0, 1, Fixed(1)),)
BAD_ARGUMENTS = {
    "edge entry not an Edge": (
        lambda: Instance(n=2, root=0, edges=[(0, 1, Fixed(1))], demand=[1, 1]),
        "edge 0 must be an Edge with int endpoints, got (0, 1, Fixed(cost=1))",
    ),
    "edge endpoint not an int": (
        lambda: Instance(n=2, root=0, edges=_ONE + (Edge(1.0, 0, Fixed(1)),), demand=(1, 1)),
        "edge 1 must be an Edge with int endpoints, got Edge(tail=1.0, head=0, kind=Fixed(cost=1))",
    ),
    "edges None": (
        lambda: Instance(n=2, root=0, edges=None, demand=(1, 1)),
        "edges must be a sequence of Edge, got None",
    ),
    "demand None": (
        lambda: Instance(n=2, root=0, edges=_ONE, demand=None),
        "demand must be a sequence of scalars, got None",
    ),
    "n not an int": (
        lambda: Instance(n="2", root=0, edges=_ONE, demand=(1, 1)),
        "n must be an int, got '2'",
    ),
    "n a bool": (
        lambda: Instance(n=True, root=0, edges=(), demand=(1,)),
        "n must be an int, got True",
    ),
    "root not an int": (
        lambda: Instance(n=2, root=0.0, edges=_ONE, demand=(1, 1)),
        "root must be an int, got 0.0",
    ),
    "per_edge not a sequence": (
        lambda: CandidateSet(k=1, per_edge=5),
        "per_edge must be a sequence of candidate lists, got 5",
    ),
    "vectors not a sequence": (
        lambda: CandidateSet.from_vectors(2, 5),
        "vectors must be a sequence of price vectors, got 5",
    ),
    "candidate k a str": (
        lambda: CandidateSet(k="2", per_edge=((1,), (2,))),
        "k must be an int, got '2'",
    ),
    "candidate k a bool": (
        lambda: CandidateSet(k=True, per_edge=((1,),)),
        "k must be an int, got True",
    ),
    "candidate k a float": (
        lambda: CandidateSet(k=1.0, per_edge=((1,),)),
        "k must be an int, got 1.0",
    ),
    "point dimension a str": (
        lambda: WeightedPointSet("1", points=((0,),), weights=(1,)),
        "dimension must be an int >= 1, got '1'",
    ),
    "point dimension a bool": (
        lambda: WeightedPointSet(True, points=((0,),), weights=(1,)),
        "dimension must be an int >= 1, got True",
    ),
    "verify trials negative": (
        lambda: verify_oracle(two_edge_instance(), -1, 1),
        "trials must be an int >= 1, got -1",
    ),
    "warm-up tree not a ReducedTree": (
        lambda: build_oracle(two_edge_instance()).warm_up([(0, None)]),
        "expected a ReducedTree, got (0, None)",
    ),
    "solve candidates not a CandidateSet": (
        lambda: solve(two_edge_instance(), [[1], [2]]),
        "candidates must be a CandidateSet, got [[1], [2]]",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_arguments_raise_validation_error(case):
    build, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_the_runtime_imports_only_the_standard_library():
    # numpy sits beside the tests; nothing the package or its CLI loads may need it, or anything else
    env = {**os.environ, "PYTHONPATH": str(Path(stackspt.__file__).parents[1])}
    code = (
        "import sys; before = set(sys.modules)\n"
        "import stackspt, stackspt.cli, stackspt.__main__\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "stackspt" in out
    assert [m for m in out if m != "stackspt" and m not in sys.stdlib_module_names] == []
