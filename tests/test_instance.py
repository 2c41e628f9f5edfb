"""Instance model, text format, and the random generator."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackspt.cli import main
from stackspt.errors import ParseError, ValidationError
from stackspt.instance import (
    Edge,
    Fixed,
    Instance,
    PriceFunction,
    Priceable,
    parse_instance,
    random_instance,
    serialize_instance,
)
from stackspt.model import reduced_tree_of_spt
from stackspt.oracle import build_oracle
from stackspt.rational import INF
from stackspt.shortest import last_priceable_labels, lex_dijkstra, naive_revenue
from stackspt.solver import solve, verify_oracle

SAMPLE = """\
# a small instance with one comment per construct
stackspt 1
graph 4 5 2
root 0
demand 2 3        # heavier vertex
demand 3 0.5      # decimals parse exactly
edge 0 1 F 2
edge 1 2 F 1/3    # ratio literal
edge 0 2 P 1
edge 2 3 P 2
edge 0 3 F 7
"""


# a comment line and a blank line before the header, so the body starts on line 6
_HEAD = "# header follows\n\nstackspt 1\ngraph 3 2 1\nroot 0\n"


class TestParse:
    def test_sample(self):
        inst = parse_instance(SAMPLE)
        assert inst.n == 4 and inst.m == 5 and inst.k == 2
        assert inst.root == 0
        assert inst.demand == (1, 1, 3, Fraction(1, 2))
        assert inst.edges[1].kind == Fixed(Fraction(1, 3))
        assert inst.edges[2].kind == Priceable(1)
        assert inst.source_of(1) == 0 and inst.target_of(1) == 2
        assert inst.source_of(2) == 2 and inst.target_of(2) == 3

    def test_roundtrip_sample(self):
        inst = parse_instance(SAMPLE)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_serialize_mentions_demand_default(self):
        inst = parse_instance(SAMPLE)
        text = serialize_instance(inst)
        assert "# demand defaults to 1" in text
        # vertices with demand 1 are not emitted
        assert "demand 0" not in text and "demand 1 " not in text

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "magic"),
            ("nope 1\ngraph 1 0 0\nroot 0\n", "magic"),
            ("stackspt 2\ngraph 1 0 0\nroot 0\n", "version"),
            ("stackspt 1\n", "graph"),
            ("stackspt 1\ngraph 2 1 0\n", "root"),
            ("stackspt 1\ngraph 2 1 0\nroot 0\nedge 0 1 F\n", "edge"),
            ("stackspt 1\ngraph 2 1 0\nroot 0\nedge 0 1 Q 3\n", "F or P"),
            ("stackspt 1\ngraph 2 1 0\nroot 0\nedge 0 1 F 1e3\n", "cost"),
            ("stackspt 1\ngraph 2 1 0\nroot 0\nwhatever 1\nedge 0 1 F 1\n", "whatever"),
            ("stackspt 1\ngraph 2 2 0\nroot 0\nedge 0 1 F 1\n", "m = 2"),
            ("stackspt 1\ngraph 2 1 1\nroot 0\nedge 0 1 F 1\n", "k = 1"),
            ("stackspt 1\ngraph 2 1 0\nroot 0\ndemand 5 1\nedge 0 1 F 1\n", "out of range"),
            (
                "stackspt 1\ngraph 2 1 0\nroot 0\ndemand 1 2\ndemand 1 3\nedge 0 1 F 1\n",
                "duplicate demand",
            ),
            ("stackspt 1\ngraph 2 1 0\nroot 0\ndemand 1 -2\nedge 0 1 F 1\n", ">= 0"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)

    def test_vertex_cap_checked_before_allocating(self, monkeypatch):
        import stackspt.instance as mod

        assert mod.MAX_VERTICES >= 2**17
        monkeypatch.setattr(mod, "MAX_VERTICES", 4)
        ok = "stackspt 1\ngraph 4 3 0\nroot 0\nedge 0 1 F 1\nedge 1 2 F 1\nedge 2 3 F 1\n"
        assert parse_instance(ok).n == 4
        with pytest.raises(ParseError) as err:
            parse_instance(ok.replace("graph 4", "graph 5"))
        assert "MAX_VERTICES = 4" in str(err.value) and "line 2" in str(err.value)

    def test_error_carries_line_number(self):
        text = "stackspt 1\ngraph 2 1 0\nroot 0\nedge 0 1 F zero\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("# only a comment\n\n", None, "empty input, expected magic line"),
            ("# c\n\nnope 1\n", 3, "expected 'stackspt 1' magic line"),
            ("# c\nstackspt x\n", 2, "format version must be an integer, got 'x'"),
            ("# c\nstackspt 2\n", 2, "unsupported format version 2"),
            ("# c\nstackspt 1  # magic\n# c\n", None, "missing 'graph' line"),
            ("# c\nstackspt 1\ngraph 3 2\n", 3, "expected 'graph <n> <m> <k>'"),
            ("# c\nstackspt 1\ngraph x 2 1\n", 3, "n must be an integer, got 'x'"),
            ("# c\nstackspt 1\ngraph 3 y 1\n", 3, "m must be an integer, got 'y'"),
            ("# c\nstackspt 1\ngraph 3 2 z\n", 3, "k must be an integer, got 'z'"),
            ("# c\nstackspt 1\ngraph 3 2 1\n", None, "missing 'root' line"),
            ("# c\nstackspt 1\ngraph 3 2 1\nroot\n", 4, "expected 'root <r>'"),
            ("# c\nstackspt 1\ngraph 3 2 1\nroot r\n", 4, "root must be an integer, got 'r'"),
            ("# c\nstackspt 1\ngraph 0 0 0\nroot 0\n", 4, "n must be >= 1, got 0"),
            ("stackspt 1\ngraph 2 -1 0\nroot 0\nedge 0 1 F 1\n", 4,
             "header declares m = -1 edges, found more"),
        ]
        + [
            # after _HEAD, whose body starts on line 6
            (_HEAD + body, line, message)
            for body, line, message in [
                ("edge 0 1 F\n", 6, "expected 'edge <u> <v> F <cost>' or 'edge <u> <v> P <i>'"),
                ("edge a 1 F 1\n", 6, "edge tail must be an integer, got 'a'"),
                ("edge 0 b F 1\n", 6, "edge head must be an integer, got 'b'"),
                ("edge 0 1 F 1\nedge 1 2 F 1e3\n", 7, "bad cost: not a scalar literal: '1e3'"),
                ("edge 0 1 F 1/0  # comment\n", 6, "bad cost: zero denominator in '1/0'"),
                ("edge 0 1 P x\n", 6, "priceable label must be an integer, got 'x'"),
                ("\nedge 0 1 Q 1\n", 7, "edge kind must be F or P, got 'Q'"),
                ("edges 0 1 F 1\n", 6, "unknown directive 'edges'"),
                ("demand 1\n", 6, "expected 'demand <v> <phi>'"),
                ("demand x 1\n", 6, "vertex must be an integer, got 'x'"),
                ("demand 3 1\n", 6, "demand vertex 3 out of range [0, 3)"),
                ("demand 1 2\n# c\ndemand 1 3\n", 8, "duplicate demand line for vertex 1"),
                ("demand 1 1e3\n", 6, "bad demand: not a scalar literal: '1e3'"),
                ("demand 1 -1\n", 6, "demand must be >= 0, got -1"),
                ("edge 0 1 F 1\n", None, "header declares m = 2 edges, found 1"),
                ("edge 0 1 F 1\nedge 1 2 P 1\n\nedge 0 2 F 1\n", 9,
                 "header declares m = 2 edges, found more"),
                ("edge 0 1 F 1\nedge 1 2 F 1\n", None, "header declares k = 1 priceable edges, found 0"),
            ]
        ],
    )
    def test_every_parse_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    def test_edge_past_the_headers_m_fails_before_the_next_edge_is_built(self, monkeypatch):
        import stackspt.instance as mod

        built = []  # one Priceable payload per P line parsed
        monkeypatch.setattr(mod, "Priceable", lambda *args: built.append(args) or Priceable(*args))
        text = "stackspt 1\ngraph 3 1 1\nroot 0\n" + "edge 0 1 P 1\n" * 1000
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == "line 5: header declares m = 1 edges, found more"
        assert built == [(1,)]

    def test_repeated_bad_cost_names_the_first_edge(self):
        text = _HEAD.replace("graph 3 2 1", "graph 3 3 0") + (
            "edge 0 1 F 1\nedge 1 2 F 0\nedge 0 2 F 0\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_instance(text)
        assert str(err.value) == "edge 1 cost must be > 0, got 0"

    def test_cost_tokens_share_one_exact_payload(self):
        text = _HEAD.replace("graph 3 2 1", "graph 3 4 0") + (
            "edge 0 1 F 1/2\nedge 1 2 F 0.5\nedge 0 2 F 1/2\nedge 2 0 F 2/4\n"
        )
        kinds = [e.kind for e in parse_instance(text).edges]
        assert all(kind == Fixed(Fraction(1, 2)) for kind in kinds)
        assert all(type(kind.cost) is Fraction for kind in kinds)
        assert kinds[0] is kinds[2] and kinds[0] is not kinds[1]


_ZERO = Fixed(0)  # one payload on two edges: the first edge must be named


class TestValidation:
    def build(self, **overrides):
        base = dict(
            n=3,
            root=0,
            edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1))),
            demand=(1, 1, 1),
        )
        base.update(overrides)
        return Instance(**base)

    def test_valid(self):
        inst = self.build()
        assert inst.k == 1

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(n=0, demand=()), "n must be"),
            (dict(root=3), "root"),
            (dict(demand=(1, 1)), "demand has"),
            (dict(demand=(1, -1, 1)), "negative"),
            (dict(demand=(1, -10**5000, 1)), "demand of vertex 1 is negative: -1000"),
            (dict(demand=(1, Fraction(-1, 10**5000), 1)), "is negative: -1/1000"),
            (dict(demand=(1, 0.5, 1)), "exact"),
            (dict(demand=(1, INF, 1)), "demand of vertex 1 must be an exact"),
            (dict(demand=(1, float("inf"), 1)), "demand of vertex 1 must be an exact"),
            (dict(edges=(Edge(0, 0, Fixed(1)),)), "self-loop"),
            (dict(edges=(Edge(0, 3, Fixed(1)),)), "out of range"),
            (dict(edges=(Edge(0, 1, Fixed(0)),)), "> 0"),
            (dict(edges=(Edge(0, 1, Fixed(-2)),)), "> 0"),
            (dict(edges=(Edge(0, 1, Fixed(0.5)),)), "exact"),
            (dict(edges=(Edge(0, 1, Fixed(INF)),)), "edge 0 cost must be an exact"),
            (dict(edges=(Edge(0, 1, Fixed(float("inf"))),)), "edge 0 cost must be an exact"),
            (
                dict(edges=(Edge(0, 1, Priceable(1)), Edge(1, 2, Priceable(1)))),
                "duplicate priceable",
            ),
            (
                dict(edges=(Edge(0, 1, Priceable(1)), Edge(1, 2, Priceable(3)))),
                "exactly 1..k",
            ),
            (dict(edges=(Edge(0, 1, Priceable(0)),)), "exactly 1..k"),
            (dict(edges=(Edge(0, 1, Priceable("1")),)), "edge 0 priceable label must be an int"),
            (dict(edges=(Edge(0, 1, Priceable(True)),)), "edge 0 priceable label must be an int"),
            (dict(edges=(Edge(0, 1, "F 1"),)), "edge 0 has unknown kind 'F 1'"),
            (dict(edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, Fixed(True)))), "edge 1 cost must be an exact"),
            (dict(edges=(Edge(0, 1, Fixed(1)), Edge(1, 2, _ZERO), Edge(0, 2, _ZERO))), "edge 1 cost must be > 0"),
        ],
    )
    def test_invalid(self, overrides, fragment):
        with pytest.raises(ValidationError) as err:
            self.build(**overrides)
        assert fragment in str(err.value)

    def test_k_cap(self):
        n = 20
        edges = tuple(Edge(i, i + 1, Priceable(i + 1)) for i in range(17))
        with pytest.raises(ValidationError) as err:
            Instance(n=n, root=0, edges=edges, demand=(1,) * n)
        assert "cap" in str(err.value)

    def test_single_vertex(self):
        inst = Instance(n=1, root=0, edges=(), demand=(1,))
        assert inst.m == 0 and inst.k == 0

    def test_list_input_is_kept_as_tuples(self):
        listed = Instance(n=3, root=0, edges=[Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1))],
                          demand=[1, 1, 1])
        tupled = self.build()
        assert type(listed.edges) is tuple and type(listed.demand) is tuple
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_tuple_input_is_kept_as_given(self):
        edges, demand = (Edge(0, 1, Fixed(1)), Edge(1, 2, Priceable(1))), (1, 1, 1)
        inst = self.build(edges=edges, demand=demand)
        assert inst.edges is edges and inst.demand is demand


class _CountingEdges(tuple):
    """The edges of an instance, counting every read of them."""

    reads = 0

    def __iter__(self):
        type(self).reads += 1
        return super().__iter__()

    def __getitem__(self, j):
        type(self).reads += 1
        return super().__getitem__(j)

    def __len__(self):
        type(self).reads += 1
        return super().__len__()


class TestLayout:
    def test_built_with_the_instance(self):
        inst = Instance(n=3, root=0, demand=(1, 1, 1), edges=(
            Edge(1, 2, Fixed(Fraction(1, 2))), Edge(0, 1, Priceable(1)), Edge(0, 2, Fixed(3))))
        starts, heads, epos, costs, priced, scale, cutoff = inst.__dict__["_layout"]
        assert starts == [0, 2, 3, 3] and heads == [1, 2, 2] and epos == [1, 2, 0]
        assert scale == 2 and cutoff == 8 and costs == [8, 6, 1] and priced == [0]

    def test_equality_hash_and_repr_ignore_it(self):
        a = parse_instance(SAMPLE)
        b = parse_instance(SAMPLE)
        object.__setattr__(b, "_layout", None)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_layout" not in repr(a)

    def test_replace_lays_out_afresh(self):
        inst = parse_instance(SAMPLE)
        again = dataclasses.replace(inst, demand=(0, 1, 1, 1))
        assert again._layout == inst._layout and again._layout is not inst._layout
        stretched = dataclasses.replace(inst, edges=inst.edges[:-1] + (Edge(0, 3, Fixed(Fraction(7, 4))),))
        assert stretched._layout[5] == 12 and stretched._layout[3] != inst._layout[3]

    def test_no_entry_point_reads_the_edges_after_construction(self):
        inst = random_instance(40, 160, 2, seed=5, demand_max=3)
        object.__setattr__(inst, "edges", _CountingEdges(inst.edges))
        _CountingEdges.reads = 0
        naive_revenue(inst, (3, 4))
        lex_dijkstra(inst, (3, 4), source=1)
        oracle = build_oracle(inst)
        oracle.revenue((3, 4))
        solve(inst)
        assert _CountingEdges.reads == 0 and inst.m == 160  # m reads the columns
        assert len(inst.edges) == 160 and _CountingEdges.reads == 1  # the wrapper does count

    def test_a_parsed_instance_builds_no_edge_view_until_read(self, monkeypatch, tmp_path):
        builds = []  # the names that reach Instance.__getattr__, which builds the view
        lookup = Instance.__getattr__
        monkeypatch.setattr(Instance, "__getattr__", lambda inst, name: builds.append(name) or lookup(inst, name))
        text = serialize_instance(random_instance(40, 160, 2, seed=5, demand_max=3))
        assert main(["gen", "--n", "40", "--m", "160", "--k", "2", "--seed", "5", "--demand-max", "3",
                     "--out", str(tmp_path / "gen.txt")]) == 0
        inst = parse_instance(text)
        oracle = build_oracle(inst)
        trees = {oracle.reduced_tree_for(p) for p in [(3, 4), (1, 1), (9, 2)]}
        oracle.warm_up(trees)
        assert oracle.revenue((3, 4)) == naive_revenue(inst, (3, 4))
        solve(inst)
        assert verify_oracle(inst, 20, 1, oracle=oracle).passed
        spt = lex_dijkstra(inst, (3, 4))
        assert reduced_tree_of_spt(inst, spt) == oracle.reduced_tree_for((3, 4))
        assert len(last_priceable_labels(inst, spt)) == inst.n
        assert serialize_instance(inst) == text == (tmp_path / "gen.txt").read_text()
        assert builds == []
        assert inst.edges is inst.edges and builds == ["edges"]  # built once, then kept
        assert inst.edges == random_instance(40, 160, 2, seed=5, demand_max=3).edges


# cost spellings, several per value, so tokens repeat and payloads are shared
_COST_TOKENS = ["1", "2", "3", "0.5", "1/2", "2/4", "7/3", "2.25", "10", "4/2"]
_DEMAND_TOKENS = ["0", "1", "2", "1/3", "0.25"]


def _exact(token):
    """The value a scalar literal spells: an int when it is integral."""
    value = Fraction(token)
    return value.numerator if value.denominator == 1 else value


@st.composite
def instance_texts(draw):
    """(text, built): instance text with comments, blank lines, demand lines
    among the edge lines and int, decimal and ratio costs, and the instance
    built from the same edges as ``Edge`` objects."""
    n = draw(st.integers(min_value=2, max_value=7))
    root = draw(st.integers(min_value=0, max_value=n - 1))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=14))
    pairs = [(u, (u + d) % n) for u, d in pairs]  # head != tail
    k = draw(st.integers(min_value=0, max_value=min(3, len(pairs))))
    labels = draw(st.permutations(range(len(pairs))))[:k]
    label_of = {pos: i for i, pos in enumerate(labels, start=1)}
    edges, lines = [], []
    for pos, (u, v) in enumerate(pairs):
        if pos in label_of:
            edges.append(Edge(u, v, Priceable(label_of[pos])))
            lines.append(f"edge {u} {v} P {label_of[pos]}")
        else:
            token = draw(st.sampled_from(_COST_TOKENS))
            edges.append(Edge(u, v, Fixed(_exact(token))))
            lines.append(f"edge {u} {v} F {token}")
    demand = [1] * n
    for v in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        token = draw(st.sampled_from(_DEMAND_TOKENS))
        demand[v] = _exact(token)
        lines.insert(draw(st.integers(0, len(lines))), f"demand {v} {token}")
    text = ["# drawn instance", "", "stackspt 1", f"graph {n} {len(pairs)} {k}  # n m k", f"root {root}"]
    for line in lines:
        text.append(line + draw(st.sampled_from(["", "  # note", "#"])))
        text += draw(st.sampled_from([[], [""], ["# between"], ["", "   "]]))
    built = Instance(n=n, root=root, edges=tuple(edges), demand=tuple(demand))
    return "\n".join(text) + "\n", built


class TestParsedEqualsBuilt:
    @given(instance_texts())
    def test_parsed_instance_equals_the_built_one(self, drawn):
        text, built = drawn
        parsed = parse_instance(text)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed._layout == built._layout
        assert parsed.edges == built.edges and parsed.priceable == built.priceable
        assert repr(parsed) == repr(built)
        assert parse_instance(serialize_instance(built)) == parsed

    def test_two_faults_report_the_first_edge(self):
        body = ["edge 0 1 F 1", "edge 1 2 F 1", "edge 2 0 F 1", "edge 2 2 F 1", "edge 0 2 F 1",
                "edge 1 9 F 1"]
        text = "stackspt 1\ngraph 3 6 0\nroot 0\n" + "\n".join(body) + "\n"
        with pytest.raises(ValidationError) as parsed:
            parse_instance(text)
        edges = [Edge(int(u), int(v), Fixed(1)) for _, u, v, _, _ in map(str.split, body)]
        with pytest.raises(ValidationError) as built:
            Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
        assert str(parsed.value) == str(built.value) == "edge 3 is a self-loop at vertex 2"

    def test_a_shared_bad_cost_names_its_first_edge(self):
        # edges 3 and 7 share one Fixed(0) payload; edge 5 is a self-loop
        body = ["edge 0 1 F 1", "edge 1 2 F 1", "edge 2 0 F 1", "edge 0 2 F 0", "edge 1 0 F 1",
                "edge 2 2 F 1", "edge 2 1 F 1", "edge 1 2 F 0"]
        text = "stackspt 1\ngraph 3 8 0\nroot 0\n" + "\n".join(body) + "\n"
        with pytest.raises(ValidationError) as parsed:
            parse_instance(text)
        payloads = {cost: Fixed(int(cost)) for cost in "01"}
        edges = [Edge(int(u), int(v), payloads[c]) for _, u, v, _, c in map(str.split, body)]
        assert edges[3].kind is edges[7].kind
        with pytest.raises(ValidationError) as built:
            Instance(n=3, root=0, edges=edges, demand=(1, 1, 1))
        assert str(parsed.value) == str(built.value) == "edge 3 cost must be > 0, got 0"


class TestPriceFunction:
    def test_parse(self):
        pf = PriceFunction.parse("3, 5/2 0.5", k=3)
        assert pf.values == (3, Fraction(5, 2), Fraction(1, 2))
        assert pf.price(1) == 3
        assert str(pf) == "3 5/2 1/2"

    def test_normalizes_integral_fractions(self):
        pf = PriceFunction((Fraction(4, 2),))
        assert pf.values == (2,)
        assert isinstance(pf.values[0], int)

    def test_rejects(self):
        with pytest.raises(ValidationError):
            PriceFunction((0,))
        with pytest.raises(ValidationError):
            PriceFunction((-1,))
        with pytest.raises(ValidationError):
            PriceFunction((0.5,))
        for bad in (INF, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="must be an int or Fraction, got float"):
                PriceFunction((bad,))
        with pytest.raises(ValidationError):
            PriceFunction.parse("1 2", k=3)
        with pytest.raises(ParseError):
            PriceFunction.parse("1 two", k=2)


def _bfs_reachable(inst):
    seen = {inst.root}
    frontier = [inst.root]
    while frontier:
        u = frontier.pop()
        for v in (e.head for e in inst.edges if e.tail == u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


# sha256 of test_serialized_output_is_unchanged's grid, as serialized before
# instances kept their edges as columns
GRID_DIGEST = "e419a87f55ba77b64ad8daa5db33366207ba4ac9b0d7f2cc5e53cd466a3a3f5f"


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(15, 40, 3, seed=11, demand_max=4)
        b = random_instance(15, 40, 3, seed=11, demand_max=4)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)
        c = random_instance(15, 40, 3, seed=12, demand_max=4)
        assert a != c

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_generated_instances_are_valid_and_reachable(self, n, extra, k, seed):
        m = 0 if n == 1 else (n - 1) + extra
        k = min(k, m - (n - 1))
        inst = random_instance(n, m, k, seed=seed, demand_max=3)
        assert inst.n == n and inst.m == m and inst.k == k
        assert _bfs_reachable(inst) == set(range(n))
        # the fixed edges alone must already span the graph
        fixed_adj = [[] for _ in range(n)]
        for e in inst.edges:
            if isinstance(e.kind, Fixed):
                fixed_adj[e.tail].append(e.head)
        seen, stack = {inst.root}, [inst.root]
        while stack:
            for v in fixed_adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert seen == set(range(n))
        # round-trip while we are here
        assert parse_instance(serialize_instance(inst)) == inst

    def test_serialized_output_is_unchanged(self):
        """One digest over a grid of generator arguments, recorded when the
        generator and the serializer still built ``Edge`` objects."""
        digest = hashlib.sha256()
        for n, extra in [(1, 0), (2, 0), (2, 3), (5, 3), (17, 40), (64, 40), (64, 200)]:
            m = 0 if n == 1 else n - 1 + extra
            for k in range(min(3, extra) + 1):
                for seed in (0, 7, 123456789):
                    for cost_max, demand_max in ((1, 1), (10, 1), (10**30, 5), (3, 0)):
                        inst = random_instance(n, m, k, seed=seed, cost_max=cost_max, demand_max=demand_max)
                        digest.update(serialize_instance(inst).encode())
        assert digest.hexdigest() == GRID_DIGEST

    def test_infeasible_parameters(self):
        with pytest.raises(ValidationError):
            random_instance(5, 3, 0, seed=1)
        with pytest.raises(ValidationError):
            random_instance(5, 6, 7, seed=1)
        with pytest.raises(ValidationError):
            random_instance(0, 0, 0, seed=1)
        with pytest.raises(ValidationError):
            random_instance(5, 6, 2, seed=1, cost_max=0)
        with pytest.raises(ValidationError, match=r"^a single-vertex instance admits no edges"):
            random_instance(1, 1, 0, seed=1)
        with pytest.raises(ValidationError, match=r"^k = 17 exceeds the cap of 16$"):
            random_instance(20, 40, 17, seed=1)
