"""Instance model, text format, and the random generator."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
            (dict(demand=(1, 0.5, 1)), "exact"),
            (dict(edges=(Edge(0, 0, Fixed(1)),)), "self-loop"),
            (dict(edges=(Edge(0, 3, Fixed(1)),)), "out of range"),
            (dict(edges=(Edge(0, 1, Fixed(0)),)), "> 0"),
            (dict(edges=(Edge(0, 1, Fixed(-2)),)), "> 0"),
            (dict(edges=(Edge(0, 1, Fixed(0.5)),)), "exact"),
            (
                dict(edges=(Edge(0, 1, Priceable(1)), Edge(1, 2, Priceable(1)))),
                "duplicate priceable",
            ),
            (
                dict(edges=(Edge(0, 1, Priceable(1)), Edge(1, 2, Priceable(3)))),
                "exactly 1..k",
            ),
            (dict(edges=(Edge(0, 1, Priceable(0)),)), "exactly 1..k"),
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

    def test_infeasible_parameters(self):
        with pytest.raises(ValidationError):
            random_instance(5, 3, 0, seed=1)
        with pytest.raises(ValidationError):
            random_instance(5, 6, 7, seed=1)
        with pytest.raises(ValidationError):
            random_instance(0, 0, 0, seed=1)
        with pytest.raises(ValidationError):
            random_instance(5, 6, 2, seed=1, cost_max=0)
