"""Shared hypothesis strategies: random instances and price vectors."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from stackspt.instance import Edge, Fixed, Instance, Priceable, PriceFunction, random_instance
from stackspt.model import ROOT, ReducedTree


@st.composite
def instances(
    draw, min_n=1, max_n=8, max_extra=12, min_k=0, max_k=3, demand_max=3, cost_max=6
):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    # priceable edges live among the extra edges, so draw at least min_k of them
    extra = 0 if n == 1 else draw(st.integers(min_value=min_k, max_value=max(min_k, max_extra)))
    m = (n - 1) + extra
    k = draw(st.integers(min_value=min(min_k, extra), max_value=min(max_k, extra)))
    seed = draw(st.integers(min_value=0, max_value=2**48))
    return random_instance(n, m, k, seed=seed, cost_max=cost_max, demand_max=demand_max)


@st.composite
def fractional_cost_instances(draw, **kwargs):
    """``instances`` output with every fixed cost divided by 2, 3 or 7."""
    inst = draw(instances(**kwargs))
    edges = []
    for e in inst.edges:
        if isinstance(e.kind, Fixed):
            cost = Fraction(e.kind.cost, draw(st.sampled_from((2, 3, 7))))
            e = Edge(e.tail, e.head, Fixed(cost))
        edges.append(e)
    return Instance(n=inst.n, root=inst.root, edges=tuple(edges), demand=inst.demand)


@st.composite
def loose_instances(draw, max_n=6, max_m=10, max_k=4):
    """Arbitrary small edge lists with integer and Fraction costs.

    Unlike ``instances``, nothing keeps vertices reachable from the root, and
    on so few vertices priceable edges often share endpoints or run parallel.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    pairs = [(u, (u + d) % n) for u, d in draw(st.lists(pair, min_size=1, max_size=max_m))]
    k = draw(st.integers(min_value=0, max_value=min(max_k, len(pairs))))
    priced = draw(st.permutations(range(len(pairs))))[:k]
    label_at = {pos: i for i, pos in enumerate(priced, start=1)}
    cost = st.one_of(
        st.integers(min_value=1, max_value=6),
        st.builds(Fraction, st.integers(min_value=1, max_value=12), st.sampled_from((2, 3, 7))),
    )
    edges = tuple(
        Edge(u, v, Priceable(label_at[pos]) if pos in label_at else Fixed(draw(cost)))
        for pos, (u, v) in enumerate(pairs)
    )
    return Instance(n=n, root=0, edges=edges, demand=(1,) * n)


@st.composite
def reduced_trees(draw, max_k=7):
    """Valid reduced trees: each present edge hangs off ``ROOT`` or an edge
    placed before it, in a random placement order."""
    k = draw(st.integers(min_value=0, max_value=max_k))
    parents = [None] * k
    placed = []
    for label in draw(st.permutations(range(1, k + 1))):
        parents[label - 1] = draw(st.sampled_from([None, ROOT, *placed]))
        if parents[label - 1] is not None:
            placed.append(label)
    return ReducedTree(tuple(parents))


def scalar_prices(max_value=12):
    """Strictly positive exact scalars, small enough to collide often."""
    return st.one_of(
        st.integers(min_value=1, max_value=max_value),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=max_value * 2),
            st.integers(min_value=2, max_value=5),
        ),
    )


@st.composite
def priced_instances(draw, integer_only=False, fractional_costs=False, **kwargs):
    inst = draw((fractional_cost_instances if fractional_costs else instances)(**kwargs))
    if integer_only:
        price = st.integers(min_value=1, max_value=12)
    else:
        price = scalar_prices()
    values = draw(st.tuples(*([price] * inst.k)))
    return inst, PriceFunction(values)
