"""Problem instances and their text format.

An instance is a directed multigraph with a root, per-vertex demand, and two
kinds of edges: fixed-cost edges the leader cannot touch, and priceable edges
labeled 1..k whose prices the leader sets.  Followers at each vertex buy their
shortest route from the root, paying the prices on it.

The text format is line-oriented::

    stackspt 1
    graph <n> <m> <k>
    root <r>
    demand <v> <phi>        # optional, default demand is 1
    edge <u> <v> F <cost>   # fixed-cost edge
    edge <u> <v> P <i>      # priceable edge with label i

``#`` starts a comment, blank lines are ignored, and numeric literals are
integers, exact decimals, or ``a/b`` ratios.

The parser costs little per edge: an integer literal becomes an ``int``
without a ``Fraction`` on the way (``parse_scalar``), and every distinct cost
token yields one ``Fixed`` payload that all edges spelling it share (payloads
are frozen).  Validation checks every edge, so an error names the first edge
with a bad payload, and then lays out the slots that every sweep reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from math import lcm
from typing import Iterable, Union

from .errors import ParseError, ValidationError
from .rational import FINITE_TYPES, Scalar, ensure_scalar, format_scalar, parse_scalar

__all__ = [
    "MAX_PRICEABLE_EDGES",
    "MAX_VERTICES",
    "MAX_EDGES",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "Fixed",
    "Priceable",
    "Edge",
    "Instance",
    "PriceFunction",
    "parse_instance",
    "serialize_instance",
    "random_instance",
]

# Cap on the number of priceable edges accepted at validation time.  Point
# dimensions and signature values grow with k, so raising this is a deliberate
# act, not a tuning knob.
MAX_PRICEABLE_EDGES = 16

# Cap on the vertex count a parsed header (and a ``bench`` size) may declare.
# The parser allocates per-vertex tables from the header before it has seen a
# single edge, so an unchecked ``graph <n> ...`` line could ask for terabytes.
# 2^20 is eight times the largest size the acceptance benchmark runs (2^17).
MAX_VERTICES = 1 << 20

# Cap on the edges ``random_instance`` generates: the m = 4n of ``bench`` at the
# vertex cap.  The parser needs none; it never allocates from the header's m,
# and it stops at the first edge line past m.
MAX_EDGES = 4 * MAX_VERTICES

FORMAT_MAGIC = "stackspt"
FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Fixed:
    """Fixed-cost edge payload; the cost is exact and strictly positive."""

    cost: Scalar


@dataclass(frozen=True, slots=True)
class Priceable:
    """Priceable edge payload; ``index`` is the 1-based label."""

    index: int


@dataclass(frozen=True, slots=True)
class Edge:
    tail: int
    head: int
    kind: Union[Fixed, Priceable]


@dataclass(frozen=True)
class Instance:
    """A validated pricing instance.

    Attributes:
        n: number of vertices, identified as 0..n-1.
        root: the followers' common source vertex.
        edges: all edges in file order, as a tuple (parallel edges are allowed).
        demand: per-vertex demand, a length-n tuple, each entry >= 0 and exact.
        k, priceable: the number of priceable edges, and those edges ordered
            by label, so ``priceable[i-1]`` is e_i; set by validation.
        _layout: the slot arrays every sweep reads, also set by validation:
            (starts, heads, epos, costs, priced, scale, cutoff).  Slots run
            per tail in edge order; ``epos[j]`` is slot j's position in
            ``edges``, ``priced[i-1]`` the slot of e_i.  Fixed costs are times
            ``scale``, the LCM of their denominators; a priceable slot costs
            ``cutoff``, one more than their total, so a fixed-only sweep can
            cross it: a distance below ``cutoff`` is a fixed-only route.
    """

    n: int
    root: int
    edges: tuple[Edge, ...]
    demand: tuple[Scalar, ...]
    k: int = field(init=False, repr=False, compare=False)
    priceable: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("edges", "demand"):  # a list would not hash; tuple() keeps a tuple as it is
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.root < self.n:
            raise ValidationError(f"root {self.root} out of range [0, {self.n})")
        if len(self.demand) != self.n:
            raise ValidationError(
                f"demand has {len(self.demand)} entries, expected n = {self.n}"
            )
        for v, phi in enumerate(self.demand):
            if isinstance(phi, bool) or not isinstance(phi, FINITE_TYPES):
                raise ValidationError(f"demand of vertex {v} must be an exact scalar")
            if phi < 0:
                raise ValidationError(f"demand of vertex {v} is negative: {format_scalar(phi)}")
        n, edges = self.n, self.edges
        by_label: dict[int, Edge] = {}
        counts = [0] * (n + 1)  # counts[u + 1]: u's out-edges
        for pos, e in enumerate(edges):
            tail, head, kind = e.tail, e.head, e.kind
            if not (0 <= tail < n and 0 <= head < n):
                raise ValidationError(f"edge {pos} endpoint out of range: {tail}->{head}")
            if tail == head:
                raise ValidationError(f"edge {pos} is a self-loop at vertex {tail}")
            if isinstance(kind, Fixed):
                c = kind.cost
                if isinstance(c, bool) or not isinstance(c, FINITE_TYPES):
                    raise ValidationError(f"edge {pos} cost must be an exact scalar")
                if c <= 0:
                    raise ValidationError(f"edge {pos} cost must be > 0, got {format_scalar(c)}")
            elif isinstance(kind, Priceable):
                i = kind.index
                if not isinstance(i, int) or isinstance(i, bool):
                    raise ValidationError(f"edge {pos} priceable label must be an int")
                if i in by_label:
                    raise ValidationError(f"duplicate priceable label {i}")
                by_label[i] = e
            else:
                raise ValidationError(f"edge {pos} has unknown kind {kind!r}")
            counts[tail + 1] += 1
        k = len(by_label)
        if by_label and (min(by_label) != 1 or max(by_label) != k):
            raise ValidationError(
                f"priceable labels must be exactly 1..k, got {sorted(by_label)}"
            )
        if k > MAX_PRICEABLE_EDGES:
            raise ValidationError(
                f"k = {k} exceeds the cap of {MAX_PRICEABLE_EDGES} priceable edges"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "priceable", tuple(by_label[i] for i in range(1, k + 1)))

        starts = list(accumulate(counts))
        fill = starts[:]
        m = len(edges)
        heads, epos, costs, priced = [0] * m, [0] * m, [0] * m, [0] * k
        for pos, e in enumerate(edges):
            j = fill[e.tail]
            fill[e.tail] = j + 1
            heads[j] = e.head
            epos[j] = pos
            kind = e.kind
            if isinstance(kind, Fixed):
                costs[j] = kind.cost
            else:
                priced[kind.index - 1] = j
        scale = lcm(*[c.denominator for c in set(costs)])
        if set(map(type, costs)) != {int}:  # any Fraction, even a Fraction(1) beside a 1
            costs = [c.numerator * (scale // c.denominator) for c in costs]
        cutoff = sum(costs) + 1
        for j in priced:
            costs[j] = cutoff
        object.__setattr__(self, "_layout", (starts, heads, epos, costs, priced, scale, cutoff))

    # -- derived views -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def source_of(self, i: int) -> int:
        return self.priceable[i - 1].tail

    def target_of(self, i: int) -> int:
        return self.priceable[i - 1].head


@dataclass(frozen=True)
class PriceFunction:
    """Strictly positive exact prices for the k priceable edges.

    ``values[i-1]`` is the price of the edge labeled i, checked by
    ``_checked_prices``, the one price check of the package.
    """

    values: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_prices(self.values))

    @classmethod
    def parse(cls, text: str, k: int | None = None) -> "PriceFunction":
        """Parse a comma- or whitespace-separated price list, of exactly ``k``
        prices when ``k`` is given."""
        parts = [t for t in text.replace(",", " ").split() if t]
        try:
            values = tuple(parse_scalar(t) for t in parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        prices = cls(values)
        if k is not None:
            _checked_prices(prices, k)  # the count alone: the values are checked
        return prices

    def price(self, i: int) -> Scalar:
        """Price of the edge labeled ``i`` (1-based)."""
        return self.values[i - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(format_scalar(p) for p in self.values)


def _checked_prices(prices: Union[PriceFunction, Iterable], k: int | None = None) -> tuple:
    """The values of a price vector, each an exact scalar > 0, and ``k`` of them
    when ``k`` is given.  A ``PriceFunction``'s values were checked when it was
    made; of others, an int needs only be > 0, anything else passes
    ``ensure_scalar`` first (a Fraction of denominator 1 becomes an int) and
    has its sign read off its numerator."""
    if isinstance(prices, PriceFunction):
        values = prices.values
    else:
        checked = []
        for pos, p in enumerate(prices):
            sign = p
            if type(p) is not int:
                try:
                    p = ensure_scalar(p, f"price {pos + 1}")
                except TypeError as exc:
                    raise ValidationError(str(exc)) from None
                sign = p.numerator  # a Fraction's sign, without its rich comparison
            if sign <= 0:
                raise ValidationError(f"price {pos + 1} must be > 0, got {format_scalar(p)}")
            checked.append(p)
        values = tuple(checked)
    if k is not None and len(values) != k:
        raise ValidationError(f"expected {k} prices, got {len(values)}")
    return values


# -- text format -----------------------------------------------------------


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _parse_cost(token: str, lineno: int, what: str) -> Scalar:
    try:
        return parse_scalar(token)
    except ValueError as exc:
        raise ParseError(f"bad {what}: {exc}", lineno) from None


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    Raises ``ParseError`` with a line number on malformed input and
    ``ValidationError`` when the parsed instance violates a semantic
    constraint (label gaps, nonpositive costs, ...).
    """
    lines = enumerate(text.splitlines(), start=1)
    header = []  # the first three non-blank lines: magic, graph, root
    for lineno, raw in lines:
        tokens = raw.partition("#")[0].split()
        if tokens:
            header.append((lineno, tokens))
            if len(header) == 3:
                break

    if not header:
        raise ParseError("empty input, expected magic line")
    lineno, tokens = header[0]
    if len(tokens) != 2 or tokens[0] != FORMAT_MAGIC:
        raise ParseError(f"expected '{FORMAT_MAGIC} {FORMAT_VERSION}' magic line", lineno)
    version = _parse_int(tokens[1], lineno, "format version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", lineno)

    if len(header) < 2:
        raise ParseError("missing 'graph' line")
    lineno, tokens = header[1]
    if tokens[0] != "graph" or len(tokens) != 4:
        raise ParseError("expected 'graph <n> <m> <k>'", lineno)
    n = _parse_int(tokens[1], lineno, "n")
    if n > MAX_VERTICES:
        raise ParseError(f"n must be <= MAX_VERTICES = {MAX_VERTICES}, got {n}", lineno)
    m = _parse_int(tokens[2], lineno, "m")
    k = _parse_int(tokens[3], lineno, "k")

    if len(header) < 3:
        raise ParseError("missing 'root' line")
    lineno, tokens = header[2]
    if tokens[0] != "root" or len(tokens) != 2:
        raise ParseError("expected 'root <r>'", lineno)
    root = _parse_int(tokens[1], lineno, "root")

    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", lineno)

    demand: list[Scalar] = [1] * n
    demand_seen: set[int] = set()
    edges: list[Edge] = []
    payloads: dict[str, Fixed] = {}  # one shared Fixed per distinct cost token

    for lineno, raw in lines:
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if tokens[0] == "edge":
            if len(edges) >= m:
                raise ParseError(f"header declares m = {m} edges, found more", lineno)
            if len(tokens) != 5:
                raise ParseError("expected 'edge <u> <v> F <cost>' or 'edge <u> <v> P <i>'", lineno)
            _, tail, head, tag, value = tokens
            try:
                u = int(tail)
            except ValueError:
                raise ParseError(f"edge tail must be an integer, got {tail!r}", lineno) from None
            try:
                v = int(head)
            except ValueError:
                raise ParseError(f"edge head must be an integer, got {head!r}", lineno) from None
            if tag == "F":
                kind = payloads.get(value)
                if kind is None:
                    kind = payloads[value] = Fixed(_parse_cost(value, lineno, "cost"))
            elif tag == "P":
                kind = Priceable(_parse_int(value, lineno, "priceable label"))
            else:
                raise ParseError(f"edge kind must be F or P, got {tag!r}", lineno)
            edges.append(Edge(u, v, kind))
        elif tokens[0] == "demand":
            if len(tokens) != 3:
                raise ParseError("expected 'demand <v> <phi>'", lineno)
            v = _parse_int(tokens[1], lineno, "vertex")
            if not 0 <= v < n:
                raise ParseError(f"demand vertex {v} out of range [0, {n})", lineno)
            if v in demand_seen:
                raise ParseError(f"duplicate demand line for vertex {v}", lineno)
            demand_seen.add(v)
            phi = _parse_cost(tokens[2], lineno, "demand")
            if phi < 0:
                raise ParseError(f"demand must be >= 0, got {phi}", lineno)
            demand[v] = phi
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)

    if len(edges) != m:
        raise ParseError(f"header declares m = {m} edges, found {len(edges)}")

    inst = Instance(n=n, root=root, edges=tuple(edges), demand=tuple(demand))
    if inst.k != k:
        raise ParseError(f"header declares k = {k} priceable edges, found {inst.k}")
    return inst


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; ``parse_instance`` inverts it exactly."""
    out = [f"{FORMAT_MAGIC} {FORMAT_VERSION}"]
    out.append("# demand defaults to 1")
    out.append(f"graph {inst.n} {inst.m} {inst.k}")
    out.append(f"root {inst.root}")
    for v, phi in enumerate(inst.demand):
        if phi != 1:
            out.append(f"demand {v} {format_scalar(phi)}")
    for e in inst.edges:
        if isinstance(e.kind, Fixed):
            out.append(f"edge {e.tail} {e.head} F {format_scalar(e.kind.cost)}")
        else:
            out.append(f"edge {e.tail} {e.head} P {e.kind.index}")
    return "\n".join(out) + "\n"


def random_instance(
    n: int,
    m: int,
    k: int,
    *,
    seed: int,
    cost_max: int = 10,
    demand_max: int = 1,
) -> Instance:
    """Generate a random instance whose fixed edges alone span the graph.

    The first n-1 edges form a random arborescence from vertex 0 and stay
    fixed, so every vertex keeps a priceable-free route from the root: revenue
    is bounded in the prices and no demand is ever stranded.  The remaining
    edges are uniform random non-loop edges (parallel edges allowed), k of
    which are made priceable with labels assigned in random order.  Costs are
    integers in [1, cost_max].  With ``demand_max <= 1`` every demand is 1;
    otherwise demands are integers in [0, demand_max].

    Deterministic for a fixed argument tuple.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValidationError(f"n must be <= MAX_VERTICES = {MAX_VERTICES}, got {n}")
    if m > MAX_EDGES:
        raise ValidationError(f"m must be <= MAX_EDGES = {MAX_EDGES}, got {m}")
    if m < n - 1:
        raise ValidationError(f"m = {m} cannot reach all {n} vertices (need >= {n - 1})")
    if n == 1 and m > 0:
        raise ValidationError("a single-vertex instance admits no edges (self-loops are forbidden)")
    if not 0 <= k <= m - (n - 1):
        raise ValidationError(
            f"k = {k} priceable edges do not fit: the first n-1 = {n - 1} edges "
            f"form the fixed skeleton, leaving {max(0, m - (n - 1))} of m = {m}"
        )
    if k > MAX_PRICEABLE_EDGES:
        raise ValidationError(f"k = {k} exceeds the cap of {MAX_PRICEABLE_EDGES}")
    if cost_max < 1:
        raise ValidationError(f"cost_max must be >= 1, got {cost_max}")

    rng = random.Random(seed)
    endpoints: list[tuple[int, int]] = []
    order = list(range(1, n))
    rng.shuffle(order)
    connected = [0]
    for v in order:
        u = connected[rng.randrange(len(connected))]
        endpoints.append((u, v))
        connected.append(v)
    while len(endpoints) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        endpoints.append((u, v))

    priceable_pos = rng.sample(range(n - 1, m), k)
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    label_at = dict(zip(priceable_pos, labels))

    edges = []
    for pos, (u, v) in enumerate(endpoints):
        if pos in label_at:
            edges.append(Edge(u, v, Priceable(label_at[pos])))
        else:
            edges.append(Edge(u, v, Fixed(rng.randint(1, cost_max))))

    if demand_max <= 1:
        demand: tuple[Scalar, ...] = (1,) * n
    else:
        demand = tuple(rng.randint(0, demand_max) for _ in range(n))

    return Instance(n=n, root=0, edges=tuple(edges), demand=demand)
