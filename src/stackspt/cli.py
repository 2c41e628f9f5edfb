"""Command line interface.

Subcommands: ``gen`` (random instances), ``eval`` (revenue of a price
vector), ``solve`` (candidate sweep), ``verify`` (fast-vs-naive
cross-checks), ``bench`` (doubling benchmark).  Exit codes: 0 on success,
1 when a semantic check fails (a verify counterexample, an ``eval --naive``
mismatch), 2 for usage, parse, and validation errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import instance
from .bench import format_csv, parse_sizes, run_bench
from .errors import ParseError, StacksptError, ValidationError
from .instance import (
    Instance,
    PriceFunction,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .oracle import build_oracle
from .rational import format_scalar
from .shortest import naive_revenue
from .solver import parse_candidates, solve, verify_oracle

__all__ = ["entry", "main"]


def _read_text(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValidationError("gen requires at least one priceable edge (--k >= 1)")
    inst = random_instance(
        args.n,
        args.m,
        args.k,
        seed=args.seed,
        cost_max=args.cost_max,
        demand_max=args.demand_max,
    )
    _write_text(args.out, serialize_instance(inst))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    prices = PriceFunction.parse(args.prices, inst.k)
    oracle = build_oracle(inst)
    value = oracle.revenue(prices)
    print(format_scalar(value))
    if args.explain:
        _rt, rows = oracle.revenue_breakdown(prices)
        for label, price, served in rows:
            print(f"edge {label} price {format_scalar(price)} served {format_scalar(served)}")
    if args.naive:
        check = naive_revenue(inst, prices)
        print(f"naive {format_scalar(check)}")
        if check != value:
            print(
                f"MISMATCH: fast {format_scalar(value)} != naive {format_scalar(check)}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    cands = None
    if args.candidates is not None:
        cands = parse_candidates(_read_text(args.candidates), inst.k)
    result = solve(inst, cands)
    print(f"prices {result.best_price}")
    print(f"revenue {format_scalar(result.best_revenue)}")
    print(f"evaluations {result.evaluations}")
    return 0


def _verify_targets(args: argparse.Namespace) -> list[tuple[str, Instance]]:
    if args.instance is not None:
        return [(Path(args.instance).name, _read_instance(args.instance))]
    k_cap = instance.MAX_PRICEABLE_EDGES
    if args.instances < 1 or args.n_max < 3 or not 2 <= args.k_max <= k_cap:
        raise ValidationError(f"need --instances >= 1, --n-max >= 3, 2 <= --k-max <= {k_cap}")
    master = random.Random(args.seed)
    targets = []
    for idx in range(args.instances):
        n = master.randint(3, args.n_max)
        k = master.randint(2, args.k_max)
        extra = master.randint(k, k + 2 * n)
        inst = random_instance(
            n,
            (n - 1) + extra,
            k,
            seed=master.randrange(2**48),
            cost_max=args.cost_max,
            demand_max=args.demand_max,
        )
        targets.append((f"random-{idx}", inst))
    return targets


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.instance is None) == (not args.random):
        raise ValidationError("give exactly one of --instance PATH or --random")
    if args.trials < 1:
        raise ValidationError("need --trials >= 1")
    targets = _verify_targets(args)
    seeds = random.Random(args.seed ^ 0x5EED)
    if args.csv:
        print("instance,trial,ok,fast,naive")
    exit_code = 0
    for name, inst in targets:
        report = verify_oracle(inst, args.trials, seed=seeds.randrange(2**48))
        if args.csv:
            for trial, ok, fast, naive in report.rows:
                print(f"{name},{trial},{int(ok)},{format_scalar(fast)},{format_scalar(naive)}")
        else:
            bad = len(report.failures)
            print(f"{name}: {report.trials - bad}/{report.trials} ok")
        if not report.passed:
            exit_code = 1
            print(report.first_counterexample, file=sys.stderr)
    if not args.csv and exit_code == 0:
        print(f"all checks passed ({len(targets)} instance(s), {args.trials} trials each)")
    return exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    records = run_bench(
        parse_sizes(args.sizes),
        k=args.k,
        queries=args.queries,
        seed=args.seed,
        cost_max=args.cost_max,
        progress=lambda line: print(line, file=sys.stderr),
    )
    sys.stdout.write(format_csv(records))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackspt",
        description="Shortest-path-tree pricing: preprocess once, query revenues fast.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--m", type=int, required=True, help="number of edges")
    gen.add_argument("--k", type=int, required=True, help="number of priceable edges")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--cost-max", type=int, default=10)
    gen.add_argument("--demand-max", type=int, default=1)
    gen.add_argument("--out", default="-", help="output file, - for stdout")
    gen.set_defaults(func=_cmd_gen)

    ev = sub.add_parser("eval", help="revenue of one price vector")
    ev.add_argument("--instance", required=True, help="instance file")
    ev.add_argument("--prices", required=True, help="comma- or space-separated prices")
    ev.add_argument("--naive", action="store_true", help="cross-check against the direct sweep")
    ev.add_argument(
        "--explain", action="store_true",
        help="one line per reduced-tree edge: label, route price, served demand",
    )
    ev.set_defaults(func=_cmd_eval)

    so = sub.add_parser("solve", help="sweep candidate prices for the best revenue")
    so.add_argument("--instance", required=True, help="instance file")
    so.add_argument("--candidates", help="candidate file (defaults to the breakpoint heuristic)")
    so.set_defaults(func=_cmd_solve)

    ve = sub.add_parser("verify", help="cross-check fast evaluation against first principles")
    ve.add_argument("--instance", help="instance file to verify")
    ve.add_argument("--random", action="store_true", help="verify a fleet of random instances")
    ve.add_argument("--trials", type=int, default=100)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--csv", action="store_true", help="per-trial CSV on stdout")
    ve.add_argument("--instances", type=int, default=10, help="random fleet size")
    ve.add_argument("--n-max", type=int, default=30)
    ve.add_argument("--k-max", type=int, default=3)
    ve.add_argument("--cost-max", type=int, default=10)
    ve.add_argument("--demand-max", type=int, default=3)
    ve.set_defaults(func=_cmd_verify)

    be = sub.add_parser("bench", help="doubling benchmark, CSV on stdout")
    be.add_argument("--sizes", required=True, help="e.g. 2^10,2^11,2^12 or 1024 2048")
    be.add_argument("--k", type=int, default=2)
    be.add_argument("--queries", type=int, default=200)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--cost-max", type=int, default=10)
    be.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StacksptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
