"""Layered benchmark of stackspt: end-to-end metrics, or per-layer ones when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload siblings-k3 --seed 1 --seconds 5 --trace 0

It imports the library from the checkout's ``src/`` (never from anywhere
else, and exits with code 2 if it is missing), builds the workload from the
seed, measures, checks every answer, prints a human-readable table on
stderr and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports ``metrics.END_TO_END``, measuring warm queries for
``--seconds`` in all; ``--trace 1`` reports ``metrics.PER_LAYER`` from one
traced pass and writes its spans under ``.bench_build/perfbench``.
``failed / attempted`` is the run's mismatch fraction; ``correct`` is true
only when it is 0.  The exit code is 0 for a correct run, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import endtoend
import layers
import workloads
from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def load_library():
    src = ROOT / "src"
    if not (src / "stackspt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import stackspt

    if Path(stackspt.__file__).resolve().parent != (src / "stackspt").resolve():
        return None
    return stackspt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spt = load_library()
    if spt is None:
        print(f"perfbench: no stackspt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        trace_path = ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        checks, values = layers.run(spt, workload, trace_path)
        units = PER_LAYER
    else:
        checks, values = endtoend.run(spt, workload, args.seconds)
        units = END_TO_END

    mismatch = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{args.workload} seed {args.seed}: {checks.attempted} checks, "
          f"mismatch_frac {mismatch:.6g} ratio", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit}", file=sys.stderr)

    correct = checks.attempted > 0 and checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
