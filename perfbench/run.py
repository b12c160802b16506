"""SEA benchmark: one workload per process, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady-serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric.  Human-readable lines
come first; the last line of standard output is the JSON result.  The
exit code is 1 when an exact answer disagrees with the oracle, and 2
when the program cannot be imported or the run itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def main(argv=None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program under test is the checkout's own src/, never an
    # installed copy.
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        print(f"no program source at {source}", file=sys.stderr)
        return 2
    try:
        import repro
    except Exception:
        traceback.print_exc()
        return 2
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(f"imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    from perfbench.harness import run_traced, run_untraced

    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
            result = run_traced(args.workload, args.seed, args.seconds, trace_path)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 2

    for name, (value, unit) in result.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, value in result.notes.items():
        print(f"{name:32s} {value:14.6g}  (diagnostic)")
    for line in result.mismatches[:20]:
        print(f"MISMATCH {line}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
