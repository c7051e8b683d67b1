"""The repository benchmark: one command, three workloads (see README.md).

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 30 --trace 0

``--trace 0`` is the timed pass: it prints every end-to-end metric of
BENCHMARK.json.  ``--trace 1`` is the separate traced pass: it prints every
per-layer metric; a layer the workload does not exercise reads 0.  Either
way the program's outputs are checked, the named metrics are printed one per
line, and the last line of stdout is the JSON result.  A run that cannot
measure (no source tree, a program that will not start) exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

import common
from common import BenchError, Outcome


def _workloads():
    import bench_subset
    import infer_large
    import serve_small

    return {
        "serve-small": serve_small,
        "infer-large": infer_large,
        "bench-subset": bench_subset,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        common.require_source_tree()
        spec = common.load_spec()
        workloads = _workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}")
        module = workloads[args.workload]
        outcome = Outcome()
        with common.RunDir(args.workload) as run:
            if args.trace:
                specs = spec["per_layer"]
                module.run_traced(run, args.seed, args.seconds, outcome)
                for metric in specs:
                    # A layer this workload does not run did no work.
                    outcome.metrics.setdefault(metric["name"], 0.0)
            else:
                specs = spec["end_to_end"]
                module.run_timed(run, args.seed, args.seconds, outcome)
        for problem in outcome.problems:
            print(f"check failed: {problem}", flush=True)
        result = outcome.report(specs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
