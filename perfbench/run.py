"""Benchmark of the latentchat desk lab: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run wraps each module boundary in spans and reports the per-layer ones.
Workloads, metrics and reference figures are described in README.md.
"""

import argparse
import json
import os
import sys

import fixture


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-narrow", "train-wide", "decode-eval"))
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the workload's synthetic corpus")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time, shared among the phases")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(fixture.SRC, "latentchat", "__init__.py")):
        print(f"error: no latentchat package under {fixture.SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    fixture.pin_threads()
    sys.path.insert(0, fixture.SRC)
    import workloads

    correct, attempted, failed, metrics = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
