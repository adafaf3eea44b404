"""Benchmark of rankprice: one workload, one process, one thread.

    python3 perfbench/run.py --workload vns-sfrc-60x50 --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads and their recorded values are in
``perfbench/workloads.json``; the metric definitions are in
``perfbench/README.md``. With ``--trace 0`` the run prints every end-to-end
metric, with ``--trace 1`` every per-layer metric; the last line of standard
output is always one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Scratch files go to ``.perfbench/`` in the repository root.
Exits with code 2, printing no result, when the rankprice sources are not
under ``src/``, and with code 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import inputs

SRC = inputs.ROOT / "src"
WORK = inputs.ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(inputs.load_spec()["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankprice" / "__init__.py").is_file():
        print(f"error: rankprice sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    measured = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    tally = measured.tally
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in measured.notes:
        print(f"  {note}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, failed_frac {tally.failed_frac:.4f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(f"  fingerprint {measured.fingerprint}")
    for name, unit in units.items():
        print(f"  {name:<50} {measured.metrics[name]:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": measured.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
