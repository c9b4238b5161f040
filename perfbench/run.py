#!/usr/bin/env python3
"""Benchmark of the flowseg package: one workload, one run, one result.

    python3 perfbench/run.py --workload flow-bound-w3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seconds 10

Run it from the root of a source checkout: the package is imported from
the checkout's ``src/`` directory and nowhere else. A run generates its
input video from ``--seed``, sets it up several times, then runs closed-loop
samples on one thread for ``--seconds`` (and at least three passes over the
video), checking every output. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced samples and prints the per-layer metrics.
The last line of standard output is the JSON result. ``--all`` runs every
workload in both modes, each in its own process, and prints one table.
See perfbench/README.md for the metrics and the reasons for each workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread per workload, fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"


def _import_flowseg():
    src = ROOT / "src"
    if not (src / "flowseg" / "__init__.py").is_file():
        sys.exit(f"run.py: no flowseg sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import flowseg

    if Path(flowseg.__file__).resolve().parent != (src / "flowseg").resolve():
        sys.exit(f"run.py: imported flowseg from {flowseg.__file__}, not from {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload in both modes, one table")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in both modes, one process each; print one table."""
    from workloads import WORKLOADS

    columns, rows, status = list(WORKLOADS), {}, 0
    for name in columns:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            status |= not result["correct"]
            rows.setdefault("error_rate", ("ratio", {}))[1][name] = result["failed"] / result["attempted"]
            for key, metric in result["metrics"].items():
                rows.setdefault(key, (metric["unit"], {}))[1][name] = metric["value"]
    print(f"{'metric':32s} {'unit':>6s} " + " ".join(f"{c:>14s}" for c in columns))
    for key, (unit, values) in rows.items():
        cells = " ".join(f"{values[c]:>14.6g}" if c in values else f"{'-':>14s}" for c in columns)
        print(f"{key:32s} {unit:>6s} {cells}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        _import_flowseg()
        return run_all(args.seed, args.seconds)
    _import_flowseg()
    from bench import run_workload

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), RUNS_DIR)


if __name__ == "__main__":
    sys.exit(main())
