"""Benchmark entry point for the iqtomo pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tomo_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 1

One workload runs per process, so its peak RSS is its own; ``--all`` runs
every workload, each in its own child process.  The package is imported
from ``src/`` of the checkout; without it the run fails with exit code 2.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# BLAS and OpenMP pools read these once, when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tomo_sweep", "qhi_sampled", "channel_fit", "dataset_files")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, required=True, help="base seed; op i uses seed + i")
    parser.add_argument("--seconds", type=float, required=True, help="wall time of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead of a timed loop")
    parser.add_argument("--tiny", action="store_true", help="shrink inputs (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --ops >= 1")
    return args


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"workload {name} failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"detail"')))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "iqtomo" / "__init__.py").is_file():
        print(f"error: no iqtomo sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import iqtomo

    if Path(iqtomo.__file__).resolve().parent != SRC / "iqtomo":
        print(f"error: imported iqtomo from {iqtomo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    result = harness.run(args.workload, str(ROOT), args.seed, args.seconds, bool(args.trace), args.tiny, args.ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
