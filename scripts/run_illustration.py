#!/usr/bin/env python3
"""Single-seed walkthrough of the readout -> reconstruction pipeline.

Simulates the three per-axis I-Q datasets for the bundled reference state,
then reconstructs it three ways (truth counts, EM + hard two-stage, soft
collapsed bilevel) and prints the b table and Frobenius errors.  With
--out, also writes the datasets, SVG scatters, and reports.
"""

import argparse
import json
import os
from typing import Optional

from iqtomo import AXES, frobenius_distance, save_dataset, tomography_report
from iqtomo.plot import render_iq_svg
from iqtomo.readout import write_text_atomic
from iqtomo.repro import REFERENCE_STATE, reconstruct_seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=_seed, default=7)
    parser.add_argument("--n", type=_positive_int, default=10_000, help="shots per axis")
    parser.add_argument("--out", help="optional artifact directory")
    args = parser.parse_args(argv)

    run = reconstruct_seed(args.seed, args.n)
    results = {
        "truth_counts": run.truth_counts,
        "em_hard": run.two_stage,
        "soft_collapsed": run.collapsed,
    }

    print(f"seed={args.seed}  n={args.n} per axis")
    print(f"{'method':<16} {'b_x':>9} {'b_y':>9} {'b_z':>9} {'frob_err':>9}")
    for method, result in results.items():
        b = result.b_used.b
        err = frobenius_distance(result.rho, REFERENCE_STATE)
        print(f"{method:<16} {b[0]:>9.4f} {b[1]:>9.4f} {b[2]:>9.4f} {err:>9.4f}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for axis in AXES:
            save_dataset(run.datasets[axis], os.path.join(args.out, f"iq_{axis}.jsonl"))
            write_text_atomic(
                os.path.join(args.out, f"iq_{axis}.svg"), render_iq_svg(run.datasets[axis])
            )
        report = {
            method: tomography_report(result, reference=REFERENCE_STATE)
            for method, result in results.items()
        }
        write_text_atomic(
            os.path.join(args.out, "illustration.json"),
            json.dumps(report, indent=2, sort_keys=True),
        )
        print(f"artifacts written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
