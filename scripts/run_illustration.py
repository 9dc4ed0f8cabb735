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

import numpy as np

from iqtomo import (
    AXES,
    bilevel_qst,
    delta_b,
    em_fit,
    frobenius_distance,
    hard_b,
    qst_closed_form,
    save_dataset,
    tomography_report,
)
from iqtomo.cli import (
    DEFAULT_MIXTURE,
    REFERENCE_STATE,
    RunConfig,
    render_iq_svg,
    simulate_datasets,
    write_text_atomic,
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=10_000, help="shots per axis")
    parser.add_argument("--out", help="optional artifact directory")
    args = parser.parse_args(argv)

    cfg = RunConfig(seed=args.seed, n_per_axis=args.n)
    datasets = simulate_datasets(cfg)

    dx, dy, dz = (datasets[axis] for axis in AXES)
    theta = {axis: em_fit(datasets[axis]) for axis in AXES}
    hard = bilevel_qst(dx, dy, dz, theta, mode="hard")
    soft = bilevel_qst(dx, dy, dz, DEFAULT_MIXTURE, mode="soft")
    counts = [datasets[axis].truth_counts()[:2] for axis in AXES]
    results = {
        "truth_counts": qst_closed_form(
            np.asarray([hard_b(n0, n1) for n0, n1 in counts]),
            delta=np.asarray([delta_b(n0, n1) for n0, n1 in counts]),
        ),
        "em_hard": hard.qst,
        "soft_collapsed": soft.qst,
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
            save_dataset(datasets[axis], os.path.join(args.out, f"iq_{axis}.jsonl"))
            write_text_atomic(
                os.path.join(args.out, f"iq_{axis}.svg"), render_iq_svg(datasets[axis])
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
