#!/usr/bin/env python3
"""Seed sweep: distribution of reconstruction error for both pipelines.

Runs the two-stage (EM + hard counts) and collapsed-bilevel (soft, true
mixture) pipelines over a range of seeds and prints median / 90th
percentile Frobenius error to the reference state, plus EM parameter
deviations.  Useful for checking the stochastic acceptance margins.
"""

import argparse

import numpy as np

from iqtomo import AXES, bilevel_qst, em_fit, frobenius_distance
from iqtomo.cli import DEFAULT_MIXTURE, REFERENCE_STATE, RunConfig, simulate_datasets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--n", type=int, default=10_000, help="shots per axis")
    args = parser.parse_args()

    two_stage, collapsed, mean_dev, cov_dev = [], [], [], []
    for seed in range(args.start, args.start + args.seeds):
        datasets = simulate_datasets(RunConfig(seed=seed, n_per_axis=args.n))
        dx, dy, dz = (datasets[axis] for axis in AXES)
        theta = {axis: em_fit(datasets[axis]) for axis in AXES}
        for theta_hat in theta.values():
            for comp, truth in (
                (theta_hat.zero, DEFAULT_MIXTURE.zero),
                (theta_hat.one, DEFAULT_MIXTURE.one),
            ):
                mean_dev.append(float(np.abs(comp.mean - truth.mean).max()))
                cov_dev.append(float(np.linalg.norm(comp.cov - truth.cov)))
        hard = bilevel_qst(dx, dy, dz, theta, mode="hard")
        two_stage.append(frobenius_distance(hard.qst.rho, REFERENCE_STATE))
        soft = bilevel_qst(dx, dy, dz, DEFAULT_MIXTURE, mode="soft")
        collapsed.append(frobenius_distance(soft.qst.rho, REFERENCE_STATE))

    def line(name: str, values) -> None:
        arr = np.asarray(values)
        print(
            f"{name:<22} median={np.median(arr):.4f}  p90={np.quantile(arr, 0.9):.4f}"
            f"  max={arr.max():.4f}"
        )

    print(f"{args.seeds} seeds from {args.start}, n={args.n} per axis")
    line("two-stage error", two_stage)
    line("collapsed error", collapsed)
    line("EM |mu - mu*|_inf", mean_dev)
    line("EM |Sigma - I|_F", cov_dev)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
