#!/usr/bin/env python3
"""Seed sweep: distribution of reconstruction error for both pipelines.

Runs the two-stage (EM + hard counts) and collapsed-bilevel (soft, true
mixture) pipelines over a range of seeds and prints median / 90th
percentile Frobenius error to the reference state, plus EM parameter
deviations and iteration counts (with how many fits stopped at the
iteration cap).  Useful for checking the stochastic acceptance margins.
"""

import argparse
from typing import Optional

import numpy as np

from iqtomo.discriminate import EM_MAX_ITER
from iqtomo.repro import DEFAULT_MIXTURE, reconstruct_seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_positive_int, default=20, help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--n", type=_positive_int, default=10_000, help="shots per axis")
    args = parser.parse_args(argv)

    errors, mean_dev, cov_dev, iterations = [], [], [], []
    for seed in range(args.start, args.start + args.seeds):
        run = reconstruct_seed(seed, args.n)
        iterations.extend(run.em_iterations.values())
        for theta_hat in run.em.values():
            for comp, truth in (
                (theta_hat.zero, DEFAULT_MIXTURE.zero),
                (theta_hat.one, DEFAULT_MIXTURE.one),
            ):
                mean_dev.append(float(np.abs(comp.mean - truth.mean).max()))
                cov_dev.append(float(np.linalg.norm(comp.cov - truth.cov)))
        errors.append(run.errors)
    two_stage, collapsed = zip(*errors)

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
    counts = np.asarray(iterations)
    print(
        f"{'EM iterations':<22} median={np.median(counts):g}  p90={np.quantile(counts, 0.9):g}"
        f"  max={counts.max()}  at max_iter={EM_MAX_ITER}: {np.count_nonzero(counts == EM_MAX_ITER)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
