"""The bundled readout illustration: reference values and their reproduction.

The reference values are a target state, per-axis shot counts, per-method
expectation rows, the matrices reconstructed from them, and two recorded
distances inconsistent with those matrices (kept verbatim, flagged by
:func:`reproduce_paper`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .discriminate import ComponentParams, MixtureParams, delta_b, em_fit, hard_b
from .qcore import AXES, DensityMatrix, frobenius_distance
from .qst import QstResult, bilevel_qst, qst_closed_form
from .readout import IQDataset, simulate_datasets

REFERENCE_STATE = DensityMatrix(np.array([[0.056, 0.229j], [-0.229j, 0.944]]))

REFERENCE_COUNTS = {"x": (4996, 5004), "y": (2663, 7337), "z": (540, 9460)}

REFERENCE_B_ROWS = {
    "simulator": (-0.0006, -0.4674, -0.8920),
    "two_stage": (-0.0044, -0.4659, -0.8979),
    "joint": (-0.0004, -0.4480, -0.8913),
}

REFERENCE_RECONSTRUCTIONS = {
    "simulator": np.array(
        [[0.0571, -0.0003 + 0.2321j], [-0.0003 - 0.2321j, 0.9429]]
    ),
    "two_stage": np.array(
        [[0.0597, -0.0008 + 0.2274j], [-0.0008 - 0.2274j, 0.9403]]
    ),
    "joint": np.array(
        [[0.0544, -0.0002 + 0.2240j], [-0.0002 - 0.2240j, 0.9456]]
    ),
}

REFERENCE_DISTANCES = {"two_stage": 0.6455, "joint": 0.6406}

DEFAULT_MIXTURE = MixtureParams(
    zero=ComponentParams(0.5, np.array([2.5, 2.0]), np.eye(2)),
    one=ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2)),
    noise=None,
)


def truth_count_qst(datasets: Mapping[str, IQDataset]) -> QstResult:
    """Closed-form reconstruction from the generator's per-axis class counts,
    with the binomial ``delta_b`` of each count."""
    counts = [datasets[axis].truth_counts()[:2] for axis in AXES]
    return qst_closed_form(
        np.asarray([hard_b(n0, n1) for n0, n1 in counts]),
        delta=np.asarray([delta_b(n0, n1) for n0, n1 in counts]),
    )


@dataclass(frozen=True)
class SeedRun:
    """One seed of the reference run and its three reconstructions."""

    datasets: dict[str, IQDataset]
    em: dict[str, MixtureParams]
    truth_counts: QstResult
    two_stage: QstResult
    collapsed: QstResult

    @property
    def errors(self) -> tuple[float, float]:
        """Frobenius distances of (two-stage, collapsed) to the reference state."""
        return (
            frobenius_distance(self.two_stage.rho, REFERENCE_STATE),
            frobenius_distance(self.collapsed.rho, REFERENCE_STATE),
        )


def reconstruct_seed(seed: int, n: int = 10_000) -> SeedRun:
    """Simulate ``n`` shots per axis of the reference state and reconstruct it three ways."""
    datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, n, seed)
    dx, dy, dz = (datasets[axis] for axis in AXES)
    em = {axis: em_fit(datasets[axis]) for axis in AXES}
    return SeedRun(
        datasets=datasets,
        em=em,
        truth_counts=truth_count_qst(datasets),
        two_stage=bilevel_qst(dx, dy, dz, em, mode="hard").qst,
        collapsed=bilevel_qst(dx, dy, dz, DEFAULT_MIXTURE, mode="soft").qst,
    )


@dataclass(frozen=True)
class Reproduction:
    """Checks of the reference values, and what :func:`reproduce_paper` recomputed."""

    checks: list[dict]
    reconstructions: dict[str, DensityMatrix]
    b_table: dict[str, tuple[float, float, float]]
    em: dict[str, MixtureParams]


def _matrix_close(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    gap = float(np.abs(np.asarray(a) - np.asarray(b)).max())
    return gap <= tol, gap


def reproduce_paper(seed: int) -> Reproduction:
    """Check the reference values, and the end-to-end error over seeds ``seed`` .. ``seed + 4``.

    Each check has a ``status``: ``pass``, ``fail``, or ``flagged`` for a
    documented inconsistency of the reference values that is reported
    rather than reproduced.  ``em`` holds the per-axis EM fits of ``seed``.
    """
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: dict, flagged: bool = False) -> None:
        status = "flagged" if flagged and ok else ("pass" if ok else "fail")
        checks.append({"name": name, "status": status, **detail})

    recon = {
        method: qst_closed_form(np.asarray(row)).rho
        for method, row in REFERENCE_B_ROWS.items()
    }
    for method in ("simulator", "joint"):
        ok, gap = _matrix_close(
            recon[method].matrix, REFERENCE_RECONSTRUCTIONS[method], 5e-4
        )
        check(f"reconstruction_{method}", ok, {"max_entry_gap": gap, "tolerance": 5e-4})
    # the two_stage row cannot be reproduced from its own b estimate; the
    # recomputed matrix is recorded, the mismatch flagged (not a failure)
    ok, gap = _matrix_close(
        recon["two_stage"].matrix, REFERENCE_RECONSTRUCTIONS["two_stage"], 5e-4
    )
    check(
        "reconstruction_two_stage_known_inconsistent",
        True,
        {"max_entry_gap": gap, "reproducible": ok},
        flagged=True,
    )

    counts_b = tuple(hard_b(*REFERENCE_COUNTS[axis]) for axis in AXES)
    sim_row = REFERENCE_B_ROWS["simulator"]
    check(
        "counts_to_b_yz",
        counts_b[1] == sim_row[1] and counts_b[2] == sim_row[2],
        {"counts_b": list(counts_b), "reference_b": list(sim_row)},
    )
    gap_x = abs(counts_b[0] - sim_row[0])
    check(
        "counts_to_b_x_known_inconsistent",
        gap_x <= 3e-4,
        {"counts_b_x": counts_b[0], "reference_b_x": sim_row[0], "gap": gap_x},
        flagged=True,
    )
    errors = tuple(delta_b(*REFERENCE_COUNTS[axis]) for axis in AXES)
    check(
        "delta_b",
        abs(errors[0] - 0.01) <= 1e-5 and abs(errors[2] - 4.52e-3) <= 1e-5,
        {"delta_b": list(errors)},
    )

    for method, expected in (("joint", 0.01208), ("two_stage", 0.0076)):
        recomputed = frobenius_distance(
            REFERENCE_RECONSTRUCTIONS["simulator"], REFERENCE_RECONSTRUCTIONS[method]
        )
        recorded = REFERENCE_DISTANCES[method]
        check(
            f"frobenius_{method}_recomputed",
            abs(recomputed - expected) <= 5e-4,
            {
                "recomputed": recomputed,
                "recorded": recorded,
                "recorded_consistent": abs(recomputed - recorded) <= 5e-4,
            },
            flagged=True,
        )

    runs = [reconstruct_seed(s) for s in range(seed, seed + 5)]
    two_stage, collapsed = zip(*(run.errors for run in runs))
    check(
        "end_to_end_median_error",
        float(np.median(two_stage)) <= 0.03 and float(np.median(collapsed)) <= 0.03,
        {
            "two_stage_median": float(np.median(two_stage)),
            "collapsed_median": float(np.median(collapsed)),
            "tolerance": 0.03,
        },
    )

    return Reproduction(
        checks=checks,
        reconstructions={method: recon[method] for method in ("simulator", "joint")},
        b_table={**REFERENCE_B_ROWS, "counts_derived": counts_b},
        em=runs[0].em,
    )
