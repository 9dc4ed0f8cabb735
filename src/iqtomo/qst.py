"""Single-qubit state tomography from Pauli expectation estimates.

The constrained least-squares problem

    minimise || A vec(rho) - b ||^2   over density matrices rho

has a closed form for one qubit: in Bloch coordinates the objective is
``|| r - b ||^2`` over the unit ball, so the optimum is ``b`` itself when
``|b| <= 1`` and ``b / |b|`` otherwise (the one-qubit case of the
closed-form projection of Smolin, Gambetta & Smith, PRL 108, 070502).
``closed_form_bloch`` is that map, written once for an (m, 3) array of
b: a row whose squared norm overflows is first divided by its largest
``|b_i|``, and a row outside the ball is projected radially.
``qst_closed_form`` is its one-row case, with ``density_columns`` building
the state, and ``qhi.fit_channel`` its many-row one.

``bilevel_qst`` composes the discrimination stage with the tomography
stage: each axis's I-Q samples give a ``b`` estimate, which feeds the
closed-form solver.  Hard and soft ``b`` come straight from the samples'
squared distances to the two clouds, with no membership matrix; the
``assignment`` mode sums the memberships its solver assigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from .discriminate import MODES, BVector, MixtureParams, b_for
from .qcore import AXES, DensityMatrix, density_columns, frobenius_distance, squared_norms

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .readout import IQDataset


@dataclass(frozen=True)
class QstResult:
    """A reconstructed state together with solver diagnostics."""

    rho: DensityMatrix
    b_used: BVector
    residual_sq: float
    solver: str
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BilevelResult:
    """Joint discrimination + tomography output."""

    qst: QstResult
    mode: str


def closed_form_bloch(b: np.ndarray) -> np.ndarray:
    """The closed-form Bloch vector for each row of an (m, 3) array of b: the row
    itself inside the ball, else its radial projection onto the sphere."""
    with np.errstate(over="ignore"):  # a row whose squared norm overflows is divided by its max |b_i|
        r = b / np.where(squared_norms(b) < np.inf, 1.0, np.abs(b).max(axis=1))[:, None]
    norm = np.sqrt(squared_norms(r))
    return r / np.where(norm > 1.0, norm, 1.0)[:, None]


def qst_closed_form(b) -> QstResult:
    """Reconstruct a state from ``b`` by radial projection onto the ball.

    ``b`` is a ``BVector``, kept as ``b_used``, or three finite numbers,
    taken with zero errors.  ``residual_sq`` is ``max(0, |b| - 1)^2``, the
    squared distance from ``b`` to the Bloch ball, inf where ``b . b`` overflows.
    """
    b_used = b if isinstance(b, BVector) else BVector(b=b, delta=np.zeros(3))
    rows = b_used.b[None]
    with np.errstate(over="ignore"):
        norm = math.sqrt(squared_norms(rows)[0])
    rho = DensityMatrix(density_columns(closed_form_bloch(rows)).reshape(2, 2))
    residual = max(0.0, norm - 1.0) ** 2
    return QstResult(
        rho=rho,
        b_used=b_used,
        residual_sq=residual,
        solver="closed_form",
        iterations=0,
        converged=True,
    )


def axis_thetas(
    datasets: Mapping[str, "IQDataset"], theta: MixtureParams | Mapping[str, MixtureParams]
) -> dict[str, MixtureParams]:
    """Each axis's mixture, once every ``datasets[axis]`` is checked to be labelled ``axis``.

    ``theta`` is one mixture for every axis or a mapping from axis to mixture.
    Raises ValueError for a dataset labelled with another axis, or an axis
    whose ``theta`` is missing or not a ``MixtureParams``.
    """
    thetas = {}
    for axis, dataset in datasets.items():
        if dataset.observable != axis:
            raise ValueError(
                f"dataset for axis {axis!r} is labelled {dataset.observable!r}"
            )
        thetas[axis] = theta.get(axis) if isinstance(theta, Mapping) else theta
        if not isinstance(thetas[axis], MixtureParams):
            raise ValueError(f"theta for axis {axis!r} must be a MixtureParams, got {thetas[axis]!r}")
    return thetas


def bilevel_qst(
    dx: "IQDataset",
    dy: "IQDataset",
    dz: "IQDataset",
    theta: MixtureParams | Mapping[str, MixtureParams],
    mode: str = "soft",
) -> BilevelResult:
    """Discriminate three per-axis datasets and reconstruct the state.

    ``theta`` is either one mixture reused for every axis or a mapping
    ``{"x": ..., "y": ..., "z": ...}``.  Each axis's ``b_used`` entry equals
    ``b_from_memberships(memberships_for(dataset, theta_axis, mode))``:
    ``hard`` and ``soft`` reach it from the cloud distances alone
    (:func:`b_for`), ``assignment`` from its solved memberships.
    Raises ValueError for an unknown mode, and as :func:`axis_thetas` does.
    """
    if mode not in MODES:
        raise ValueError(f"unknown discrimination mode {mode!r}")
    datasets = {"x": dx, "y": dy, "z": dz}
    thetas = axis_thetas(datasets, theta)
    b = np.empty(3)
    delta = np.empty(3)
    for idx, axis in enumerate(AXES):
        b[idx], delta[idx] = b_for(datasets[axis], thetas[axis], mode)
    result = qst_closed_form(BVector(b=b, delta=delta))
    return BilevelResult(qst=result, mode=mode)


def tomography_report(
    result: QstResult | BilevelResult,
    reference: Optional[DensityMatrix] = None,
) -> dict:
    """JSON-ready report for a reconstruction.

    Keys: b, delta_b, rho, residual_sq, frobenius_to_ref, solver, mode,
    iterations, converged.  ``residual_sq`` is None (JSON ``null``) where it
    is inf, for a b whose squared norm overflows: JSON has no infinity.
    ``frobenius_to_ref`` is the distance to ``reference``, None without one.
    """
    mode = None
    if isinstance(result, BilevelResult):
        mode = result.mode
        result = result.qst
    return {
        "b": result.b_used.b.tolist(),
        "delta_b": result.b_used.delta.tolist(),
        "rho": result.rho.to_json_dict(),
        "residual_sq": result.residual_sq if result.residual_sq < math.inf else None,
        "frobenius_to_ref": (
            None if reference is None else frobenius_distance(result.rho, reference)
        ),
        "solver": result.solver,
        "mode": mode,
        "iterations": result.iterations,
        "converged": result.converged,
    }
