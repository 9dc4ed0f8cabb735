"""Single-qubit state tomography from Pauli expectation estimates.

The constrained least-squares problem

    minimise || A vec(rho) - b ||^2   over density matrices rho

has a closed form for one qubit: in Bloch coordinates the objective is
``|| r - b ||^2`` over the unit ball, so the optimum is ``b`` itself when
``|b| <= 1`` and ``b / |b|`` otherwise (the one-qubit case of the
closed-form projection of Smolin, Gambetta & Smith, PRL 108, 070502).

``bilevel_qst`` composes the discrimination stage with the tomography
stage: per-axis memberships collapse to ``b`` estimates which feed the
closed-form solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from .discriminate import BVector, MembershipMatrix, MixtureParams, b_from_memberships, memberships_for
from .qcore import AXES, DensityMatrix, density_from_bloch, frobenius_distance

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
    memberships: Mapping[str, MembershipMatrix]
    mode: str


def qst_closed_form(b) -> QstResult:
    """Reconstruct a state from ``b`` by radial projection onto the ball.

    ``b`` is a ``BVector``, kept as ``b_used``, or three finite numbers,
    taken with zero errors.  ``residual_sq`` is ``max(0, |b| - 1)^2``, the
    squared distance from ``b`` to the Bloch ball.
    """
    b_used = b if isinstance(b, BVector) else BVector(b=b, delta=np.zeros(3))
    arr = b_used.b
    norm = math.sqrt(arr.dot(arr))  # numpy.linalg.norm's own sum of squares, so the same bits
    r = arr if norm <= 1.0 else arr / norm
    rho = density_from_bloch(r)
    residual = max(0.0, norm - 1.0) ** 2
    return QstResult(
        rho=rho,
        b_used=b_used,
        residual_sq=residual,
        solver="closed_form",
        iterations=0,
        converged=True,
    )


def bilevel_qst(
    dx: "IQDataset",
    dy: "IQDataset",
    dz: "IQDataset",
    theta: MixtureParams | Mapping[str, MixtureParams],
    mode: str = "soft",
) -> BilevelResult:
    """Discriminate three per-axis datasets and reconstruct the state.

    ``theta`` is either one mixture reused for every axis or a mapping
    ``{"x": ..., "y": ..., "z": ...}``.  The returned ``b_used`` always
    equals the estimate recomputed from the stored memberships.
    """
    datasets = {"x": dx, "y": dy, "z": dz}
    for axis, dataset in datasets.items():
        if dataset.observable != axis:
            raise ValueError(
                f"dataset for axis {axis!r} is labelled {dataset.observable!r}"
            )
    memberships: dict[str, MembershipMatrix] = {}
    b = np.empty(3)
    delta = np.empty(3)
    for idx, axis in enumerate(AXES):
        theta_axis = theta[axis] if isinstance(theta, Mapping) else theta
        member = memberships_for(datasets[axis], theta_axis, mode)
        memberships[axis] = member
        b[idx], delta[idx] = b_from_memberships(member)
    result = qst_closed_form(BVector(b=b, delta=delta))
    return BilevelResult(qst=result, memberships=memberships, mode=mode)


def tomography_report(
    result: QstResult | BilevelResult,
    reference: Optional[DensityMatrix] = None,
) -> dict:
    """JSON-ready report for a reconstruction.

    Keys: b, delta_b, rho, residual_sq, frobenius_to_ref, solver, mode.
    """
    mode = None
    if isinstance(result, BilevelResult):
        mode = result.mode
        result = result.qst
    return {
        "b": result.b_used.b.tolist(),
        "delta_b": result.b_used.delta.tolist(),
        "rho": result.rho.to_json_dict(),
        "residual_sq": result.residual_sq,
        "frobenius_to_ref": (
            None if reference is None else frobenius_distance(result.rho, reference)
        ),
        "solver": result.solver,
        "mode": mode,
        "iterations": result.iterations,
        "converged": result.converged,
    }
