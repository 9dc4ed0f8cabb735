"""Reference oracles the tests check the package against.

None of these is on a production path.  ``qst_projected_gradient`` is a
generic projected-gradient solver over the PSD unit-trace set; for one
qubit the constrained least-squares problem has the exact closed form
``iqtomo.qst_closed_form``, and the solver is kept here only as an
independent cross-check of it.  ``f_matrix`` lifts the squared
Mahalanobis distance to a quadratic form in homogeneous coordinates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from iqtomo import BVector, ComponentParams, DensityMatrix, QstResult, bloch_from_density, pauli


def _simplex_project(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, w.size + 1)
    valid = u - css / k > 0
    rho = int(np.nonzero(valid)[0][-1])
    tau = css[rho] / (rho + 1)
    return np.maximum(w - tau, 0.0)


def _psd_unit_trace_project_raw(h: np.ndarray) -> np.ndarray:
    """Projection used by the iterative tomography solver; returns an array."""
    h = np.asarray(h, dtype=complex)
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    w = _simplex_project(w)
    return (v * w) @ v.conj().T


def psd_unit_trace_project(h: np.ndarray) -> DensityMatrix:
    """Nearest (Frobenius) unit-trace PSD matrix to a Hermitian ``h``.

    Eigenvalues are projected onto the probability simplex and the matrix
    reassembled in the same eigenbasis.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("projection input must be Hermitian")
    m = _psd_unit_trace_project_raw(h)
    m = 0.5 * (m + m.conj().T)
    m = m / m.trace().real
    return DensityMatrix(m)


def qst_projected_gradient(
    b,
    step: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    delta: Optional[np.ndarray] = None,
) -> QstResult:
    """Projected-gradient reconstruction of a state from ``b``.

    Gradient descent on ``|| A vec(rho) - b ||^2`` in matrix space,
    interleaved with projection onto the PSD unit-trace set.  ``step`` is
    the gradient step in Bloch coordinates, where the quadratic has
    Lipschitz constant 2, so any step in (0, 0.5] is a descent step; if
    ``max_iter`` is exhausted the best iterate seen is returned with
    ``converged = False``.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    target = np.asarray(b.b if isinstance(b, BVector) else b, dtype=float).reshape(3)
    if isinstance(b, BVector):
        delta = b.delta
    elif delta is None:
        delta = np.zeros(3)
    paulis = [pauli(axis) for axis in ("x", "y", "z")]

    rho = np.eye(2, dtype=complex) / 2.0
    best = rho
    best_obj = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        r = bloch_from_density(rho)
        obj = float(np.sum((r - target) ** 2))
        if obj < best_obj:
            best_obj = obj
            best = rho
        grad = sum(2.0 * (r[i] - target[i]) * paulis[i] for i in range(3))
        nxt = _psd_unit_trace_project_raw(rho - (step / 2.0) * grad)
        if np.linalg.norm(nxt - rho) < tol:
            rho = nxt
            converged = True
            break
        rho = nxt
    if converged:
        best = rho
    final = DensityMatrix(0.5 * (best + best.conj().T))
    residual = float(np.sum((bloch_from_density(final) - target) ** 2))
    return QstResult(
        rho=final,
        b_used=BVector(b=target, delta=delta),
        residual_sq=residual,
        solver="projected_gradient",
        iterations=iterations,
        converged=converged,
    )


def f_matrix(component: ComponentParams) -> np.ndarray:
    """Quadratic-form matrix F with (x, 1)^T F (x, 1) = -mahalanobis_sq(x).

    F = [[-S^-1, S^-1 mu], [(S^-1 mu)^T, -mu^T S^-1 mu]] for S the covariance.
    """
    si = component.cov_inv
    simu = si @ component.mean
    out = np.empty((3, 3), dtype=float)
    out[:2, :2] = -si
    out[:2, 2] = simu
    out[2, :2] = simu
    out[2, 2] = -float(component.mean @ simu)
    return out
