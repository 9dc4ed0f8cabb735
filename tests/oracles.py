"""Reference oracles the tests check the package against.

None of these is on a production path.  ``qst_projected_gradient`` is a
generic projected-gradient solver over the PSD unit-trace set; for one
qubit the constrained least-squares problem has the exact closed form
``iqtomo.qst_closed_form``, and the solver is kept here only as an
independent cross-check of it.  ``f_matrix`` lifts the squared
Mahalanobis distance to a quadratic form in homogeneous coordinates.
``mahalanobis_sq_einsum`` and ``em_fit_reference`` are the general
matrix forms of the package's explicit 2x2 Gaussian kernel and EM loop:
``numpy.linalg`` inverses and determinants, an ``einsum`` quadratic form,
``ComponentParams``-style checks on every iteration and a compensated
log-likelihood sum; ``kmeans_pp_init_reference`` is the matrix form of
their k-means++ start.  ``save_dataset_reference`` and
``load_dataset_reference`` are the per-line ``json.dumps``/``json.loads``
forms of the dataset writer and reader.  ``min_cost_assignment_reference``
is a general n x k capacitated assignment by successive shortest paths;
the package solves only the case it meets (a constant noise column) by
sort-and-split, and this solver checks it.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from typing import Optional

import numpy as np

from iqtomo import (
    AXES,
    BVector,
    CalibrationWarning,
    ComponentParams,
    DatasetFormatError,
    DensityMatrix,
    IQDataset,
    MixtureParams,
    QstResult,
    bloch_from_density,
    pauli,
)
from iqtomo.discriminate import COVARIANCE_FLOOR, LABEL_NAMES
from iqtomo.readout import write_text_atomic


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


def mahalanobis_sq_einsum(x: np.ndarray, mean: np.ndarray, cov_inv: np.ndarray) -> float | np.ndarray:
    """Squared Mahalanobis distance of a (2,) point or an (n, 2) batch, as one einsum."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    diff = np.atleast_2d(x) - mean
    q = np.einsum("ni,ij,nj->n", diff, cov_inv, diff)
    q = np.maximum(q, 0.0)
    return float(q[0]) if single else q


def _reference_inverse(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of the symmetrised covariance, by numpy.linalg."""
    cov = np.array(cov, dtype=float).reshape(2, 2)
    if np.abs(cov - cov.T).max() > 1e-9:
        raise ValueError("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov).min() <= 1e-10:
        raise ValueError("covariance must be positive definite")
    cov_inv = np.linalg.inv(cov)
    if np.abs(cov_inv @ cov - np.eye(2)).max() > 1e-9:
        raise ValueError("covariance is too ill-conditioned to invert")
    _, log_det = np.linalg.slogdet(cov)
    return cov_inv, float(log_det)


def _reference_floor(cov: np.ndarray) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    if w.min() >= COVARIANCE_FLOOR:
        return cov
    warnings.warn(
        f"degenerate cluster: covariance eigenvalue {w.min():.3g} floored at "
        f"{COVARIANCE_FLOOR:g}",
        CalibrationWarning,
    )
    return (v * np.maximum(w, COVARIANCE_FLOOR)) @ v.T


def kmeans_pp_init_reference(points: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ centres of an (n, 2) point matrix and each point's nearest centre.

    Distances to both centres come from one (n, 2, 2) difference array; the
    argmin gives ties to the first centre.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    first = int(rng.integers(points.shape[0]))
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    total = d2.sum()
    if total <= 0.0:
        second = (first + 1) % points.shape[0]
    else:
        second = int(rng.choice(points.shape[0], p=d2 / total))
    centers = points[[first, second]].copy()
    assign = np.argmin(
        ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    return centers, assign


def em_fit_reference(
    dataset,
    init: Optional[tuple[ComponentParams, ComponentParams]] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: Optional[int] = None,
    log_history: Optional[list] = None,
) -> MixtureParams:
    """Two-component Gaussian-mixture EM on the (n, 2) point matrix.

    Same initialisation, stopping rule and component order as
    ``iqtomo.em_fit``.  Every iteration rebuilds each component's inverse
    with ``numpy.linalg`` and its checks, evaluates densities with
    :func:`mahalanobis_sq_einsum`, and sums the log-likelihood with
    ``math.fsum``.
    """
    points = dataset.points()
    n = points.shape[0]
    if init is None:
        if seed is None:
            seed = (dataset.seed ^ 0xE41B17) & 0xFFFFFFFFFFFFFFFF
        centers, assign = kmeans_pp_init_reference(points, seed)
        means = centers
        covs = []
        weights = np.empty(2)
        for c in range(2):
            sel = points[assign == c]
            weights[c] = max(sel.shape[0], 1) / n
            if sel.shape[0] >= 2:
                covs.append(_reference_floor(np.cov(sel.T, bias=True)))
            else:
                covs.append(np.eye(2))
        weights = weights / weights.sum()
    else:
        theta0, theta1 = init
        means = np.stack([theta0.mean, theta1.mean])
        covs = [theta0.cov.copy(), theta1.cov.copy()]
        weights = np.array([theta0.weight, theta1.weight]) / (theta0.weight + theta1.weight)

    log_lik_prev = None
    for _ in range(max_iter):
        log_dens = np.empty((n, 2))
        for c in range(2):
            cov_inv, log_det = _reference_inverse(covs[c])
            log_gauss = (
                -0.5 * mahalanobis_sq_einsum(points, means[c], cov_inv)
                - 0.5 * log_det
                - math.log(2.0 * math.pi)
            )
            log_dens[:, c] = np.log(max(weights[c], 1e-300)) + log_gauss
        top = log_dens.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_dens - top).sum(axis=1))
        log_lik = float(math.fsum(log_norm))
        if log_history is not None:
            log_history.append(log_lik)
        if log_lik_prev is not None:
            if log_lik < log_lik_prev - 1e-9:
                raise ValueError("EM log-likelihood decreased")
            if abs(log_lik - log_lik_prev) <= tol * (1.0 + abs(log_lik)):
                break
        log_lik_prev = log_lik

        gamma = np.exp(log_dens - log_norm[:, None])
        mass = gamma.sum(axis=0)
        new_means = np.empty_like(means)
        new_covs = []
        for c in range(2):
            if mass[c] < 1e-10:
                warnings.warn(
                    f"EM component {c} became degenerate; covariance floored",
                    CalibrationWarning,
                )
                new_means[c] = means[c]
                new_covs.append(np.eye(2) * COVARIANCE_FLOOR)
                mass[c] = 1e-10
                continue
            new_means[c] = gamma[:, c] @ points / mass[c]
            diff = points - new_means[c]
            cov = (gamma[:, c, None] * diff).T @ diff / mass[c]
            new_covs.append(_reference_floor(cov))
        means = new_means
        covs = new_covs
        weights = mass / mass.sum()

    if means[0][0] < means[1][0]:
        means = means[::-1]
        covs = covs[::-1]
        weights = weights[::-1]
    return MixtureParams(
        zero=ComponentParams(weights[0], means[0], covs[0]),
        one=ComponentParams(weights[1], means[1], covs[1]),
        noise=None,
    )


def save_dataset_reference(dataset, path: str) -> None:
    """One ``json.dumps(..., sort_keys=True)`` call per line: header, then each sample."""
    header: dict = {"obs": dataset.observable, "seed": dataset.seed}
    if dataset.mixture is not None:
        header["mixture"] = dataset.mixture.to_json_dict()
    lines = [json.dumps(header, sort_keys=True)]
    for i_val, q_val, t_val in zip(dataset.i, dataset.q, dataset.truth):
        label = LABEL_NAMES[t_val] if t_val >= 0 else None
        lines.append(
            json.dumps({"i": float(i_val), "q": float(q_val), "truth": label}, sort_keys=True)
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_dataset_reference(path: str):
    """Whole-file ``splitlines`` and one ``json.loads`` per line."""
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    if not raw_lines:
        raise DatasetFormatError("empty file, expected a header line", line=1)

    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in header: {exc.msg}", line=1) from exc
    if not isinstance(header, dict):
        raise DatasetFormatError("header must be a JSON object", line=1)
    if "obs" not in header:
        raise DatasetFormatError("header is missing required field 'obs'", line=1)
    observable = header["obs"]
    if observable not in AXES:
        raise DatasetFormatError(f"unknown observable {observable!r}", line=1)
    seed = int(header.get("seed", 0))
    mixture = None
    if header.get("mixture") is not None:
        try:
            mixture = MixtureParams.from_json_dict(header["mixture"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"invalid mixture parameters: {exc}", line=1) from exc

    label_codes = {name: code for code, name in enumerate(LABEL_NAMES)}
    i_vals: list[float] = []
    q_vals: list[float] = []
    truth: list[int] = []
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON in sample: {exc.msg}", line=lineno) from exc
        if not isinstance(record, dict):
            raise DatasetFormatError("sample must be a JSON object", line=lineno)
        try:
            i_vals.append(float(record["i"]))
            q_vals.append(float(record["q"]))
        except KeyError as exc:
            raise DatasetFormatError(
                f"sample is missing required field {exc.args[0]!r}", line=lineno
            ) from exc
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"non-numeric coordinate: {exc}", line=lineno) from exc
        label = record.get("truth")
        if label is None:
            truth.append(-1)
        elif label in label_codes:
            truth.append(label_codes[label])
        else:
            raise DatasetFormatError(f"unknown truth label {label!r}", line=lineno)
    if not i_vals:
        raise DatasetFormatError("dataset contains no samples", line=len(raw_lines))
    i_arr = np.asarray(i_vals)
    q_arr = np.asarray(q_vals)
    finite = np.isfinite(i_arr) & np.isfinite(q_arr)
    if not finite.all():
        bad = int(np.argmin(finite))
        sample_lines = [n for n, raw in enumerate(raw_lines[1:], start=2) if raw.strip()]
        raise DatasetFormatError(
            f"non-finite coordinate (i={i_arr[bad]!r}, q={q_arr[bad]!r})", line=sample_lines[bad]
        )
    return IQDataset(
        observable=observable,
        i=i_arr,
        q=q_arr,
        truth=np.asarray(truth, dtype=np.int8),
        seed=seed,
        mixture=mixture,
    )


def min_cost_assignment_reference(cost: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Exact capacitated assignment minimising sum_s cost[s, assign[s]].

    Successive-shortest-path exchange over the condensed class graph.  The
    constraint matrix of the underlying flow problem is totally unimodular,
    so the integral optimum found here matches the LP relaxation; path
    costs are plain float sums of at most two move deltas, keeping the
    result exact in float arithmetic.  Ties are broken deterministically
    (lowest class, then lowest sample index).
    """
    n, k = cost.shape
    caps = np.asarray(caps, dtype=int)
    if caps.sum() != n:
        raise ValueError(f"capacities sum to {caps.sum()}, expected {n}")
    active = [c for c in range(k) if caps[c] > 0]
    sub = cost[:, active]
    assign = np.asarray(active, dtype=int)[np.argmin(sub, axis=1)]
    counts = np.bincount(assign, minlength=k)

    heaps: list[list[list]] = [[[] for _ in range(k)] for _ in range(k)]

    def push(s: int, home: int) -> None:
        for other in active:
            if other != home:
                heapq.heappush(heaps[home][other], (cost[s, other] - cost[s, home], s))

    for s in range(n):
        push(s, int(assign[s]))

    def arc_min(a: int, b: int):
        h = heaps[a][b]
        while h and assign[h[0][1]] != a:
            heapq.heappop(h)
        return h[0] if h else None

    while True:
        over = [c for c in active if counts[c] > caps[c]]
        if not over:
            break
        under = [c for c in active if counts[c] < caps[c]]
        best = None
        for o in over:
            for u in under:
                direct = arc_min(o, u)
                if direct is not None:
                    key = (direct[0], 1, (o, u))
                    if best is None or key < best[0]:
                        best = (key, [(direct[1], o, u)])
                for m in active:
                    if m == o or m == u:
                        continue
                    first = arc_min(o, m)
                    second = arc_min(m, u)
                    if first is None or second is None:
                        continue
                    key = (first[0] + second[0], 2, (o, m, u))
                    if best is None or key < best[0]:
                        # apply the second hop first so the two moves
                        # never race for the same sample
                        best = (key, [(second[1], m, u), (first[1], o, m)])
        if best is None:  # pragma: no cover - capacities sum to n
            raise RuntimeError("no augmenting path found")
        for s, frm, to in best[1]:
            assign[s] = to
            counts[frm] -= 1
            counts[to] += 1
            push(s, to)

    # canonical order among interchangeable samples: groups with identical
    # cost rows receive their class multiset sorted by sample index
    groups: dict[bytes, list[int]] = {}
    for s in range(n):
        groups.setdefault(cost[s].tobytes(), []).append(s)
    for members in groups.values():
        if len(members) > 1:
            classes = sorted(int(assign[s]) for s in members)
            for s, c in zip(members, classes):
                assign[s] = c
    return assign
