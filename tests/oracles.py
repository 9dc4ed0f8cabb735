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
log-likelihood sum; ``principal_split_reference`` finds their start's
principal axis with ``eigh`` and its cut by a within-group scan.
``save_dataset_reference`` and ``load_dataset_reference`` are the
per-line ``json.dumps``/``json.loads`` forms of the dataset writer and
reader.  ``min_cost_assignment_reference`` is a general n x k capacitated assignment by successive shortest paths;
the package solves only the case it meets (a constant noise column) by
sort-and-split, and this solver checks it; ``k_smallest_sums_reference``
is that split's running sums with a heap step for every value, where the
package visits only the values below the first threshold.  ``soft_rows_reference`` is the
row-wise softmax of the (n, 2) stack of negated distances, which the
package computes column by column.  ``observe_trajectory_reference``
is sampled trajectory observation one dataset per (step, axis) block: it
draws, shuffles and validates each block as ``simulate_axis`` does and
discriminates it with ``memberships_for``, where the package hoists the
per-trajectory work and counts hard labels.  ``density_problem_reference``,
``density_from_bloch_reference``, ``closed_form_bloch_reference``,
``closed_form_reference``, ``bloch_from_density_reference``,
``step_unitary_reference`` and ``apply_reference`` are the small-array
numpy forms of the package's closed-form single-qubit code:
``DensityMatrix``'s checks with ``eigvalsh``, the matrix sum
``0.5 * (I + r . sigma)``, the projection of one b onto the Bloch ball in
scalar steps (the package projects an (m, 3) array of b at once) and its
state, the product with the paper's measurement matrix
``measurement_matrix()`` built on every call, a general Hamiltonian
evolution of each basis vector, and a channel step on the superoperator
``g`` as three matrix expressions (the package steps the Bloch vector,
``r <- m r + t``, so the two agree to a stated tolerance, not bit for
bit).  ``cptp_project_reference`` is the CPTP projection by a different
algorithm: Dykstra's alternation between the PSD cone and the
trace-preserving set (``tp_project_reference``, with ``np.kron`` and an
``einsum`` partial trace), then a fix-up of residual negative eigenvalues,
where the package runs dual ascent on the 2x2 multiplier of the trace
constraint.  ``render_iq_svg_reference`` is the SVG scatter with one
pixel mapping and one f-string per shot, where the package maps and
formats all shots at once.
"""

from __future__ import annotations

import dataclasses
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
    b_from_memberships,
    memberships_for,
    mix_seed,
    pauli,
)
from iqtomo.discriminate import COVARIANCE_FLOOR, LABEL_NAMES
from iqtomo.qcore import (
    EIGENVALUE_TOL,
    HERMITICITY_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TRACE_TOL,
)
from iqtomo.plot import HEIGHT, POINT_COLORS, WIDTH, _svg_components
from iqtomo.readout import simulate_axis, write_text_atomic


def measurement_matrix() -> np.ndarray:
    """The paper's A: the 3 x 4 complex matrix with rows ``conj(vec(sigma_I))``
    for row-major ``vec``, so ``A @ vec(rho)`` is the Bloch vector of ``rho``."""
    return np.stack([sigma.reshape(4).conj() for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


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
    a = measurement_matrix()

    rho = np.eye(2, dtype=complex) / 2.0
    best = rho
    best_obj = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        r = (a @ rho.reshape(4)).real
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
    residual = float(np.sum(((a @ final.matrix.reshape(4)).real - target) ** 2))
    return QstResult(
        rho=final,
        b_used=BVector(b=target, delta=delta),
        residual_sq=residual,
        solver="projected_gradient",
        iterations=iterations,
        converged=converged,
    )


def f_matrix(component: ComponentParams) -> np.ndarray:
    """Quadratic-form matrix F with (x, 1)^T F (x, 1) = -(squared Mahalanobis distance of x).

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


def principal_split_reference(points: np.ndarray) -> np.ndarray:
    """Exact 2-means split of an (n, 2) point matrix along its principal axis.

    The axis is the ``numpy.linalg.eigh`` eigenvector of the largest
    eigenvalue of the centred scatter.  Every cut between two distinct
    sorted projections is scored by its within-group sum of squares, from
    running sums of the projections and of their squares, and the first
    least one wins.  False marks the side of the first point.
    """
    centred = points - points.mean(axis=0)
    _, vectors = np.linalg.eigh(centred.T @ centred)
    proj = centred @ vectors[:, 1]
    ordered = np.sort(proj)
    n = ordered.size
    best_k, best_within = None, math.inf
    sums, squares = np.cumsum(ordered), np.cumsum(ordered**2)
    for k in range(1, n):
        if ordered[k] == ordered[k - 1]:
            continue
        low = squares[k - 1] - sums[k - 1] ** 2 / k
        high = (squares[-1] - squares[k - 1]) - (sums[-1] - sums[k - 1]) ** 2 / (n - k)
        if low + high < best_within:
            best_k, best_within = k, low + high
    if best_k is None:
        raise ValueError("all points coincide")
    upper = proj > ordered[best_k - 1]
    return upper != upper[0]


def log_density_reference(d: np.ndarray, log_det: float) -> np.ndarray:
    """Gaussian log-density -d/2 - log_det/2 - log(2 pi) at squared Mahalanobis distance ``d``."""
    return -0.5 * d - 0.5 * log_det - math.log(2.0 * math.pi)


def em_fit_reference(
    dataset,
    max_iter: int = 200,
    tol: float = 1e-8,
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
    upper = principal_split_reference(points)
    sides = [points[~upper], points[upper]]
    weights = np.array([sel.shape[0] / n for sel in sides])
    means = np.stack([sel.mean(axis=0) for sel in sides])
    covs = [_reference_floor(np.cov(sel.T, bias=True)) for sel in sides]

    log_lik_prev = None
    for _ in range(max_iter):
        log_dens = np.empty((n, 2))
        for c in range(2):
            cov_inv, log_det = _reference_inverse(covs[c])
            log_gauss = log_density_reference(mahalanobis_sq_einsum(points, means[c], cov_inv), log_det)
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
    """Whole-file ``splitlines`` and one ``json.loads`` per line.

    The header holds ``obs`` and optionally ``seed`` and ``mixture``; a sample
    holds ``i``, ``q`` and optionally ``truth``.  A missing key, then an
    unknown key, is a defect, as is a coordinate that is not a finite JSON
    number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    if not raw_lines:
        raise DatasetFormatError("empty file, expected a header line", line=1)

    def record_of(raw: str, name: str, lineno: int, required: tuple, optional: tuple) -> dict:
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON in {name}: {exc.msg}", line=lineno) from exc
        if not isinstance(record, dict):
            raise DatasetFormatError(f"{name} must be a JSON object", line=lineno)
        missing = [key for key in required if key not in record]
        if missing:
            raise DatasetFormatError(f"{name} is missing key(s): {', '.join(missing)}", line=lineno)
        unknown = sorted(key for key in record if key not in required + optional)
        if unknown:
            raise DatasetFormatError(f"unknown {name} key(s): {', '.join(unknown)}", line=lineno)
        return record

    header = record_of(raw_lines[0], "header", 1, ("obs",), ("seed", "mixture"))
    observable = header["obs"]
    if observable not in AXES:
        raise DatasetFormatError(f"unknown observable {observable!r}", line=1)
    seed = header.get("seed", 0)
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise DatasetFormatError(f"header seed must be an integer in [0, 2**64), got {seed!r}", line=1)
    mixture = None
    if header.get("mixture") is not None:
        try:
            mixture = MixtureParams.from_json_dict(header["mixture"])
        except ValueError as exc:
            raise DatasetFormatError(f"invalid mixture parameters: {exc}", line=1) from exc

    label_codes = {name: code for code, name in enumerate(LABEL_NAMES)}
    columns: dict[str, list[float]] = {"i": [], "q": []}
    truth: list[int] = []
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        if not raw.strip():
            continue
        record = record_of(raw, "sample", lineno, ("i", "q"), ("truth",))
        for key, values in columns.items():
            value = record[key]
            if type(value) not in (int, float):
                raise DatasetFormatError(
                    f"sample {key} must hold JSON numbers, got {value!r}", line=lineno
                )
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise DatasetFormatError(
                    f"sample {key} must hold finite numbers, got {value!r}", line=lineno
                )
            values.append(number)
        label = record.get("truth")
        if label is None:
            truth.append(-1)
        elif isinstance(label, str) and label in label_codes:
            truth.append(label_codes[label])
        else:
            raise DatasetFormatError(f"unknown truth label {label!r}", line=lineno)
    if not truth:
        raise DatasetFormatError("dataset contains no samples", line=len(raw_lines))
    return IQDataset(
        observable=observable,
        i=np.asarray(columns["i"]),
        q=np.asarray(columns["q"]),
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


def k_smallest_sums_reference(values: np.ndarray, k: int) -> np.ndarray:
    """Rows (sum, swaps) of ``_k_smallest_sums``, visiting every value in a heap loop."""
    vals = values.tolist()
    heap = sorted(-v for v in vals[:k])  # a sorted list is a heap
    rows = [(math.fsum(vals[:k]), 0)]
    for v in vals[k:]:
        total, swaps = rows[-1]
        if k and v < -heap[0]:
            total, swaps = total + (v + heapq.heapreplace(heap, -v)), swaps + 1
        rows.append((total, swaps))
    return np.array(rows).T


def soft_rows_reference(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """(n, 2) softmax memberships on the exponents (-d0, -d1), largest subtracted first."""
    exponents = np.stack([-d0, -d1], axis=1)
    exponents -= exponents.max(axis=1, keepdims=True)
    weights = np.exp(exponents)
    return weights / weights.sum(axis=1, keepdims=True)


def synthesize_iq_reference(n0: int, n1: int, theta0, theta1, contamination, seed: int):
    """(i, q, truth) of ``synthesize_iq``, drawn as interleaved rows: each cloud
    takes ``standard_normal(count)`` for i, then for q, mapped row by row in
    Python floats, then the disc's radii and angles, then one permutation."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for count, comp in ((n0, theta0), (n1, theta1)):
        z_i = rng.standard_normal(count)
        z_q = rng.standard_normal(count)
        m, l = comp.mean.tolist(), np.linalg.cholesky(comp.cov).tolist()
        rows += [
            (m[0] + (a * l[0][0] + b * l[0][1]), m[1] + (a * l[1][0] + b * l[1][1]))
            for a, b in zip(z_i.tolist(), z_q.tolist())
        ]
    n_noise = 0
    if contamination is not None:
        w = contamination.weight
        n_noise = math.floor(w * (n0 + n1) / (1.0 - w))
        r = contamination.radius * np.sqrt(rng.random(n_noise))
        phi = 2.0 * np.pi * rng.random(n_noise)
        (cx, cy) = contamination.center
        rows += list(zip((cx + r * np.cos(phi)).tolist(), (cy + r * np.sin(phi)).tolist()))
    xy = np.array(rows, dtype=float).reshape(-1, 2)
    truth = np.array([0] * n0 + [1] * n1 + [2] * n_noise, dtype=np.int8)
    perm = rng.permutation(len(rows))
    return xy[perm, 0], xy[perm, 1], truth[perm]


def observe_trajectory_reference(trajectory, n: int, theta, seed: int, discriminator: str = "hard"):
    """Sampled observation one dataset at a time: every (step, axis) block runs
    ``simulate_axis`` (outcomes, synthesis, shuffle, an ``IQDataset``), then
    ``memberships_for`` and ``b_from_memberships``."""
    if trajectory.states is None:
        raise ValueError("observation requires simulated states")
    if discriminator == "assignment":
        raise ValueError("sampled observation cannot discriminate with 'assignment'")
    observations = []
    for step, state in enumerate(trajectory.states):
        b = np.empty(3)
        delta = np.empty(3)
        for idx, axis in enumerate(AXES):
            stream = mix_seed(seed, trajectory.trajectory_id, step, idx)
            dataset = simulate_axis(state, axis, n, theta, mix_seed(stream, 1), mix_seed(stream, 2))
            b[idx], delta[idx] = b_from_memberships(memberships_for(dataset, theta, discriminator))
        observations.append(BVector(b=b, delta=delta))
    return dataclasses.replace(trajectory, observations=tuple(observations))


def density_problem_reference(m) -> Optional[str]:
    """The message ``DensityMatrix`` raises for a finite 2x2 ``m``, or None,
    from numpy's matrix forms: halves of ``m - m^H`` and ``eigvalsh``."""
    m = np.array(m, dtype=complex)
    if np.abs(0.5 * m - 0.5 * m.conj().T).max() > 0.5 * HERMITICITY_TOL:
        return "density matrix is not Hermitian"
    trace = complex(m[0, 0]) + complex(m[1, 1])
    if math.hypot(trace.real - 1.0, trace.imag) > TRACE_TOL:
        return f"density matrix trace {trace:.16g} != 1"
    if np.linalg.eigvalsh(m).min() < -EIGENVALUE_TOL:
        return "density matrix has a negative eigenvalue"
    return None


def density_from_bloch_reference(r) -> np.ndarray:
    """``(I + r . sigma) / 2`` as a numpy matrix sum, after the rescaling of a
    norm in ``(1, 1 + 1e-9]`` onto the sphere."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r = r / norm
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def closed_form_bloch_reference(b) -> np.ndarray:
    """The closed-form Bloch vector of one b, by scalar steps: a b whose
    ``b . b`` overflows is divided by its largest ``|b_i|``, a b outside the
    ball by its norm."""
    arr = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):
        norm = math.sqrt(arr.dot(arr))
    scaled = arr if norm < math.inf else arr / np.abs(arr).max()
    return arr if norm <= 1.0 else scaled / math.sqrt(scaled.dot(scaled))


def closed_form_reference(b) -> np.ndarray:
    """The closed-form state of one b as a 2x2 matrix:
    :func:`density_from_bloch_reference` of :func:`closed_form_bloch_reference`."""
    return density_from_bloch_reference(closed_form_bloch_reference(b))


def bloch_from_density_reference(m) -> np.ndarray:
    """Bloch vector as ``A @ vec(rho)``, with the measurement matrix built for this call."""
    return (measurement_matrix() @ np.asarray(m, dtype=complex).reshape(-1)).real.copy()


def step_unitary_reference(axis: str, rate: float, dt: float) -> np.ndarray:
    """``exp(-i rate sigma_axis dt)`` column by column, each column the general
    pure-state evolution ``v @ (phases * (v^H @ e_k))`` of a basis vector from
    the ``eigh`` eigenvectors ``v`` of the Hamiltonian."""

    def evolve(psi0):
        w, v = np.linalg.eigh(np.asarray(rate * pauli(axis), dtype=complex))
        return v @ (np.exp(-1j * w * float(dt)) * (v.conj().T @ psi0))

    basis = np.eye(2, dtype=complex)
    return np.stack([evolve(basis[:, 0]), evolve(basis[:, 1])], axis=1)


def apply_reference(channel, rho: DensityMatrix) -> DensityMatrix:
    """One channel step on ``g`` as numpy matrix expressions: ``m = unvec(g vec(rho))``,
    ``h = 0.5 * (m + m^H)``, then ``h / Re Tr h`` (the package steps the Bloch vector)."""
    out = (channel.g @ rho.matrix.reshape(4)).reshape(2, 2)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out / out.trace().real)


def tp_project_reference(c: np.ndarray) -> np.ndarray:
    """Trace-preserving step: ``c + I (x) (I - Tr_out c) / 2`` by ``np.kron``,
    with ``Tr_out`` an ``einsum`` over the 2x2x2x2 view."""
    deficit = np.eye(2) - np.einsum("ijil->jl", c.reshape(2, 2, 2, 2))
    return c + np.kron(np.eye(2), deficit / 2.0)


def _psd_project_reference(h: np.ndarray) -> np.ndarray:
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def cptp_project_reference(h: np.ndarray, max_sweeps: int, tol: float) -> tuple[np.ndarray, bool]:
    """The CPTP projection of ``h`` and whether it met ``tol`` within ``max_sweeps``.

    The Dykstra loop with each sum formed where it is used (``x + p`` and
    ``y + q`` twice per sweep), the PSD step as a function and the affine
    step by ``tp_project_reference``; then a fix-up of residual negative
    eigenvalues: clip them, take the affine step again, and mix in just
    enough of I/2 to lift the smallest to -1e-9.
    """
    h = np.asarray(h, dtype=complex)
    x = 0.5 * (h + h.conj().T)
    scale = max(1.0, float(np.linalg.norm(x)))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    converged = False
    for _ in range(max_sweeps):
        y = _psd_project_reference(x + p)
        p = x + p - y
        x_new = tp_project_reference(y + q)
        q = y + q - x_new
        converged = bool(np.linalg.norm(y - x_new) <= tol * scale)
        x = x_new
        if converged:
            break
    out = 0.5 * (x + x.conj().T)
    w, v = np.linalg.eigh(out)
    if w.min() < 0.0:
        out = (v * np.maximum(w, 0.0)) @ v.conj().T
        out = tp_project_reference(0.5 * (out + out.conj().T))
        low = float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min())
        if low < -1e-9:
            t = -low / (0.5 - low)
            out = (1.0 - t) * out + (0.5 * t) * np.eye(4)
    return out, converged


def render_iq_svg_reference(dataset) -> str:
    """``render_iq_svg`` with one ``to_px`` call and one f-string per shot."""
    e, points, components = _svg_components(dataset)
    margin = 48.0

    xs = [points[:, 0].min(), points[:, 0].max()]
    ys = [points[:, 1].min(), points[:, 1].max()]
    for mean, cov in components:
        spread = 2.0 * math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
        xs += [mean[0] - spread, mean[0] + spread]
        ys += [mean[1] - spread, mean[1] + spread]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # a floor of 1e-9 data units, and of 2**-1000 so that the scale stays finite
    span = max(x_hi - x_lo, y_hi - y_lo, math.ldexp(1e-9, -e), 2.0**-1000)
    scale = (min(WIDTH, HEIGHT) - 2.0 * margin) / span
    x_mid = 0.5 * (x_lo + x_hi)
    y_mid = 0.5 * (y_lo + y_hi)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (
            WIDTH / 2.0 + (x - x_mid) * scale,
            HEIGHT / 2.0 - (y - y_mid) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">I (obs {dataset.observable})</text>',
        f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2:.1f})">Q</text>',
    ]
    for (x, y), code in zip(points.tolist(), dataset.truth.tolist()):
        px, py = to_px(x, y)
        color = POINT_COLORS.get(code, POINT_COLORS[-1])
        parts.append(
            f'<circle class="pt" cx="{px:.2f}" cy="{py:.2f}" r="2" fill="{color}" '
            f'fill-opacity="0.6"/>'
        )
    for mean, cov in components:
        px, py = to_px(float(mean[0]), float(mean[1]))
        mx, my = (math.ldexp(float(m), e) for m in mean)
        w, v = np.linalg.eigh(np.asarray(cov, dtype=float))
        rx = 2.0 * math.sqrt(max(w[1], 0.0)) * scale
        ry = 2.0 * math.sqrt(max(w[0], 0.0)) * scale
        angle = -math.degrees(math.atan2(v[1, 1], v[0, 1]))
        parts.append(
            f'<ellipse class="cov" cx="{px:.2f}" cy="{py:.2f}" rx="{rx:.2f}" ry="{ry:.2f}" '
            f'transform="rotate({angle:.2f} {px:.2f} {py:.2f})" fill="none" '
            f'stroke="#000000" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<path class="mean" data-mean="{mx!r},{my!r}" '
            f'd="M {px - 6:.2f} {py:.2f} H {px + 6:.2f} M {px:.2f} {py - 6:.2f} '
            f'V {py + 6:.2f}" stroke="#000000" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
