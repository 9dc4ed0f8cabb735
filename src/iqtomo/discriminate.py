"""State discrimination on I-Q plane readout records.

Calibration fits a two-component Gaussian mixture with EM; classification
offers three routes of increasing sophistication:

* ``hard``       -- Mahalanobis nearest-component argmax,
* ``soft``       -- softmax memberships on negated squared distances,
* ``assignment`` -- capacitated assignment with an optional noise class,
  solved exactly as a small min-cost-flow problem.

Each route produces a membership matrix from which an expectation-value
estimate ``b`` and its one-sigma error ``delta_b`` are derived.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .readout import IQDataset

LABEL_ZERO = 0
LABEL_ONE = 1
LABEL_NOISE = 2
LABEL_NAMES = ("zero", "one", "noise")

MODES = ("hard", "soft", "assignment")

_LOG_2PI = math.log(2.0 * math.pi)

COVARIANCE_FLOOR = 1e-6


class CalibrationWarning(UserWarning):
    """Raised when EM hits a degenerate component and floors its covariance."""


@dataclass(frozen=True)
class ComponentParams:
    """One Gaussian readout cloud: weight, mean and 2x2 covariance.

    The inverse covariance and log-determinant are computed once at
    construction; the covariance must be symmetric positive definite
    (eigenvalues > 1e-10).
    """

    weight: float
    mean: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray = field(init=False, repr=False, compare=False)
    log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"component weight {self.weight} outside [0, 1]")
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov).min() <= 1e-10:
            raise ValueError("covariance must be positive definite")
        cov_inv = np.linalg.inv(cov)
        if np.abs(cov_inv @ cov - np.eye(2)).max() > 1e-9:
            raise ValueError("covariance is too ill-conditioned to invert")
        sign, log_det = np.linalg.slogdet(cov)
        for arr in (mean, cov, cov_inv):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "cov_inv", cov_inv)
        object.__setattr__(self, "log_det", float(log_det))


@dataclass(frozen=True)
class ContaminationSpec:
    """Uniform-disc contamination: mixing weight plus disc geometry."""

    weight: float
    center: tuple[float, float] = (0.0, 2.0)
    radius: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight < 1.0:
            raise ValueError(f"contamination weight {self.weight} outside [0, 1)")
        if self.radius <= 0.0:
            raise ValueError("contamination radius must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def density(self) -> float:
        """Uniform probability density over the disc."""
        return 1.0 / (math.pi * self.radius**2)


@dataclass(frozen=True)
class MixtureParams:
    """Full readout mixture: two Gaussian clouds plus optional noise disc."""

    zero: ComponentParams
    one: ComponentParams
    noise: Optional[ContaminationSpec] = None

    def __post_init__(self) -> None:
        total = self.zero.weight + self.one.weight + self.noise_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total:.12g}, expected 1")

    @property
    def noise_weight(self) -> float:
        return self.noise.weight if self.noise is not None else 0.0

    @property
    def noise_density(self) -> float:
        if self.noise is None:
            raise ValueError("mixture has no contamination component")
        return self.noise.density()

    def weights(self) -> np.ndarray:
        return np.array([self.zero.weight, self.one.weight, self.noise_weight])

    def to_json_dict(self) -> dict:
        """Serialise as ``{"alpha", "mu", "sigma", "noise"}``."""
        out = {
            "alpha": [self.zero.weight, self.one.weight, self.noise_weight],
            "mu": [self.zero.mean.tolist(), self.one.mean.tolist()],
            "sigma": [self.zero.cov.tolist(), self.one.cov.tolist()],
            "noise": None,
        }
        if self.noise is not None:
            out["noise"] = {"center": list(self.noise.center), "radius": self.noise.radius}
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MixtureParams":
        alpha = [float(a) for a in obj["alpha"]]
        if len(alpha) != 3:
            raise ValueError("mixture alpha must have three entries")
        noise = None
        raw_noise = obj.get("noise")
        if raw_noise is not None:
            noise = ContaminationSpec(
                weight=alpha[2],
                center=tuple(float(v) for v in raw_noise["center"]),
                radius=float(raw_noise["radius"]),
            )
        elif alpha[2] > 0.0:
            raise ValueError("positive noise weight requires a noise geometry")
        return cls(
            zero=ComponentParams(alpha[0], np.asarray(obj["mu"][0]), np.asarray(obj["sigma"][0])),
            one=ComponentParams(alpha[1], np.asarray(obj["mu"][1]), np.asarray(obj["sigma"][1])),
            noise=noise,
        )


@dataclass(frozen=True)
class MembershipMatrix:
    """Per-sample class weights; rows sum to one.

    Two columns (zero, one) for ``hard``/``soft`` modes, three columns
    (zero, one, noise) for ``assignment`` mode.
    """

    rows: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown membership mode {self.mode!r}")
        rows = np.array(self.rows, dtype=float)
        expected_cols = 3 if self.mode == "assignment" else 2
        if rows.ndim != 2 or rows.shape[1] != expected_cols or rows.shape[0] < 1:
            raise ValueError(
                f"membership rows for mode {self.mode!r} must have shape "
                f"(n >= 1, {expected_cols}), got {rows.shape}"
            )
        if rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12:
            raise ValueError("membership weights must lie in [0, 1]")
        if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("membership rows must sum to 1")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class BVector:
    """Pauli expectation estimates (b_x, b_y, b_z) with one-sigma errors."""

    b: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.b, dtype=float).reshape(3)
        delta = np.array(self.delta, dtype=float).reshape(3)
        if not np.all(np.isfinite(b)):
            raise ValueError("b components must be finite")
        if delta.min() < 0.0 or not np.all(np.isfinite(delta)):
            raise ValueError("delta components must be finite and >= 0")
        b.flags.writeable = False
        delta.flags.writeable = False
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "delta", delta)


def mahalanobis_sq(x: np.ndarray, component: ComponentParams) -> float | np.ndarray:
    """Squared Mahalanobis distance of point(s) ``x`` to a component.

    Accepts a single (2,) point or an (n, 2) batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    diff = np.atleast_2d(x) - component.mean
    q = np.einsum("ni,ij,nj->n", diff, component.cov_inv, diff)
    q = np.maximum(q, 0.0)
    return float(q[0]) if single else q


def classify_hard(
    x: np.ndarray, theta0: ComponentParams, theta1: ComponentParams
) -> int | np.ndarray:
    """Nearest component by Mahalanobis distance; ties go to zero."""
    d0 = mahalanobis_sq(x, theta0)
    d1 = mahalanobis_sq(x, theta1)
    labels = np.where(np.atleast_1d(d0) <= np.atleast_1d(d1), LABEL_ZERO, LABEL_ONE)
    return int(labels[0]) if np.asarray(x).ndim == 1 else labels


def soft_membership(
    x: np.ndarray, theta0: ComponentParams, theta1: ComponentParams
) -> np.ndarray:
    """Softmax memberships on exponents X_c = -mahalanobis_sq(x, c).

    The largest exponent is subtracted before exponentiation so the result
    is finite for arbitrarily remote points.  Returns (gamma0, gamma1) for
    a single point or an (n, 2) array for a batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    exponents = np.stack(
        [-np.atleast_1d(mahalanobis_sq(x, theta0)), -np.atleast_1d(mahalanobis_sq(x, theta1))],
        axis=1,
    )
    exponents -= exponents.max(axis=1, keepdims=True)
    weights = np.exp(exponents)
    gamma = weights / weights.sum(axis=1, keepdims=True)
    return gamma[0] if single else gamma


def hard_b(n0: float, n1: float) -> float:
    """Expectation estimate (n0 - n1) / (n0 + n1) from assigned counts."""
    if n0 < 0 or n1 < 0 or n0 + n1 <= 0:
        raise ValueError("counts must be non-negative with n0 + n1 >= 1")
    return (n0 - n1) / (n0 + n1)


def delta_b(n0: float, n1: float) -> float:
    """Binomial one-sigma error 2 sqrt(n0 n1 / n^3) of :func:`hard_b`."""
    if n0 < 0 or n1 < 0 or n0 + n1 <= 0:
        raise ValueError("counts must be non-negative with n0 + n1 >= 1")
    n = n0 + n1
    return 2.0 * math.sqrt(n0 * n1 / n**3)


def b_from_memberships(memberships: MembershipMatrix) -> tuple[float, float]:
    """(b, delta_b) from a membership matrix via effective counts."""
    rows = memberships.rows
    n0_eff = math.fsum(rows[:, 0])
    n1_eff = math.fsum(rows[:, 1])
    if n0_eff + n1_eff <= 0.0:
        raise ValueError("all samples carry zero state mass (everything assigned to noise)")
    return hard_b(n0_eff, n1_eff), delta_b(n0_eff, n1_eff)


# ---------------------------------------------------------------------------
# EM calibration
# ---------------------------------------------------------------------------


def _log_gauss(points: np.ndarray, component: ComponentParams) -> np.ndarray:
    return -0.5 * mahalanobis_sq(points, component) - 0.5 * component.log_det - _LOG_2PI


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
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


def _kmeans_pp_init(points: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
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


def em_fit(
    dataset: "IQDataset",
    init: Optional[tuple[ComponentParams, ComponentParams]] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: Optional[int] = None,
    log_history: Optional[list] = None,
) -> MixtureParams:
    """Fit a two-component Gaussian mixture to the I-Q samples by EM.

    Parameters
    ----------
    dataset : IQDataset
        Readout records; only the (i, q) coordinates are used.
    init : (ComponentParams, ComponentParams), optional
        Explicit starting components; by default a seeded k-means++
        initialisation.
    max_iter, tol : int, float
        Iteration cap and relative log-likelihood convergence threshold.
    seed : int, optional
        Initialisation seed; defaults to a value derived from the dataset
        seed, so repeated fits of the same dataset are identical.
    log_history : list, optional
        If given, the per-iteration total log-likelihood is appended to it.

    Returns
    -------
    MixtureParams with ``noise_weight = 0``, components ordered so the one
    with the larger first mean coordinate is ``zero``.
    """
    points = dataset.points()
    n = points.shape[0]
    if n < 4:
        raise ValueError("EM needs at least four samples")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if init is None:
        if seed is None:
            seed = (dataset.seed ^ 0xE41B17) & 0xFFFFFFFFFFFFFFFF
        centers, assign = _kmeans_pp_init(points, seed)
        means = centers
        covs = []
        weights = np.empty(2)
        for c in range(2):
            sel = points[assign == c]
            weights[c] = max(sel.shape[0], 1) / n
            if sel.shape[0] >= 2:
                covs.append(_floor_covariance(np.cov(sel.T, bias=True)))
            else:
                covs.append(np.eye(2))
        weights = weights / weights.sum()
    else:
        theta0, theta1 = init
        means = np.stack([theta0.mean, theta1.mean])
        covs = [theta0.cov.copy(), theta1.cov.copy()]
        total = theta0.weight + theta1.weight
        if total <= 0.0:
            raise ValueError("initial component weights must not both be zero")
        weights = np.array([theta0.weight, theta1.weight]) / total

    log_lik_prev = None
    for _ in range(max_iter):
        comps = [
            ComponentParams(weights[c], means[c], covs[c]) for c in range(2)
        ]
        log_dens = np.stack(
            [np.log(max(weights[c], 1e-300)) + _log_gauss(points, comps[c]) for c in range(2)],
            axis=1,
        )
        top = log_dens.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_dens - top).sum(axis=1))
        log_lik = float(math.fsum(log_norm))
        if log_history is not None:
            log_history.append(log_lik)
        if log_lik_prev is not None:
            assert log_lik >= log_lik_prev - 1e-9, "EM log-likelihood decreased"
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
            new_covs.append(_floor_covariance(cov))
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


# ---------------------------------------------------------------------------
# Capacitated assignment
# ---------------------------------------------------------------------------


def capacities_from_weights(alpha: Sequence[float], n: int) -> np.ndarray:
    """Integer class capacities from weights by largest-remainder rounding."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise ValueError("expected three class weights")
    if alpha.min() < -1e-12:
        raise ValueError("class weights must be non-negative")
    if abs(alpha.sum() - 1.0) > 1e-9:
        raise ValueError(f"class weights sum to {alpha.sum():.12g}, expected 1")
    quota = np.clip(alpha, 0.0, None) * n
    caps = np.floor(quota).astype(int)
    remainder = n - int(caps.sum())
    if remainder < 0:
        raise ValueError("weights produced an infeasible quota")
    order = np.lexsort((np.arange(3), -(quota - caps)))
    for idx in order[:remainder]:
        caps[idx] += 1
    return caps


def _min_cost_assignment(cost: np.ndarray, caps: np.ndarray) -> np.ndarray:
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


def assignment_solve(
    dataset: "IQDataset",
    theta: MixtureParams,
    alpha: Optional[Sequence[float]] = None,
) -> MembershipMatrix:
    """Assign every sample to zero/one/noise under exact class capacities.

    Capacities are the largest-remainder rounding of ``alpha * n``; the
    objective is the summed class log-likelihood (Gaussian densities for
    the state classes, the uniform disc density for noise).
    """
    points = dataset.points()
    n = points.shape[0]
    if alpha is None:
        alpha = theta.weights()
    caps = capacities_from_weights(alpha, n)
    if caps[LABEL_NOISE] > 0 and theta.noise is None:
        raise ValueError("noise capacity is positive but the mixture has no noise component")

    cost = np.zeros((n, 3))
    cost[:, LABEL_ZERO] = -_log_gauss(points, theta.zero)
    cost[:, LABEL_ONE] = -_log_gauss(points, theta.one)
    if theta.noise is not None:
        cost[:, LABEL_NOISE] = -math.log(theta.noise_density)
    assign = _min_cost_assignment(cost, caps)
    rows = np.zeros((n, 3))
    rows[np.arange(n), assign] = 1.0
    return MembershipMatrix(rows=rows, mode="assignment")


# ---------------------------------------------------------------------------
# Dataset-level estimates
# ---------------------------------------------------------------------------


def memberships_for(dataset: "IQDataset", theta: MixtureParams, mode: str) -> MembershipMatrix:
    """Membership matrix of a dataset under the requested discrimination mode."""
    if mode not in MODES:
        raise ValueError(f"unknown discrimination mode {mode!r}")
    points = dataset.points()
    if mode == "hard":
        labels = classify_hard(points, theta.zero, theta.one)
        rows = np.zeros((points.shape[0], 2))
        rows[np.arange(points.shape[0]), labels] = 1.0
        return MembershipMatrix(rows=rows, mode="hard")
    if mode == "soft":
        return MembershipMatrix(rows=soft_membership(points, theta.zero, theta.one), mode="soft")
    return assignment_solve(dataset, theta)
