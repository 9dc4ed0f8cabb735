"""State discrimination on I-Q plane readout records.

Calibration fits a two-component Gaussian mixture with EM; classification
offers three routes of increasing sophistication:

* ``hard``       -- Mahalanobis nearest-component argmax,
* ``soft``       -- softmax memberships on negated squared distances,
* ``assignment`` -- capacitated assignment with an optional noise class,
  solved exactly by sorting the samples on their cost difference between
  the two states and choosing the best split point.

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

from .qcore import json_numbers, json_object

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
        if not np.isfinite(mean).all():
            raise ValueError(f"component mean {mean.tolist()} must be finite")
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        a, b, c, log_det = _inverse_2x2(cov[0, 0], cov[0, 1], cov[1, 1])
        cov_inv = np.array([[a, b], [b, c]])
        for arr in (mean, cov, cov_inv):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "cov_inv", cov_inv)
        object.__setattr__(self, "log_det", log_det)


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
        """Inverse of :meth:`to_json_dict`; ValueError for any other shape."""
        obj = json_object(obj, "mixture", required=("alpha", "mu", "sigma"), optional=("noise",))
        alpha = json_numbers(obj["alpha"], (3,), "mixture alpha").tolist()
        mu = json_numbers(obj["mu"], (2, 2), "mixture mu")
        sigma = json_numbers(obj["sigma"], (2, 2, 2), "mixture sigma")
        noise = None
        if obj.get("noise") is not None:
            raw_noise = json_object(obj["noise"], "mixture noise", required=("center", "radius"))
            noise = ContaminationSpec(
                weight=alpha[2],
                center=tuple(json_numbers(raw_noise["center"], (2,), "mixture noise center")),
                radius=float(json_numbers(raw_noise["radius"], (), "mixture noise radius")),
            )
        elif alpha[2] > 0.0:
            raise ValueError("positive noise weight requires a noise geometry")
        return cls(
            zero=ComponentParams(alpha[0], mu[0], sigma[0]),
            one=ComponentParams(alpha[1], mu[1], sigma[1]),
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


# ---------------------------------------------------------------------------
# 2x2 Gaussian kernel
# ---------------------------------------------------------------------------


def _two_product(x: float, y: float) -> tuple[float, float]:
    """(p, e) with p = fl(x * y) and p + e = x * y exactly (Dekker's product)."""
    p = x * y
    t = 134217729.0 * x  # 2**27 + 1 splits a double into two 26-bit halves
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = 134217729.0 * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def _det_2x2(s00: float, s01: float, s11: float) -> float:
    """s00 * s11 - s01**2, correctly rounded however much the products cancel."""
    p, e = _two_product(s00, s11)
    r, f = _two_product(s01, s01)
    return math.fsum((p, e, -r, -f))


def _min_eigenvalue(s00: float, s01: float, s11: float) -> float:
    """Smallest eigenvalue of [[s00, s01], [s01, s11]]; NaN for non-finite entries."""
    half_trace = 0.5 * (s00 + s11)
    radius = math.hypot(0.5 * (s00 - s11), s01)
    if half_trace + radius > 0.0:
        # det / largest eigenvalue avoids the cancellation in half_trace - radius
        return _det_2x2(s00, s01, s11) / (half_trace + radius)
    return half_trace - radius


def _inverse_2x2(s00: float, s01: float, s11: float) -> tuple[float, float, float, float]:
    """Inverse entries (a, b, c) and log-determinant of [[s00, s01], [s01, s11]].

    Raises ValueError unless the covariance is positive definite (smallest
    eigenvalue > 1e-10) and the closed-form inverse reproduces the identity
    to 1e-9.
    """
    s00, s01, s11 = float(s00), float(s01), float(s11)
    if not _min_eigenvalue(s00, s01, s11) > 1e-10:
        raise ValueError("covariance must be positive definite")
    det = _det_2x2(s00, s01, s11)
    a, b, c = s11 / det, -s01 / det, s00 / det
    residual = max(
        abs(a * s00 + b * s01 - 1.0),
        abs(a * s01 + b * s11),
        abs(b * s00 + c * s01),
        abs(b * s01 + c * s11 - 1.0),
    )
    if residual > 1e-9:
        raise ValueError("covariance is too ill-conditioned to invert")
    return a, b, c, math.log(det)


def _dist_sq(
    i: np.ndarray, q: np.ndarray, mean: Sequence[float], inv: Sequence[float]
) -> np.ndarray:
    """Squared distance a*di**2 + 2*b*di*dq + c*dq**2 of each (i, q) from ``mean``.

    ``inv`` holds the entries (a, b, c) of the inverse covariance
    [[a, b], [b, c]]; the result is clipped at zero against rounding.
    """
    a, b, c = inv
    di = i - mean[0]
    dq = q - mean[1]
    # a * di * di + 2.0 * b * di * dq + c * dq * dq, term by term in that
    # order, with two temporaries instead of one array per operation
    out = np.multiply(a, di)
    out *= di
    term = np.multiply(2.0 * b, di)
    term *= dq
    out += term
    np.multiply(c, dq, out=term)
    term *= dq
    out += term
    return np.maximum(out, 0.0, out=out)


def _log_density(
    i: np.ndarray,
    q: np.ndarray,
    mean: Sequence[float],
    inv: Sequence[float],
    log_det: float,
) -> np.ndarray:
    """Gaussian log-density -dist/2 - log_det/2 - log(2 pi) at each (i, q)."""
    out = _dist_sq(i, q, mean, inv)
    out *= -0.5
    out -= 0.5 * log_det
    out -= _LOG_2PI
    return out


def _inv_entries(component: ComponentParams) -> tuple[float, float, float]:
    inv = component.cov_inv
    return float(inv[0, 0]), float(inv[0, 1]), float(inv[1, 1])


def _log_gauss(points: np.ndarray, component: ComponentParams) -> np.ndarray:
    return _log_density(
        points[:, 0], points[:, 1], component.mean, _inv_entries(component), component.log_det
    )


def mahalanobis_sq(x: np.ndarray, component: ComponentParams) -> float | np.ndarray:
    """Squared Mahalanobis distance of point(s) ``x`` to a component.

    Accepts a single (2,) point or an (n, 2) batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    q = _dist_sq(x[:, 0], x[:, 1], component.mean, _inv_entries(component))
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


def _cov_entries(cov: np.ndarray) -> tuple[float, float, float]:
    """(s00, s01, s11) of a 2x2 covariance, averaging the off-diagonal pair."""
    return float(cov[0, 0]), 0.5 * (float(cov[0, 1]) + float(cov[1, 0])), float(cov[1, 1])


def _floor_covariance(s00: float, s01: float, s11: float) -> tuple[float, float, float]:
    """Covariance entries with every eigenvalue raised to at least COVARIANCE_FLOOR."""
    if _min_eigenvalue(s00, s01, s11) >= COVARIANCE_FLOOR:
        return s00, s01, s11
    w, v = np.linalg.eigh(np.array([[s00, s01], [s01, s11]]))
    warnings.warn(
        f"degenerate cluster: covariance eigenvalue {w.min():.3g} floored at "
        f"{COVARIANCE_FLOOR:g}",
        CalibrationWarning,
    )
    return _cov_entries((v * np.maximum(w, COVARIANCE_FLOOR)) @ v.T)


def _kmeans_pp_init(i: np.ndarray, q: np.ndarray, seed: int) -> tuple[tuple[int, int], np.ndarray]:
    """Seeded k-means++ pick of two centre samples, and each sample's nearer centre.

    Returns the indices of the two centres and a mask that is True where a
    sample lies strictly closer to the second; ties go to the first.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n = i.size
    first = int(rng.integers(n))
    d_first = (i - i[first]) ** 2 + (q - q[first]) ** 2
    total = d_first.sum()
    if total <= 0.0:
        second = (first + 1) % n
    else:
        second = int(rng.choice(n, p=d_first / total))
    d_second = (i - i[second]) ** 2 + (q - q[second]) ** 2
    return (first, second), d_second < d_first


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

    Raises
    ------
    ValueError
        If the log-likelihood falls by more than 1e-9 from one iteration to
        the next, or a component covariance stops being invertible.
    """
    i, q = dataset.i, dataset.q
    n = i.size
    if n < 4:
        raise ValueError("EM needs at least four samples")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if init is None:
        if seed is None:
            seed = (dataset.seed ^ 0xE41B17) & 0xFFFFFFFFFFFFFFFF
        centers, to_second = _kmeans_pp_init(i, q, seed)
        means = [(float(i[k]), float(q[k])) for k in centers]
        covs = []
        weights = np.empty(2)
        for c, mask in enumerate((~to_second, to_second)):
            # np.cov of the transposed (m, 2) rows: its sums follow that memory layout
            sel = np.stack([i[mask], q[mask]], axis=1)
            weights[c] = max(sel.shape[0], 1) / n
            if sel.shape[0] >= 2:
                covs.append(_floor_covariance(*_cov_entries(np.cov(sel.T, bias=True))))
            else:
                covs.append((1.0, 0.0, 1.0))
        weights = weights / weights.sum()
    else:
        theta0, theta1 = init
        means = [(float(t.mean[0]), float(t.mean[1])) for t in init]
        covs = [_cov_entries(t.cov) for t in init]
        total = theta0.weight + theta1.weight
        if total <= 0.0:
            raise ValueError("initial component weights must not both be zero")
        weights = np.array([theta0.weight, theta1.weight]) / total

    log_lik_prev = None
    for iteration in range(1, max_iter + 1):
        log_dens = []
        for c in range(2):
            *inv, log_det = _inverse_2x2(*covs[c])
            log_dens.append(
                math.log(max(weights[c], 1e-300)) + _log_density(i, q, means[c], inv, log_det)
            )
        log_norm = np.maximum(log_dens[0], log_dens[1]) + np.log1p(
            np.exp(-np.abs(log_dens[0] - log_dens[1]))
        )
        log_lik = float(np.sum(log_norm))
        if log_history is not None:
            log_history.append(log_lik)
        if log_lik_prev is not None:
            if log_lik < log_lik_prev - 1e-9:
                raise ValueError(
                    f"EM log-likelihood decreased at iteration {iteration} "
                    f"by {log_lik_prev - log_lik:.3g} (from {log_lik_prev!r} to {log_lik!r})"
                )
            if abs(log_lik - log_lik_prev) <= tol * (1.0 + abs(log_lik)):
                break
        log_lik_prev = log_lik
        gamma = [np.exp(log_dens[c] - log_norm) for c in range(2)]
        weights, means, covs = _m_step(i, q, gamma, means)

    if means[0][0] < means[1][0]:
        means = means[::-1]
        covs = covs[::-1]
        weights = weights[::-1]
    zero, one = (
        ComponentParams(w, np.array(mean), np.array([[s00, s01], [s01, s11]]))
        for w, mean, (s00, s01, s11) in zip(weights, means, covs)
    )
    return MixtureParams(zero=zero, one=one, noise=None)


def _m_step(
    i: np.ndarray,
    q: np.ndarray,
    gamma: list[np.ndarray],
    means: list[tuple[float, float]],
) -> tuple[np.ndarray, list[tuple[float, float]], list[tuple[float, float, float]]]:
    """Weights, means and floored covariances from the responsibility columns."""
    mass = np.array([g.sum() for g in gamma])
    new_means = []
    new_covs = []
    for c, g in enumerate(gamma):
        if mass[c] < 1e-10:
            warnings.warn(
                f"EM component {c} became degenerate; covariance floored",
                CalibrationWarning,
            )
            new_means.append(means[c])
            new_covs.append((COVARIANCE_FLOOR, 0.0, COVARIANCE_FLOOR))
            mass[c] = 1e-10
            continue
        m = float(mass[c])
        mean_i = float(g @ i) / m
        mean_q = float(g @ q) / m
        di = i - mean_i
        dq = q - mean_q
        gdi = g * di
        s00 = float(gdi @ di) / m
        s01 = float(gdi @ dq) / m
        s11 = float(np.multiply(g, dq, out=gdi) @ dq) / m
        new_means.append((mean_i, mean_q))
        new_covs.append(_floor_covariance(s00, s01, s11))
    return mass / mass.sum(), new_means, new_covs


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


def _k_smallest_sums(values: np.ndarray, k: int) -> np.ndarray:
    """Rows (sum, swaps) of the k smallest of ``values[:t]`` for t = k..len(values).

    Each value enters and leaves the sum at most once, so its rounding error
    stays below ``len * 2**-51 * sum(|values|)``.  Equal swaps, equal sets.
    """
    vals = values.tolist()
    heap = sorted(-v for v in vals[:k])  # a sorted list is a heap
    rows = [(math.fsum(vals[:k]), 0)]
    for v in vals[k:]:
        total, swaps = rows[-1]
        if k and v < -heap[0]:
            total, swaps = total + (v + heapq.heapreplace(heap, -v)), swaps + 1
        rows.append((total, swaps))
    return np.array(rows).T


def _sort_and_split(c0: np.ndarray, c1: np.ndarray, caps: Sequence[int]) -> np.ndarray:
    """Labels minimising the summed zero/one costs with exactly ``caps`` per class.

    The other caps[2] samples are noise, at the same cost whichever they are.
    Sort by the exact d = c0 - c1, ties by index.  Swapping a one sample with
    a later zero changes the cost by d_one - d_zero <= 0, so some optimum puts
    every zero first: for a split t in [k0, n - k1], the k0 smallest c0 of the
    first t samples and the k1 smallest c1 of the rest, ties in sort order.
    Splits within rounding error of the least running total are compared
    exactly (``math.fsum``); the smallest t among the minima also gives
    identical samples their classes in index order.
    """
    n, (k0, k1, k2) = c0.size, (int(k) for k in caps)
    if min(k0, k1, k2) < 0 or k0 + k1 + k2 != n:
        raise ValueError(f"capacities {[k0, k1, k2]} do not split {n} samples")
    if not np.isfinite([c0, c1]).all():
        raise ValueError("assignment costs overflow: a sample lies too far from both clouds")
    d = c0 - c1
    back = d - c0  # two-sum: d + ((c0 - (d - back)) - (c1 + back)) == c0 - c1 exactly
    order = np.lexsort(((c0 - (d - back)) - (c1 + back), d))
    a, b = c0[order], c1[order]
    head = _k_smallest_sums(a[: n - k1], k0)
    tail = _k_smallest_sums(b[k0:][::-1], k1)[:, ::-1]
    total = head[0] + tail[0]
    bound = total.min() + n * 2.0**-50 * (np.abs(a).sum() + np.abs(b).sum())
    moved = np.r_[True, np.diff(head[1] - tail[1]) != 0]  # else the same sets as at t - 1
    best = None
    for t in (k0 + np.flatnonzero(moved & (total <= bound))).tolist():
        zero = np.argsort(a[:t], kind="stable")[:k0]
        one = t + np.argsort(b[t:], kind="stable")[:k1]
        costs = a[zero].tolist() + b[one].tolist()
        if best is None or math.fsum(costs + [-c for c in best[0]]) < 0.0:
            best = costs, order[zero], order[one]
    assign = np.full(n, LABEL_NOISE)
    assign[best[1]], assign[best[2]] = LABEL_ZERO, LABEL_ONE
    return assign


def assignment_solve(
    dataset: "IQDataset", theta: MixtureParams, alpha: Optional[Sequence[float]] = None
) -> MembershipMatrix:
    """Assign every sample to zero/one/noise under exact class capacities.

    Capacities round ``alpha * n`` by largest remainder.  The objective is the
    summed class log-likelihood; noise adds k2 * log(disc density) whichever
    samples it holds, so only the Gaussian columns enter :func:`_sort_and_split`.
    """
    points = dataset.points()
    caps = capacities_from_weights(theta.weights() if alpha is None else alpha, points.shape[0])
    if caps[LABEL_NOISE] > 0 and theta.noise is None:
        raise ValueError("noise capacity is positive but the mixture has no noise component")
    assign = _sort_and_split(-_log_gauss(points, theta.zero), -_log_gauss(points, theta.one), caps)
    return MembershipMatrix(rows=np.eye(3)[assign], mode="assignment")


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
