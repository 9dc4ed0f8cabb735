"""State discrimination on I-Q plane readout records.

Calibration fits a two-component Gaussian mixture with EM, started from the
exact two-means cut of the samples along their principal axis, so a fit is
a function of the coordinates alone.  EM works on the sufficient statistics
(1, x, y, x**2, x*y, y**2) of the samples centred at their mean, one (6, n)
matrix per fit: each E-step is one product of the two components' natural
parameters with it, each M-step one product of the responsibilities with
it.  No sum of a fit is split across BLAS threads, so its bits do not
depend on the thread count.  Classification offers three routes of
increasing sophistication:

* ``hard``       -- Mahalanobis nearest-component argmax,
* ``soft``       -- softmax memberships on negated squared distances,
* ``assignment`` -- capacitated assignment with an optional noise class,
  solved exactly by sorting the samples on their cost difference between
  the two states and choosing the best split point.

All three start from one distance path: :func:`cloud_distances` reads each
cloud's mean and inverse covariance from the mixture, gives each sample's
squared Mahalanobis distances to the two clouds, and rejects with a
ValueError, never a label or a numpy warning, a sample whose distance
overflows.  Assignment costs and EM's E-step share one rule for the
negated Gaussian log-density of a distance (:func:`_gaussian_cost`): EM
applies it to each mean's squared distance from the samples' mean, the
constant term of the natural parameters.
Each route gives an expectation-value estimate ``b`` and its one-sigma
error ``delta_b`` from effective counts: hard labels are counted, soft and
assignment memberships summed exactly.  Hard and soft need no membership
matrix: :func:`b_from_distances` counts each block's labels, or sums the
softmax of (-d0, -d1) over it, straight from the two distance arrays.  The
exact sum (:func:`_exact_sum`) equals ``math.fsum`` bit for bit without a
Python list: it splits every ``np.frexp`` mantissa into two integer halves,
totals them per exponent with ``np.bincount`` and divides the combined
Python int once.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .qcore import json_number, json_numbers, json_object

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .readout import IQDataset

LABEL_ZERO = 0
LABEL_ONE = 1
LABEL_NOISE = 2
LABEL_NAMES = ("zero", "one", "noise")

MODES = ("hard", "soft", "assignment")

_LOG_2PI = math.log(2.0 * math.pi)

COVARIANCE_FLOOR = 1e-6

# EM stops once the log-likelihood changes by at most this much relative to its size
EM_TOL = 1e-8

# EM warns and stops after this many iterations if it has not converged
EM_MAX_ITER = 200


class CalibrationWarning(UserWarning):
    """Raised when EM floors a degenerate covariance or stops at its iteration cap."""


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
        if not np.isfinite(cov).all():
            raise ValueError(f"component covariance {cov.tolist()} must be finite")
        # in halves, which cannot overflow where cov - cov.T could and scale exactly
        half, half_t = 0.5 * cov, 0.5 * cov.T
        if np.abs(half - half_t).max() > 0.5e-9:
            raise ValueError("covariance must be symmetric")
        cov = half + half_t
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
        if json_number(self.radius, "contamination radius") <= 0.0:
            raise ValueError("contamination radius must be positive")
        center = tuple(json_numbers(list(self.center), (2,), "contamination center").tolist())
        # a point drawn in the disc then rounds to a finite coordinate
        if not all(math.isfinite(abs(c) + self.radius) for c in center):
            raise ValueError("contamination disc reaches past the largest double")
        object.__setattr__(self, "center", center)


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
        rows = np.array(self.rows, dtype=float)
        if not np.isfinite(rows).all():
            raise ValueError("membership weights must be finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown membership mode {self.mode!r}")
        expected_cols = 3 if self.mode == "assignment" else 2
        if rows.ndim != 2 or rows.shape[1] != expected_cols or rows.shape[0] < 1:
            raise ValueError(
                f"membership rows for mode {self.mode!r} must have shape "
                f"(n >= 1, {expected_cols}), got {rows.shape}"
            )
        if rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12:
            raise ValueError("membership weights must lie in [0, 1]")
        # the row sums column by column, in the order of rows.sum(axis=1), whose
        # reduction over a short axis costs most of a hard matrix's construction
        totals = rows[:, 0] + rows[:, 1]
        if expected_cols == 3:
            totals += rows[:, 2]
        if np.abs(totals - 1.0).max() > 1e-9:
            raise ValueError("membership rows must sum to 1")
        if self.mode == "hard" and not np.all((rows == 0.0) | (rows == 1.0)):
            raise ValueError("hard membership rows must be one-hot")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class BVector:
    """Pauli expectation estimates (b_x, b_y, b_z) with one-sigma errors."""

    b: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.b, dtype=float).reshape(3)
        delta = np.array(self.delta, dtype=float).reshape(3)
        if not all(map(math.isfinite, b.tolist())):
            raise ValueError("b components must be finite")
        values = delta.tolist()
        if not (all(map(math.isfinite, values)) and min(values) >= 0.0):
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
    # the exact products of _det_2x2 overflow for entries past about 2**511, so
    # such entries are scaled by 2**-shift (exact); smaller ones get shift = 0
    shift = max(0, max(math.frexp(s)[1] for s in (s00, s01, s11)) - 500)
    s00, s01, s11 = (math.ldexp(s, -shift) for s in (s00, s01, s11))
    if not _min_eigenvalue(s00, s01, s11) > math.ldexp(1e-10, -shift):
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
    a, b, c = (math.ldexp(x, -shift) for x in (a, b, c))
    return a, b, c, math.log(det) + 2 * shift * math.log(2.0)


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


def _gaussian_cost(d: np.ndarray, log_det: float) -> np.ndarray:
    """Negated Gaussian log-density 0.5*d + 0.5*log_det + log(2 pi) at squared distance ``d``.

    EM's E-step and the assignment objective both use this one rule.  Round
    to nearest is symmetric in sign, so the negation equals the log-density
    -d/2 - log_det/2 - log(2 pi), summed in that order, bit for bit but for
    the sign of an exact zero.
    """
    cost = 0.5 * d
    cost += 0.5 * log_det
    cost += _LOG_2PI
    return cost


# the end of every message that rejects an overflowing distance or cost
_TOO_FAR = "a sample lies too far from both clouds"


def cloud_distances(
    i: np.ndarray, q: np.ndarray, theta: MixtureParams
) -> tuple[np.ndarray, np.ndarray]:
    """Squared Mahalanobis distances (d0, d1) of each sample to ``theta``'s two clouds.

    A distance that is not finite raises ValueError, and no numpy warning.  A
    non-finite coordinate always makes one (the inverse covariance has a
    positive diagonal), so that case is told apart only on failure.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below instead
        d0, d1 = (
            _dist_sq(i, q, c.mean, (c.cov_inv[0, 0], c.cov_inv[0, 1], c.cov_inv[1, 1]))
            for c in (theta.zero, theta.one)
        )
    if d0.max() < math.inf and d1.max() < math.inf:  # False for inf and for NaN
        return d0, d1
    if not (np.isfinite(i).all() and np.isfinite(q).all()):
        raise ValueError("i/q coordinates must be finite")
    raise ValueError(f"squared distances overflow: {_TOO_FAR}")


def _hard_ones(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """True where a sample is strictly nearer the one cloud: hard labels, ties to zero."""
    return d0 > d1


def _soft_columns(d0: np.ndarray, d1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax memberships (w0, w1) on the exponents (-d0, -d1), largest subtracted first.

    With m = max(-d0, -d1) and e_k = exp(-d_k - m), w_k = e_k / (e0 + e1),
    rounded step for step as the row-wise softmax of the (n, 2) stack.
    """
    e0, e1 = np.negative(d0), np.negative(d1)
    scale = np.maximum(e0, e1)  # m, then e0 + e1
    e0 -= scale
    e1 -= scale
    np.exp(e0, out=e0)
    np.exp(e1, out=e1)
    np.add(e0, e1, out=scale)
    e0 /= scale
    e1 /= scale
    return e0, e1


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


def _counted_b(n: int, n1: int) -> tuple[float, float]:
    """(b, delta_b) of ``n`` hard labels, ``n1`` of them one, counted as floats: the one-hot column sums."""
    return hard_b(float(n - n1), float(n1)), delta_b(float(n - n1), float(n1))


# values per block of _exact_sum: each half-mantissa is below 2**27 in size, so
# bincount's float totals over a block stay below 2**53 and are exact
_SUM_BLOCK = 2**26


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` bit for bit, for finite ``x``, without the list.

    ``np.frexp`` writes each value as M * 2**(e - 53) with an integer
    |M| < 2**53, split as M = hi * 2**26 + lo with 0 <= lo < 2**26.  Per block
    of at most ``_SUM_BLOCK`` values, ``np.bincount`` totals hi and lo for
    each exponent exactly; the totals of every block are combined as one
    Python int, and a single int/int division rounds the exact sum
    correctly, as ``math.fsum`` does.
    """
    mant, exp = np.frexp(x)
    mant *= 2.0**53
    hi = np.floor(mant * 2.0**-26)
    lo = mant - hi * 2.0**26
    low = int(exp.min(initial=0))  # <= 0, so the scale 2**(low - 53) is a division
    exp -= low
    total = 0
    for start in range(0, x.size, _SUM_BLOCK):
        stop = start + _SUM_BLOCK
        for half, shift in ((hi, 26), (lo, 0)):
            bins = np.bincount(exp[start:stop], weights=half[start:stop]).astype(np.int64)
            total += sum(map(int.__lshift__, bins.tolist(), range(shift, shift + bins.size)))
    return total / (1 << (53 - low))


def _summed_b(w0: np.ndarray, w1: np.ndarray) -> tuple[float, float]:
    """(b, delta_b) from the exactly rounded sums of the zero and one weights."""
    n0_eff = _exact_sum(w0)
    n1_eff = _exact_sum(w1)
    if n0_eff + n1_eff <= 0.0:
        raise ValueError("all samples carry zero state mass (everything assigned to noise)")
    return hard_b(n0_eff, n1_eff), delta_b(n0_eff, n1_eff)


def b_from_memberships(memberships: MembershipMatrix) -> tuple[float, float]:
    """(b, delta_b) from a membership matrix via effective counts.

    Hard rows are one-hot, so their column sums are label counts.
    """
    if memberships.mode == "hard":
        return _counted_b(len(memberships.rows), int(np.count_nonzero(memberships.rows[:, 1] == 1.0)))
    return _summed_b(memberships.rows[:, 0], memberships.rows[:, 1])


def b_from_distances(
    d0: np.ndarray, d1: np.ndarray, mode: str, blocks: Sequence[Sequence[slice]]
) -> list[tuple[float, float]]:
    """(b, delta_b) of each block, a list of slices, of samples at squared distances (d0, d1).

    Each equals ``b_from_memberships(memberships_for(...))`` of the block's
    samples for ``hard`` and ``soft``, with no membership matrix: hard labels
    are taken once and counted slice by slice; soft memberships are one
    column softmax, gathered and summed exactly per block.
    """
    if mode == "hard":
        ones = _hard_ones(d0, d1)
        segments = [[ones[cut] for cut in block] for block in blocks]
        return [_counted_b(sum(s.size for s in b), sum(map(np.count_nonzero, b))) for b in segments]
    if mode == "soft":
        ws = _soft_columns(d0, d1)  # a block of one slice is summed as a view: concatenate would copy it
        pairs = ([w[b[0]] if len(b) == 1 else np.concatenate([w[c] for c in b]) for w in ws] for b in blocks)
        return [_summed_b(*pair) for pair in pairs]
    raise ValueError(f"b from distances needs mode 'hard' or 'soft', got {mode!r}")


# ---------------------------------------------------------------------------
# EM calibration
# ---------------------------------------------------------------------------


def _floor_covariance(s00: float, s01: float, s11: float) -> tuple[float, float, float]:
    """Covariance entries with every eigenvalue raised to at least COVARIANCE_FLOOR."""
    if _min_eigenvalue(s00, s01, s11) >= COVARIANCE_FLOOR:
        return s00, s01, s11
    w, v = np.linalg.eigh(np.array([[s00, s01], [s01, s11]]))
    warnings.warn(
        f"degenerate cluster: covariance eigenvalue {w.min():.3g} floored at {COVARIANCE_FLOOR:g}",
        CalibrationWarning,
    )
    cov = ((v * np.maximum(w, COVARIANCE_FLOOR)) @ v.T).tolist()
    return cov[0][0], 0.5 * (cov[0][1] + cov[1][0]), cov[1][1]


def _statistics(i: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Rows 1, x, y, x**2, x*y, y**2 of the samples centred at their mean, and that mean.

    An overflow leaves inf or NaN in a row, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centre = float(i.mean()), float(q.mean())
        x, y = i - centre[0], q - centre[1]
        return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y]), centre


def _principal_cut(stats: np.ndarray) -> np.ndarray:
    """The exact 2-means split of the samples' projections on their principal axis.

    The axis is the leading eigenvector (cos t, sin t) of the scatter (numpy
    sums of the x**2, x*y, y**2 rows of :func:`_statistics`),
    t = atan2(s01, (s00 - s11) / 2) / 2.  The projections are cut between two
    distinct sorted values where the between-group sum of squares
    (n S_k - k T)**2 / (n k (n - k)) is largest (S_k the sum of the k smallest,
    T the total), by its square root, which cannot overflow.  The mask is False
    on the first sample's side.  ValueError if the samples all coincide or
    their scatter overflows.
    """
    n = stats.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        s00, s01, s11 = stats[3:].sum(axis=1).tolist()
    if not all(map(math.isfinite, (s00, s01, s11))):
        raise ValueError(f"principal-axis scatter overflows: {_TOO_FAR}")
    t = 0.5 * math.atan2(s01, 0.5 * s00 - 0.5 * s11)
    proj = math.cos(t) * stats[1]
    proj += math.sin(t) * stats[2]
    ordered = np.sort(proj)
    sums = np.cumsum(ordered)
    k = np.arange(1.0, n)
    gap = np.abs(n * sums[:-1] - k * sums[-1]) / np.sqrt(n * k * (n - k))
    gap[ordered[1:] == ordered[:-1]] = -1.0  # no cut between equal projections
    cut = int(np.argmax(gap))
    if gap[cut] < 0.0:
        raise ValueError("EM needs samples at two or more distinct points")
    upper = proj > ordered[cut]
    return ~upper if upper[0] else upper


def em_fit(dataset: "IQDataset", log_history: Optional[list] = None) -> MixtureParams:
    """Fit a two-component Gaussian mixture to the I-Q samples by EM.

    EM starts from the two sides of :func:`_principal_cut` (the exact
    2-means cut of the samples along their principal axis): each side's
    share of the samples, mean and floored covariance.  The start involves
    no random draw, so the fit depends on the (i, q) coordinates alone.  EM
    stops once the log-likelihood changes by at most ``EM_TOL`` relative to
    its size; a run that reaches ``EM_MAX_ITER`` iterations first warns
    ``CalibrationWarning`` with its last relative change.  If ``log_history``
    is given, the per-iteration total log-likelihood is appended to it.

    Each E-step is one product of the components' natural parameters with
    the (6, n) :func:`_statistics`, its constant :func:`_gaussian_cost` at
    the mean's squared distance; each M-step one product of the (2, n)
    responsibilities with them.  No BLAS thread splits these sums, so the
    bits do not depend on the thread count.  The moment form's error grows
    like (separation / sigma)**2 * eps: about 1e-9 at 2000 sigma.

    Returns
    -------
    MixtureParams with ``noise_weight = 0``, components ordered so the one
    with the larger first mean coordinate is ``zero``.

    Raises
    ------
    ValueError
        If the log-likelihood falls by more than 1e-9 from one iteration to
        the next, or a component covariance stops being invertible; if the
        samples all coincide; or if their scatter overflows (a sample lies
        too far from the rest).
    """
    i, q = dataset.i, dataset.q
    if i.size < 4:
        raise ValueError("EM needs at least four samples")
    stats, centre = _statistics(i, q)
    upper = _principal_cut(stats)
    # one M-step on the split's hard memberships; both sides hold a sample,
    # so no previous mean is ever carried over
    weights, means, covs = _m_step(stats, np.array([~upper, upper], dtype=float), [(0.0, 0.0)] * 2)
    natural = np.empty((2, 6))  # log-density = natural @ stats
    log_lik_prev, change = None, math.inf
    for iteration in range(1, EM_MAX_ITER + 1):
        for k, ((mi, mq), (s00, s01, s11)) in enumerate(zip(means, covs)):
            a, b, c, log_det = _inverse_2x2(s00, s01, s11)
            ei, eq = a * mi + b * mq, b * mi + c * mq
            cost = _gaussian_cost(max(mi * ei + mq * eq, 0.0), log_det)
            natural[k] = math.log(max(weights[k], 1e-300)) - cost, ei, eq, -0.5 * a, -b, -0.5 * c
        log_dens = natural @ stats
        # max + log1p(exp(min - max)); min - max is -|d0 - d1| exactly
        log_norm = np.maximum(log_dens[0], log_dens[1])
        gap = np.minimum(log_dens[0], log_dens[1]) - log_norm
        log_norm += np.log1p(np.exp(gap, out=gap), out=gap)
        log_lik = float(np.sum(log_norm))
        if log_history is not None:
            log_history.append(log_lik)
        if log_lik_prev is not None:
            if log_lik < log_lik_prev - 1e-9:
                raise ValueError(
                    f"EM log-likelihood decreased at iteration {iteration} "
                    f"by {log_lik_prev - log_lik:.3g} (from {log_lik_prev!r} to {log_lik!r})"
                )
            step = abs(log_lik - log_lik_prev)
            if step <= EM_TOL * (1.0 + abs(log_lik)):
                break
            change = step / (1.0 + abs(log_lik))
        log_lik_prev = log_lik
        log_dens -= log_norm
        weights, means, covs = _m_step(stats, np.exp(log_dens, out=log_dens), means)
    else:
        warnings.warn(
            f"EM stopped at max_iter={EM_MAX_ITER} before converging: last relative "
            f"log-likelihood change {change:.3g} (EM_TOL {EM_TOL:g})",
            CalibrationWarning,
        )

    means = [(mi + centre[0], mq + centre[1]) for mi, mq in means]
    if means[0][0] < means[1][0]:
        means, covs, weights = means[::-1], covs[::-1], weights[::-1]
    zero, one = (
        ComponentParams(w, np.array(mean), np.array([[s00, s01], [s01, s11]]))
        for w, mean, (s00, s01, s11) in zip(weights, means, covs)
    )
    return MixtureParams(zero=zero, one=one, noise=None)


def _m_step(stats: np.ndarray, gamma: np.ndarray, means: list) -> tuple[np.ndarray, list, list]:
    """Weights, centred means and floored covariances of the (2, n) responsibilities.

    Masses and moments come from one product ``gamma @ stats.T``."""
    moments = gamma @ stats.T
    mass = moments[:, 0].copy()
    new_means, new_covs = [], []
    for k, (m, si, sq, sii, siq, sqq) in enumerate(moments.tolist()):
        if m < 1e-10:
            warnings.warn(f"EM component {k} became degenerate; covariance floored", CalibrationWarning)
            new_means.append(means[k])
            new_covs.append((COVARIANCE_FLOOR, 0.0, COVARIANCE_FLOOR))
            mass[k] = 1e-10
            continue
        mi, mq = si / m, sq / m
        new_means.append((mi, mq))
        new_covs.append(_floor_covariance(sii / m - mi * mi, siq / m - mi * mq, sqq / m - mq * mq))
    return mass / mass.sum(), new_means, new_covs


# ---------------------------------------------------------------------------
# Capacitated assignment
# ---------------------------------------------------------------------------


def capacities_from_weights(alpha: Sequence[float], n: int) -> np.ndarray:
    """Integer class capacities from weights by largest-remainder rounding."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise ValueError("expected three class weights")
    if not np.isfinite(alpha).all():
        raise ValueError(f"class weights must be finite, got {alpha.tolist()}")
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
    The k-th smallest only falls, so only values below its first level are
    visited; the rows between two swaps repeat the earlier one.
    """
    heap = np.sort(-values[:k], kind="stable").tolist()  # a sorted list is a heap
    sums = [_exact_sum(values[:k])]
    at = np.zeros(values.size - k + 1, dtype=np.intp)  # row -> swaps up to it
    rest = values[k:]
    seen = np.flatnonzero(rest < (-heap[0] if k else -math.inf))
    for t, v in zip(seen.tolist(), rest[seen].tolist()):
        if v < -heap[0]:
            sums.append(sums[-1] + (v + heapq.heapreplace(heap, -v)))
            at[t + 1] = len(sums) - 1
    at = np.maximum.accumulate(at)
    return np.array([np.array(sums)[at], at])


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
        raise ValueError(f"assignment costs overflow: {_TOO_FAR}")
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


# ---------------------------------------------------------------------------
# Dataset-level estimates
# ---------------------------------------------------------------------------


def memberships_for(dataset: "IQDataset", theta: MixtureParams, mode: str) -> MembershipMatrix:
    """Membership matrix of a dataset under the requested discrimination mode.

    Every mode classifies by the distances of :func:`cloud_distances`, so a
    sample so remote that its distance overflows raises ValueError.
    ``assignment`` takes its class capacities from the mixture weights,
    rounded by largest remainder.
    """
    if mode not in MODES:
        raise ValueError(f"unknown discrimination mode {mode!r}")
    d0, d1 = cloud_distances(dataset.i, dataset.q, theta)
    if mode == "soft":
        return MembershipMatrix(rows=np.stack(_soft_columns(d0, d1), axis=1), mode="soft")
    if mode == "assignment":
        caps = capacities_from_weights(theta.weights(), d0.size)
        costs = _gaussian_cost(d0, theta.zero.log_det), _gaussian_cost(d1, theta.one.log_det)
        assign = _sort_and_split(*costs, caps)
        return MembershipMatrix(rows=np.eye(3)[assign], mode="assignment")
    ones = _hard_ones(d0, d1)
    rows = np.empty((ones.size, 2))
    rows[:, 0] = ~ones
    rows[:, 1] = ones
    return MembershipMatrix(rows=rows, mode="hard")


def b_for(dataset: "IQDataset", theta: MixtureParams, mode: str) -> tuple[float, float]:
    """(b, delta_b) of a dataset: ``b_from_memberships(memberships_for(dataset, theta, mode))``.

    ``hard`` and ``soft`` take it straight from the cloud distances
    (:func:`b_from_distances`), with no membership matrix; ``assignment``
    sums the memberships its solver assigns.
    """
    if mode == "assignment":
        return b_from_memberships(memberships_for(dataset, theta, mode))
    if mode not in MODES:
        raise ValueError(f"unknown discrimination mode {mode!r}")
    return b_from_distances(*cloud_distances(dataset.i, dataset.q, theta), mode, [[slice(None)]])[0]
