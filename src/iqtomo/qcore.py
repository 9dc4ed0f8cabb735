"""Single-qubit states in closed form.

Conventions used throughout the package:

* Pauli matrices in the standard basis, ``sigma_y = [[0, -i], [i, 0]]``.
* Matrices are vectorised row-major, ``vec(m) = m.reshape(4) =
  (m[0,0], m[0,1], m[1,0], m[1,1])``.
* Bloch components are ``r_I = Tr(sigma_I rho)`` for I in (x, y, z).

Density matrices are validated on construction, so any `DensityMatrix`
instance in the rest of the package can be trusted to be physical.  The
four entries are checked as Python scalars, in this order:

* every entry is finite;
* Hermitian: ``|Im m00|``, ``|Im m11|`` and ``|m01/2 - conj(m10)/2|`` are at
  most ``1e-12 / 2``;
* unit trace: ``|m00 + m11 - 1| <= 1e-12``;
* positive semidefinite: the smaller eigenvalue of the Hermitian matrix
  with lower triangle ``(a, m10, d)``, ``a = Re m00``, ``d = Re m11`` (what
  ``numpy.linalg.eigvalsh`` reads), is
  ``(a + d)/2 - hypot((a - d)/2, |m10|)`` and must be at least ``-1e-12``.

The Hermiticity and eigenvalue checks work in halves and with
``math.hypot``, which cannot overflow where ``m - m^H``, ``a + d`` or
``abs()`` of a Python complex could; the trace is a Python complex sum,
which overflows to ``inf`` without a warning and fails its check.
``density_columns`` builds ``vec((I + r . sigma) / 2)`` for each row of an
(m, 3) array with the additions and roundings of numpy's
``0.5 * (I + x sigma_x + y sigma_y + z sigma_z)``, so its entries, signed
zeros included, are those of the matrix expression; ``density_from_bloch``
is its one-row case, and ``squared_norms`` gives each row's ``row.dot(row)``.
``bloch_from_density`` reads the Bloch vector off the entries with three
real sums, each started from +0, which are the bits of ``A @ vec(rho)`` for
the complex 3 x 4 measurement matrix ``A[I] = conj(vec(sigma_I))``.
Every file the package reads is parsed with ``json_text`` and checked with
``json_object``, ``json_integer``, ``json_number`` and ``json_numbers`` before
any of the package's types are built from it; the types that store a count,
seed, id or step size check it with the same two scalar rules.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

AXES = ("x", "y", "z")


def pauli(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for ``axis`` in ('x', 'y', 'z')."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of 'x', 'y', 'z'")


def json_object(obj, name: str, required: Sequence[str] = (), optional: Sequence[str] = ()) -> dict:
    """``obj``, checked to be a JSON object with the given keys.

    Every ``required`` key must be present and no key outside ``required``
    and ``optional``; ValueError otherwise.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{name} is missing key(s): {', '.join(missing)}")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(sorted(unknown))}")
    return obj


def json_text(raw: str, name: str):
    """``raw`` parsed as JSON; ValueError ``invalid JSON in <name>: ...`` otherwise,
    also for text nested too deeply or an integer too long for the parser."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"invalid JSON in {name}: {getattr(exc, 'msg', exc)}") from exc


def json_integer(item, name: str, low: int, end: Optional[int] = None) -> int:
    """``item`` as an int: a Python or numpy integer, not ``true``/``false``, in
    ``[low, end)``, or at least ``low`` if ``end`` is None; ValueError otherwise."""
    if isinstance(item, numbers.Integral) and not isinstance(item, bool):
        value = int(item)
        if low <= value and (end is None or value < end):
            return value
    if end is None:
        bound = f">= {low}"
    elif end.bit_count() == 1:  # a power of two reads as one: [0, 2**64)
        bound = f"in [{low}, 2**{end.bit_length() - 1})"
    else:
        bound = f"in [{low}, {end})"
    raise ValueError(f"{name} must be an integer {bound}, got {item!r}")


def json_number(item, name: str) -> float:
    """``item`` as a float: a finite real number (numpy's among them), not
    ``true``/``false`` or a number written as a string; NaN, infinities and
    integers beyond the float range raise ValueError."""
    if isinstance(item, bool) or not isinstance(item, numbers.Real):
        raise ValueError(f"{name} must hold JSON numbers, got {item!r}")
    try:
        number = float(item)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must hold finite numbers, got {item!r}")
    return number


def json_numbers(value, shape: Sequence[int], name: str) -> np.ndarray:
    """Float array of ``shape`` from nested JSON lists of :func:`json_number` items;
    ValueError for lists of another shape."""

    def convert(item, dims):
        if not dims:
            return json_number(item, name)
        if not isinstance(item, list) or len(item) != dims[0]:
            raise ValueError(f"{name} must be a {list(shape)} list of numbers, got {item!r}")
        return [convert(sub, dims[1:]) for sub in item]

    return np.array(convert(value, tuple(shape)), dtype=float)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated qubit density matrix.

    Construction rejects matrices with a non-finite entry, and those that
    are not Hermitian, not unit trace, or have an eigenvalue below ``-1e-12``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        (m00, m01), (m10, m11) = m.tolist()
        if not all(map(cmath.isfinite, (m00, m01, m10, m11))):
            raise ValueError("density matrix entries must be finite")
        # in halves, which cannot overflow where m - m^H could and scale exactly
        off = math.hypot(0.5 * m01.real - 0.5 * m10.real, 0.5 * m01.imag + 0.5 * m10.imag)
        if max(abs(m00.imag), abs(m11.imag), off) > 0.5 * HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = m00 + m11  # Python complex: overflows to inf silently
        if math.hypot(trace.real - 1.0, trace.imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace:.16g} != 1")
        # the smaller eigenvalue of the lower triangle, as eigvalsh reads it
        a, d = 0.5 * m00.real, 0.5 * m11.real
        if a + d - math.hypot(a - d, m10.real, m10.imag) < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def to_json_dict(self) -> dict:
        """Serialise as ``{"re": [[...]], "im": [[...]]}`` (row-major)."""
        return {
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DensityMatrix":
        """Inverse of :meth:`to_json_dict`; ValueError for any other shape."""
        obj = json_object(obj, "density matrix", required=("re", "im"))
        re = json_numbers(obj["re"], (2, 2), "density matrix re")
        return cls(re + 1j * json_numbers(obj["im"], (2, 2), "density matrix im"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return bool(np.array_equal(self.matrix, other.matrix))


def bloch_from_density(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector ``(Tr(sigma_x rho), Tr(sigma_y rho), Tr(sigma_z rho))``, as
    ``((0 + Re m01) + Re m10, (0 - Im m01) + Im m10, (0 + Re m00) - Re m11)``."""
    (m00, m01), (m10, m11) = rho.matrix.tolist()
    return np.array([(0.0 + m01.real) + m10.real, (0.0 - m01.imag) + m10.imag, (0.0 + m00.real) - m11.real])


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """``row.dot(row)`` of each row of a 2-d array, with its bits."""
    # (1, 3) @ (3, 1) runs numpy's dot kernel, as row.dot(row) does: the same bits (einsum's differ)
    return (rows[:, None, :] @ rows[:, :, None]).reshape(-1)


def density_columns(r: np.ndarray) -> np.ndarray:
    """``vec((I + r . sigma) / 2)`` of each row of an (m, 3) array, as (4, m) columns.

    Requires ``|r| <= 1`` up to 1e-9.  A norm in ``(1, 1 + 1e-9]`` is treated
    as roundoff and rescaled onto the Bloch sphere so the state stays
    positive semidefinite.
    """
    norm = np.sqrt(squared_norms(r))  # numpy.linalg.norm's own sum of squares, so the same bits
    if (norm > 1.0 + 1e-9).any():
        raise ValueError(f"Bloch vector norm {norm[norm > 1.0 + 1e-9][0]:.12g} exceeds 1")
    x, y, z = (r / np.where(norm > 1.0, norm, 1.0)[:, None]).T  # a division by 1.0 is exact
    # numpy's sums for I + x sigma_x + y sigma_y + z sigma_z: 1 + z and 1 - z
    # on the diagonal, with imaginary part +0; off it, real part 0 + x and
    # imaginary parts 0 - y and 0 + y (the other terms are signed zeros that
    # change none of these), then the product with the complex 0.5, whose
    # signed-zero terms change nothing either: a sum started from +0 is never -0
    columns = np.array([0.5 * (1.0 + z), 0.5 * (0.0 + x), 0.5 * (0.0 + x), 0.5 * (1.0 - z)], dtype=complex)
    columns.imag[1], columns.imag[2] = 0.5 * (0.0 - y), 0.5 * (0.0 + y)
    return columns


def density_from_bloch(r: np.ndarray) -> DensityMatrix:
    """Build ``(1 + r . sigma) / 2``, the one-row :func:`density_columns`."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    return DensityMatrix(density_columns(r[None]).reshape(2, 2))


def frobenius_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    return float(np.linalg.norm(ma - mb))
