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
``density_from_bloch`` builds ``(I + r . sigma) / 2`` entry by entry with
the additions and roundings of numpy's
``0.5 * (I + x sigma_x + y sigma_y + z sigma_z)``, so its entries, signed
zeros included, are those of the matrix expression.
``bloch_from_density`` reads the Bloch vector off the entries with three
real sums, each started from +0, which are the bits of ``A @ vec(rho)`` for
the complex 3 x 4 measurement matrix ``A[I] = conj(vec(sigma_I))``.
``json_object`` and ``json_numbers`` check parsed JSON before any of the
package's types are built from it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

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
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return obj


def json_numbers(value, shape: Sequence[int], name: str) -> np.ndarray:
    """Float array of ``shape`` from nested JSON lists of finite numbers.

    ``true``/``false``, numbers written as strings, other shapes, NaN,
    infinities and integers beyond the float range raise ValueError.
    """

    def convert(item, dims):
        if dims:
            if not isinstance(item, list) or len(item) != dims[0]:
                raise ValueError(f"{name} must be a {list(shape)} list of numbers, got {item!r}")
            return [convert(sub, dims[1:]) for sub in item]
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{name} must hold JSON numbers, got {item!r}")
        try:
            number = float(item)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"{name} must hold finite numbers, got {item!r}")
        return number

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


def density_from_bloch(r: np.ndarray) -> DensityMatrix:
    """Build ``(1 + r . sigma) / 2``; requires ``|r| <= 1`` up to 1e-9.

    A norm in ``(1, 1 + 1e-9]`` is treated as roundoff and rescaled onto
    the Bloch sphere so the result stays positive semidefinite.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    norm = math.sqrt(r.dot(r))  # numpy.linalg.norm's own sum of squares, so the same bits
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {norm:.12g} exceeds 1")
    x, y, z = r.tolist()
    if norm > 1.0:
        x, y, z = x / norm, y / norm, z / norm
    # numpy's sums for I + x sigma_x + y sigma_y + z sigma_z: 1 + z and 1 - z
    # on the diagonal, with imaginary part +0; off it, real part 0 + x and
    # imaginary parts 0 - y and 0 + y (the other terms are signed zeros that
    # change none of these), then the product with the complex 0.5, whose
    # signed-zero terms change nothing either: a sum started from +0 is never -0
    u, v, w = 0.0 + x, 0.0 - y, 0.0 + y
    return DensityMatrix(
        [
            [complex(0.5 * (1.0 + z), 0.0), complex(0.5 * u, 0.5 * v)],
            [complex(0.5 * u, 0.5 * w), complex(0.5 * (1.0 - z), 0.0)],
        ]
    )


def frobenius_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    return float(np.linalg.norm(ma - mb))
