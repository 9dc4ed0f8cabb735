"""Minimal complex linear algebra for single-qubit states.

Conventions used throughout the package:

* Pauli matrices in the standard basis, ``sigma_y = [[0, -i], [i, 0]]``.
* ``vec`` is row-major: ``vec(m) = (m[0,0], m[0,1], m[1,0], m[1,1])``.
* Bloch components are ``r_I = Tr(sigma_I rho)`` for I in (x, y, z).

Density matrices are validated on construction (unit trace, Hermitian,
positive semidefinite up to 1e-12), so any `DensityMatrix` instance in
the rest of the package can be trusted to be physical.  ``json_object``
and ``json_numbers`` check parsed JSON before any of the package's types
are built from it.
"""

from __future__ import annotations

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


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorisation of a d x d matrix into a d^2 vector."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"vec expects a square matrix, got shape {m.shape}")
    return m.reshape(-1).copy()


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"unvec expects a square length, got {v.size}")
    return v.reshape(d, d).copy()


def measurement_matrix() -> np.ndarray:
    """Stack of the three Pauli functionals as rows acting on vec(rho).

    Returns the 3 x 4 complex matrix ``A`` with ``A[I] = vec(sigma_I)^dagger``
    so that ``A @ vec(rho)`` equals the Bloch vector of ``rho`` (real up to
    roundoff for Hermitian input).
    """
    return np.stack([vec(_PAULI[a]).conj() for a in AXES])


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

    Construction rejects matrices that are not Hermitian, not unit trace,
    or have an eigenvalue below ``-1e-12``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {m.trace():.16g} != 1")
        if np.linalg.eigvalsh(m).min() < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def bloch(self) -> np.ndarray:
        return bloch_from_density(self)

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


def bloch_from_density(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Bloch vector ``(Tr(sigma_x rho), Tr(sigma_y rho), Tr(sigma_z rho))``."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    out = measurement_matrix() @ m.reshape(-1)
    if np.abs(out.imag).max() > 1e-9:
        raise ValueError("Bloch components have a non-negligible imaginary part")
    return out.real.copy()


def density_from_bloch(r: np.ndarray) -> DensityMatrix:
    """Build ``(1 + r . sigma) / 2``; requires ``|r| <= 1`` up to 1e-9.

    A norm in ``(1, 1 + 1e-9]`` is treated as roundoff and rescaled onto
    the Bloch sphere so the result stays positive semidefinite.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {norm:.12g} exceeds 1")
    if norm > 1.0:
        r = r / norm
    m = 0.5 * (np.eye(2, dtype=complex) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
    return DensityMatrix(m)


def frobenius_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    return float(np.linalg.norm(ma - mb))


def evolve_state(hamiltonian: np.ndarray, t: float, psi0: np.ndarray) -> np.ndarray:
    """Evolve a pure state: ``psi(t) = exp(-i H t) psi0``.

    Uses the Hermitian eigendecomposition of ``H``; the result keeps the
    norm of ``psi0`` up to roundoff.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("Hamiltonian must be Hermitian")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match the Hamiltonian")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * float(t))
    return v @ (phases * (v.conj().T @ psi0))
