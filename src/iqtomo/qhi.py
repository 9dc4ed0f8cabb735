"""Quantum channel identification from tomographed trajectories.

A qubit channel that preserves trace and Hermiticity is an affine map of
Bloch vectors, ``r -> m r + t`` (Ruskai, Szarek & Werner, Linear Algebra
Appl. 347, 159, 2002).  ``ChannelSuperoperator`` takes it as the 4x4
superoperator ``g`` on row-major vec(rho), where a channel enters and
leaves the package, and reads ``m`` and ``t`` off ``G = P^H g P / 2``
once, for ``vec(rho) = P [1; r] / 2``.  Every step is ``r <- m r + t`` on
Python floats, checked against ``|r| <= 1 + 2e-12``, the one-qubit form of
``DensityMatrix``'s eigenvalue bound; a trajectory's states come from one
``density_columns`` pass.  Observation gives per-axis expectation
estimates, exactly or through the full sampled readout pipeline, drawing
each step's three axes in one pass (``draw_shots``) and classifying them
in one (``cloud_distances``, ``b_from_distances``).

Fitting regresses ``[1; r_s]`` on ``[1; r_(s-1)]`` in reals, each r read
off a state or from one pass of ``qst``'s closed form over the observed b
(``closed_form_bloch``, as ``qst_closed_form``).  It takes the
least-squares update of G that changes the identity least (directions the
data leave unconstrained keep it), then projects the Choi matrix of its
``g`` once onto the CPTP set by Dykstra between the PSD cone and the
trace-preserving affine set; each sweep forms each sum once.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .discriminate import (
    MODES,
    BVector,
    MixtureParams,
    b_from_distances,
    cloud_distances,
)
from .qcore import (
    EIGENVALUE_TOL,
    DensityMatrix,
    bloch_from_density,
    density_columns,
    json_integer,
    json_number,
    json_numbers,
    json_object,
    json_text,
    pauli,
    squared_norms,
)
from .qst import closed_form_bloch
from .readout import cloud_factors, draw_shots, outcome_counts, rekeyer, trajectory_seeds, write_text_atomic

# vec(rho) = _P @ [1, x, y, z] / 2 for the row-major vec; P^H P = 2 I
_P = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])
_HALF_PH = 0.5 * _P.conj().T
_E0 = np.eye(4)[0]
_EYE2 = np.eye(2)
_KRON_EYE2 = _EYE2.reshape(2, 1, 2, 1)
# a state's smaller eigenvalue is (1 - |r|) / 2, which DensityMatrix bounds below by -EIGENVALUE_TOL
_NORM_BOUND = 1.0 + 2.0 * EIGENVALUE_TOL

# CPTP projection stops once a Dykstra sweep moves its iterate by at most
# PROJECTION_TOL relative to the input's norm, or after PROJECTION_MAX_SWEEPS sweeps
PROJECTION_TOL = 1e-12
PROJECTION_MAX_SWEEPS = 10_000


class ProjectionWarning(UserWarning):
    """CPTP projection stopped on its sweep cap instead of its tolerance."""


class FitWarning(UserWarning):
    """Channel fit data leave some directions unconstrained."""


def choi_from_super(g: np.ndarray) -> np.ndarray:
    """Reshuffle a superoperator into its Choi matrix (an involution)."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {g.shape}")
    return g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4).copy()


@dataclass(frozen=True, eq=False)
class ChannelSuperoperator:
    """A trace-preserving, Hermiticity-preserving qubit channel: ``g`` on row-major
    vec(rho), and the Bloch map ``r -> m r + t`` read off ``G = P^H g P / 2`` as
    ``m = G[1:, 1:] / G[0, 0]`` and ``t = G[1:, 0] / G[0, 0]``.  ``g`` must be a
    finite 4x4 matrix whose G is finite, real and has first row ``e_0``, to 1e-9."""

    g: np.ndarray
    m: np.ndarray = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=complex)
        if g.shape != (4, 4):
            raise ValueError(f"superoperator must be 4x4, got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("superoperator entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            big = _HALF_PH @ g @ _P
        if not np.isfinite(big).all():
            raise ValueError("superoperator's Bloch map overflows")
        if np.abs(big[0] - _E0).max() > 1e-9:
            raise ValueError("superoperator is not trace preserving")
        if np.abs(big.imag).max() > 1e-9:
            raise ValueError("superoperator is not Hermiticity preserving")
        affine = big.real / big[0, 0].real
        for name, value in (("g", g), ("m", affine[1:, 1:]), ("t", affine[1:, 0])):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _path(self, r: np.ndarray, n_steps: int) -> np.ndarray:
        """``r`` and ``n_steps`` steps ``r <- m r + t`` from it, as (n_steps + 1, 3) rows;
        ValueError names the first step whose ``|r|`` is above 1 + 2e-12 or NaN."""
        affine = list(zip(self.m.tolist(), self.t.tolist()))
        rows = [r.tolist()]
        for step in range(1, n_steps + 1):
            x, y, z = rows[-1]
            rows.append([m0 * x + m1 * y + m2 * z + t for (m0, m1, m2), t in affine])
            norm = math.hypot(*rows[-1])
            if not norm <= _NORM_BOUND:
                raise ValueError(f"step {step}: Bloch vector norm {norm!r} exceeds 1")
        return np.array(rows)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """One step ``r <- m r + t`` of ``rho``'s Bloch vector, as ``simulate_trajectory`` takes it.

        Raises ValueError for a ``rho`` that is not a ``DensityMatrix``, and
        for a result whose ``|r|`` is above ``1 + 2e-12``.
        """
        if not isinstance(rho, DensityMatrix):
            raise ValueError(f"rho must be a DensityMatrix, got {type(rho).__name__}")
        return DensityMatrix(density_columns(self._path(bloch_from_density(rho), 1)[1:]).reshape(2, 2))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """A CPTP Choi matrix: Hermitian, PSD, Tr_out = identity (all to 1e-9)."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.c, dtype=complex)
        if c.shape != (4, 4):
            raise ValueError(f"Choi matrix must be 4x4, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("Choi matrix entries must be finite")
        # in halves, which cannot overflow where c + c^H could and scale exactly
        half = 0.5 * c
        if np.abs(half - half.conj().T).max() > 0.5e-9:
            raise ValueError("Choi matrix is not Hermitian")
        if np.linalg.eigvalsh(half + half.conj().T).min() < -1e-9:
            raise ValueError("Choi matrix is not positive semidefinite")
        if np.abs(half[:2, :2] + half[2:, 2:] - 0.5 * np.eye(2)).max() > 0.5e-9:  # Tr_out
            raise ValueError("Choi matrix does not preserve the trace")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def unitary_superoperator(u: np.ndarray) -> ChannelSuperoperator:
    """Superoperator of conjugation by a unitary: ``g = u (x) conj(u)``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 unitary, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(2)).max() > 1e-9:
        raise ValueError("matrix is not unitary")
    return ChannelSuperoperator(np.kron(u, u.conj()))


def step_unitary(axis: str, rate: float, dt: float) -> np.ndarray:
    """One-step propagator exp(-i rate * sigma_axis * dt), from the eigenvectors
    ``v`` of ``rate * sigma_axis``: column k is ``v @ (phases * conj(v)[k])``."""
    w, v = np.linalg.eigh(rate * pauli(axis))
    phases = np.exp(-1j * w * float(dt))
    # one matrix-vector product per column: (v * phases) @ v^H rounds differently
    return np.stack([v @ (phases * v.conj()[k]) for k in range(2)], axis=1)


def _header(tid, dt) -> tuple[int, float]:
    """``(id, dt)`` as Python numbers: an integer id >= 0 and a finite dt > 0."""
    trajectory_id = json_integer(tid, "trajectory id", 0)
    dt_value = json_number(dt, "trajectory dt")
    if dt_value <= 0.0:
        raise ValueError(f"trajectory dt must be > 0, got {dt!r}")
    return trajectory_id, dt_value


@dataclass(frozen=True)
class Trajectory:
    """States (``DensityMatrix``) and/or observations (``BVector``) of one simulated evolution."""

    trajectory_id: int
    dt: float
    states: Optional[tuple[DensityMatrix, ...]] = None
    observations: Optional[tuple[BVector, ...]] = None

    def __post_init__(self) -> None:
        trajectory_id, dt = _header(self.trajectory_id, self.dt)
        object.__setattr__(self, "trajectory_id", trajectory_id)
        object.__setattr__(self, "dt", dt)
        if self.states is None and self.observations is None:
            raise ValueError("trajectory needs states or observations")
        for name, kind in (("states", DensityMatrix), ("observations", BVector)):
            wrong = [type(item).__name__ for item in getattr(self, name) or () if not isinstance(item, kind)]
            if wrong:
                raise ValueError(f"trajectory {name} must hold {kind.__name__} instances, got {wrong[0]}")
        if self.steps < 1:
            raise ValueError("trajectory must contain at least two steps")
        if (
            self.states is not None
            and self.observations is not None
            and len(self.states) != len(self.observations)
        ):
            raise ValueError("states and observations must have equal length")

    @property
    def steps(self) -> int:
        length = len(self.states) if self.states is not None else len(self.observations)
        return length - 1


def simulate_trajectory(
    channel: ChannelSuperoperator,
    rho0: DensityMatrix,
    n_steps: int,
    trajectory_id: int = 0,
    dt: float = 0.02,
) -> Trajectory:
    """Apply the channel ``n_steps`` times to ``rho0``'s Bloch vector; ``rho0`` is the first state.

    Raises ValueError for a ``channel`` that is not a ``ChannelSuperoperator``,
    an ``rho0`` that is not a ``DensityMatrix``, an ``n_steps`` that is not an
    integer >= 1 (``True`` is not one), or a step as ``apply`` does.
    """
    n_steps = json_integer(n_steps, "n_steps", 1)
    if not isinstance(channel, ChannelSuperoperator):
        raise ValueError(f"channel must be a ChannelSuperoperator, got {type(channel).__name__}")
    if not isinstance(rho0, DensityMatrix):
        raise ValueError(f"rho0 must be a DensityMatrix, got {type(rho0).__name__}")
    columns = density_columns(channel._path(bloch_from_density(rho0), n_steps)[1:])
    states = (rho0, *(DensityMatrix(column.reshape(2, 2)) for column in columns.T))
    return Trajectory(trajectory_id=trajectory_id, dt=dt, states=states)


def observe_trajectory(
    trajectory: Trajectory,
    mode: str = "exact",
    n: Optional[int] = None,
    theta: Optional[MixtureParams] = None,
    seed: Optional[int] = None,
    discriminator: str = "hard",
) -> Trajectory:
    """Attach per-step expectation estimates to a trajectory.

    ``exact`` reads the Bloch vector of each state directly; ``sampled``
    runs the full readout pipeline (outcome sampling, I-Q synthesis,
    discrimination by ``discriminator``, ``"hard"`` or ``"soft"``) with
    ``n`` shots per axis per step.

    Sampled b and delta_b equal, bit for bit, those of ``simulate_axis``
    with outcome seed ``mix_seed(stream, 1)`` and I-Q seed
    ``mix_seed(stream, 2)``, then ``memberships_for`` and
    ``b_from_memberships``, for ``stream = mix_seed(seed, trajectory_id,
    step, axis index)``, all derived in one pass.  The three axes of a step
    are drawn together into one pair of I-Q columns, in segments by class,
    by one generator re-keyed per block from one state template; their
    distances and labels are taken in one call each, and each axis counts or
    sums over its own segments.  This skips the dataset's shuffle, which changes
    neither a label count nor an exactly rounded sum.  ``n`` must be an
    integer in [1, 2**63) and ``seed`` one in [0, 2**64).
    """
    if not isinstance(trajectory, Trajectory):
        raise ValueError(f"trajectory must be a Trajectory, got {type(trajectory).__name__}")
    if trajectory.states is None:
        raise ValueError("observation requires simulated states")
    observations: list[BVector] = []
    if mode == "exact":
        for state in trajectory.states:
            observations.append(BVector(b=bloch_from_density(state), delta=np.zeros(3)))
    elif mode == "sampled":
        if n is None or theta is None or seed is None:
            raise ValueError("sampled observation needs n, theta and seed")
        if not isinstance(theta, MixtureParams):
            raise ValueError(f"theta must be a MixtureParams, got {type(theta).__name__}")
        if discriminator == "assignment":
            # its capacities come from theta's weights, so b would not depend on the shots
            raise ValueError("sampled observation cannot discriminate with 'assignment'")
        if discriminator not in MODES:
            raise ValueError(f"unknown discrimination mode {discriminator!r}")
        n = json_integer(n, "shot count", 1, 2**63)
        seed = json_integer(seed, "seed", 0, 2**64)
        factors = cloud_factors(theta.zero, theta.one)
        rekey = rekeyer(np.random.Generator(np.random.Philox(key=0)))
        seeds = trajectory_seeds(seed, trajectory.trajectory_id, len(trajectory.states))
        for state, step_seeds in zip(trajectory.states, seeds):
            r = bloch_from_density(state).tolist()
            counts = [outcome_counts(r_a, n, s[1], rekey) for r_a, s in zip(r, step_seeds)]
            i, q, blocks = draw_shots(counts, [s[2] for s in step_seeds], factors, theta.noise, rekey)
            b, delta = zip(*b_from_distances(*cloud_distances(i, q, theta), discriminator, blocks))
            observations.append(BVector(b=b, delta=delta))
    else:
        raise ValueError(f"unknown observation mode {mode!r}")
    return replace(trajectory, observations=tuple(observations))


def save_trajectory(trajectory: Trajectory, path: str) -> None:
    """Write the observations as JSON-lines: header {id, dt}, then {step, b, delta} per step.

    Raises ValueError for a trajectory that has not been observed.
    """
    if trajectory.observations is None:
        raise ValueError("only an observed trajectory can be saved")
    header = {"id": trajectory.trajectory_id, "dt": trajectory.dt}
    lines = [json.dumps(header, sort_keys=True, allow_nan=False)]
    for step, observation in enumerate(trajectory.observations):
        record = {"step": step, "b": observation.b.tolist(), "delta": observation.delta.tolist()}
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_trajectory(path: str) -> Trajectory:
    """Read the observations written by :func:`save_trajectory`.

    Any defect raises ValueError naming its 1-based line.  The header must be
    ``{"id": <integer >= 0>, "dt": <finite number > 0>}``; record k must be
    ``{"step": k, "b": [three finite numbers], "delta": [three finite
    numbers >= 0]}``, with no other key.  Blank lines are skipped.  The
    trajectory has no states.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(n, raw) for n, raw in enumerate(handle.read().splitlines(), 1) if raw.strip()]
    lineno = lines[-1][0] + 1 if lines else 1  # a missing line follows the last one
    try:
        if len(lines) < 3:
            raise ValueError("a trajectory needs a header line and at least two steps")
        lineno, raw = lines[0]
        header = json_object(
            json_text(raw, "trajectory header"), "trajectory header", required=("id", "dt")
        )
        trajectory_id, dt = _header(header["id"], header["dt"])
        observations = []
        for position, (lineno, raw) in enumerate(lines[1:]):
            record = json_object(
                json_text(raw, "trajectory record"),
                "trajectory record",
                required=("step", "b", "delta"),
            )
            step = record["step"]
            if type(step) is not int or step != position:
                raise ValueError(f"expected step {position}, got {step!r}")
            b = json_numbers(record["b"], (3,), "trajectory b")
            delta = json_numbers(record["delta"], (3,), "trajectory delta")
            observations.append(BVector(b=b, delta=delta))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    return Trajectory(trajectory_id=trajectory_id, dt=dt, observations=tuple(observations))


# ---------------------------------------------------------------------------
# CPTP projection and channel fitting
# ---------------------------------------------------------------------------


def _tp_project(c: np.ndarray) -> np.ndarray:
    deficit = _EYE2 - (c[:2, :2] + c[2:, 2:])  # identity less Tr_out c
    # np.kron(np.eye(2), deficit / 2.0) without its Python overhead: the same
    # broadcast product, so off the diagonal blocks it adds the same signed zeros
    return c + (_KRON_EYE2 * (deficit / 2.0).reshape(1, 2, 1, 2)).reshape(4, 4)


def cptp_project(h: np.ndarray) -> ChoiMatrix:
    """Project a Hermitian 4x4 matrix onto the CPTP Choi set (Frobenius).

    Dykstra alternation between the PSD cone and the affine set of
    trace-preserving Choi matrices; warns if the sweep cap
    ``PROJECTION_MAX_SWEEPS`` is reached before ``PROJECTION_TOL``.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {h.shape}")
    x = 0.5 * (h + h.conj().T)
    scale = max(1.0, float(np.linalg.norm(x)))
    p = q = np.zeros_like(x)
    for _ in range(PROJECTION_MAX_SWEEPS):
        # each sum once: p = s - y has the bits of x + p - y, and q = t - x those of y + q - x
        s = x + p
        w, v = np.linalg.eigh(0.5 * (s + s.conj().T))
        y = (v * np.maximum(w, 0.0)) @ v.conj().T
        p = s - y
        t = y + q
        x = _tp_project(t)
        q = t - x
        if np.linalg.norm(y - x) <= PROJECTION_TOL * scale:
            break
    else:
        warnings.warn(
            f"CPTP projection did not reach tolerance {PROJECTION_TOL} "
            f"in {PROJECTION_MAX_SWEEPS} sweeps",
            ProjectionWarning,
        )
    out = 0.5 * (x + x.conj().T)
    # the affine step ran last, so trace preservation is exact; clip the
    # residual negative eigenvalue mass left by finite Dykstra sweeps
    w, v = np.linalg.eigh(out)
    if w.min() < 0.0:
        out = (v * np.maximum(w, 0.0)) @ v.conj().T
        out = _tp_project(0.5 * (out + out.conj().T))
        # stopped on the sweep cap, that step can leave an eigenvalue below
        # ChoiMatrix's -1e-9 (same matrix as its check): mix in just enough
        # of the trace-preserving, positive definite I/2 to lift it to zero
        low = float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min())
        if low < -1e-9:
            t = -low / (0.5 - low)
            out = (1.0 - t) * out + (0.5 * t) * np.eye(4)
    return ChoiMatrix(out)


def fit_channel(
    trajectories: Sequence[Trajectory],
    mode: str = "from_states",
    loss_history: Optional[list] = None,
) -> tuple[ChannelSuperoperator, float]:
    """Fit a CPTP channel to consecutive state pairs, regressing ``[1; r_s]`` on ``[1; r_(s-1)]``.

    Each r is read off a state (``from_states``) or is ``closed_form_bloch`` of
    an observed b (``from_qst``).  Takes the least-squares update of the Bloch
    map G that changes the identity least, so directions below the SVD noise
    floor keep the identity, then projects the Choi matrix of its ``g`` onto
    the CPTP set once.  Returns the channel and its loss, also appended to
    ``loss_history`` if given:

        sum_ij || rho_ij - unvec(g vec(rho_i,j-1)) ||_F^2 = sum_ij |r_ij - m r_i,j-1 - t|^2 / 2
    """
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    for k, trajectory in enumerate(trajectories):
        if not isinstance(trajectory, Trajectory):
            raise ValueError(f"trajectories[{k}] must be a Trajectory, got {type(trajectory).__name__}")
    first = np.concatenate([np.arange(trajectory.steps + 1) == 0 for trajectory in trajectories])
    last = np.roll(first, -1)  # a trajectory's last step precedes the next one's first
    if mode == "from_states":
        if any(trajectory.states is None for trajectory in trajectories):
            raise ValueError("from_states fit requires simulated states")
        r = np.array([bloch_from_density(rho) for t in trajectories for rho in t.states])
    elif mode == "from_qst":
        if any(trajectory.observations is None for trajectory in trajectories):
            raise ValueError("from_qst fit requires observations")
        observations = [obs for trajectory in trajectories for obs in trajectory.observations]
        r = closed_form_bloch(np.array([obs.b for obs in observations]))
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    columns = np.concatenate([np.ones((1, len(r))), r.T])
    x = np.compress(~last, columns, axis=1)
    y = np.compress(~first, columns, axis=1)

    # x's singular values are those of the vec(rho) columns times sqrt(2)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    floor = s[0] * 1e-12
    if mode == "from_qst":
        # shot noise perturbs the singular values of x by roughly the
        # Frobenius norm of the column uncertainties (|delta| per column);
        # directions below twice that carry no usable signal and would only
        # amplify noise through the pseudoinverse
        delta = np.compress(~last, np.array([obs.delta for obs in observations]), axis=0)
        delta_sq = float(np.cumsum(squared_norms(delta))[-1])  # a running sum, in step order
        floor = max(floor, 2.0 * math.sqrt(delta_sq))
    keep = s > floor
    rank = int(np.count_nonzero(keep))
    if rank < 4:
        warnings.warn(
            f"trajectory data span only {rank} of 4 state directions; "
            "the least-squares fit is not unique",
            FitWarning,
        )
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    x_pinv = (vh.T * inv_s) @ u.T

    candidate = np.eye(4) - (x - y) @ x_pinv  # G; x and y share their first row of ones
    g = choi_from_super(cptp_project(choi_from_super(_P @ candidate @ _HALF_PH)).c)
    channel = ChannelSuperoperator(g)
    loss = 0.5 * float(np.linalg.norm(y[1:] - channel.m @ x[1:] - channel.t[:, None]) ** 2)
    if loss_history is not None:
        loss_history.append(loss)
    return channel, loss
