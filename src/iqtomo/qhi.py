"""Quantum channel identification from tomographed trajectories.

A discrete-time channel acts on row-major vectorised states through a
4x4 superoperator ``g``; for unitary dynamics ``g = U (x) conj(U)``.
Trajectories are repeated applications of ``g``; observation converts
each state into per-axis expectation estimates, either exactly or via
the full sampled readout pipeline.

Sampled observation gives the same b and delta_b, bit for bit, as
simulating and discriminating one dataset per (step, axis) block.  It
computes once per trajectory what no block changes: the Bloch vector of
every state, both clouds' singularity check and Cholesky factor, and one
Philox generator.  Per block it re-keys that generator to draw the outcome
count and the I-Q points from the block's own streams under
``stream = mix_seed(seed, trajectory_id, step, axis index)``, takes the
points' squared distances to the two clouds (``cloud_distances``, which
rejects one that overflows), then counts hard labels or sums soft
memberships exactly, both straight from the two distance arrays
(``b_from_distances``): the soft ones are a column softmax, summed without
a Python list.

Fitting alternates a least-squares update of ``g`` over all consecutive
state pairs with a projection of its Choi matrix onto the CPTP set
(Dykstra between the PSD cone and the trace-preservation affine set).
The least-squares update is the minimum-change solution from the current
iterate, so directions the data do not constrain are filled in by the
projection instead of being zeroed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
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
    AXES,
    DensityMatrix,
    bloch_from_density,
    json_integer,
    json_number,
    json_numbers,
    json_object,
    json_text,
    pauli,
)
from .qst import qst_closed_form
from .readout import axis_points, cloud_factors, mix_seed, write_text_atomic

_VEC_ID = np.eye(2, dtype=complex).reshape(-1)
_EYE2 = np.eye(2)
_KRON_EYE2 = _EYE2.reshape(2, 1, 2, 1)

# CPTP projection stops once a Dykstra sweep moves its iterate by at most
# PROJECTION_TOL relative to the input's norm, or after PROJECTION_MAX_SWEEPS sweeps
PROJECTION_TOL = 1e-12
PROJECTION_MAX_SWEEPS = 10_000
# the channel fit stops once its loss changes by less than FIT_TOL, or after
# FIT_MAX_ALTERNATIONS alternations
FIT_TOL = 1e-10
FIT_MAX_ALTERNATIONS = 200


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


def partial_trace_out(c: np.ndarray) -> np.ndarray:
    """Trace out the output subsystem of a Choi matrix, leaving 2x2."""
    c = np.asarray(c, dtype=complex)
    return np.einsum("ijil->jl", c.reshape(2, 2, 2, 2))


@dataclass(frozen=True, eq=False)
class ChannelSuperoperator:
    """A trace-preserving, Hermiticity-preserving qubit channel."""

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=complex)
        if g.shape != (4, 4):
            raise ValueError(f"superoperator must be 4x4, got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("superoperator entries must be finite")
        # in halves, which cannot overflow where sums of entries could and scale exactly
        half = 0.5 * g
        if np.abs(_VEC_ID.conj() @ half - 0.5 * _VEC_ID.conj()).max() > 0.5e-9:
            raise ValueError("superoperator is not trace preserving")
        choi = choi_from_super(half)
        if np.abs(choi - choi.conj().T).max() > 0.5e-9:
            raise ValueError("superoperator is not Hermiticity preserving")
        g.flags.writeable = False
        object.__setattr__(self, "g", g)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out = (self.g @ rho.matrix.reshape(4)).reshape(2, 2)
        out = 0.5 * (out + out.conj().T)
        return DensityMatrix(out / out.trace().real)


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
        if np.abs(partial_trace_out(half) - 0.5 * np.eye(2)).max() > 0.5e-9:
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
    """States and/or observations of one simulated evolution."""

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
    """Apply the channel ``n_steps`` times, recording every state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    states = [rho0]
    current = rho0
    for _ in range(n_steps):
        current = channel.apply(current)
        states.append(current)
    return Trajectory(trajectory_id=trajectory_id, dt=dt, states=tuple(states))


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
    step, axis index)``.  A block skips the dataset's shuffle, which changes
    neither a label count nor an exactly rounded sum.
    """
    if trajectory.states is None:
        raise ValueError("observation requires simulated states")
    observations: list[BVector] = []
    if mode == "exact":
        for state in trajectory.states:
            observations.append(BVector(b=bloch_from_density(state), delta=np.zeros(3)))
    elif mode == "sampled":
        if n is None or theta is None or seed is None:
            raise ValueError("sampled observation needs n, theta and seed")
        if discriminator == "assignment":
            # its capacities come from theta's weights, so b would not depend on the shots
            raise ValueError("sampled observation cannot discriminate with 'assignment'")
        if discriminator not in MODES:
            raise ValueError(f"unknown discrimination mode {discriminator!r}")
        if n < 1:
            raise ValueError("shot count must be >= 1")
        factors = cloud_factors(theta.zero, theta.one)
        rng = np.random.Generator(np.random.Philox(key=0))  # axis_points re-keys it per stream
        for step, r in enumerate([bloch_from_density(state) for state in trajectory.states]):
            b = np.empty(3)
            delta = np.empty(3)
            for idx in range(len(AXES)):
                stream = mix_seed(seed, trajectory.trajectory_id, step, idx)
                xy = axis_points(
                    r[idx], n, factors, theta.noise, mix_seed(stream, 1), mix_seed(stream, 2), rng
                )
                d0, d1 = cloud_distances(xy[:, 0], xy[:, 1], theta)
                b[idx], delta[idx] = b_from_distances(d0, d1, discriminator)
            observations.append(BVector(b=b, delta=delta))
    else:
        raise ValueError(f"unknown observation mode {mode!r}")
    return replace(trajectory, observations=tuple(observations))


def save_trajectory(trajectory: Trajectory, path: str) -> None:
    """Write the observations as JSON-lines: header {id, dt}, then {step, b} per step.

    Raises ValueError for a trajectory that has not been observed.
    """
    if trajectory.observations is None:
        raise ValueError("only an observed trajectory can be saved")
    lines = [json.dumps({"id": trajectory.trajectory_id, "dt": trajectory.dt}, sort_keys=True)]
    for step, observation in enumerate(trajectory.observations):
        lines.append(json.dumps({"step": step, "b": [float(v) for v in observation.b]}, sort_keys=True))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_trajectory(path: str) -> Trajectory:
    """Read the observations written by :func:`save_trajectory`.

    Any defect raises ValueError naming its 1-based line.  The header must be
    ``{"id": <integer >= 0>, "dt": <finite number > 0>}``; record k must be
    ``{"step": k, "b": [three finite numbers]}``, with no other key.  Blank
    lines are skipped.  The trajectory has no states, and every observation
    a zero ``delta``.
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
                json_text(raw, "trajectory record"), "trajectory record", required=("step", "b")
            )
            step = record["step"]
            if type(step) is not int or step != position:
                raise ValueError(f"expected step {position}, got {step!r}")
            b = json_numbers(record["b"], (3,), "trajectory b")
            observations.append(BVector(b=b, delta=np.zeros(3)))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    return Trajectory(trajectory_id=trajectory_id, dt=dt, observations=tuple(observations))


# ---------------------------------------------------------------------------
# CPTP projection and channel fitting
# ---------------------------------------------------------------------------


def _psd_project(h: np.ndarray) -> np.ndarray:
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _tp_project(c: np.ndarray) -> np.ndarray:
    deficit = _EYE2 - partial_trace_out(c)
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
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    converged = False
    y = x
    for _ in range(PROJECTION_MAX_SWEEPS):
        y = _psd_project(x + p)
        p = x + p - y
        x_new = _tp_project(y + q)
        q = y + q - x_new
        if np.linalg.norm(y - x_new) <= PROJECTION_TOL * scale:
            x = x_new
            converged = True
            break
        x = x_new
    if not converged:
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


def _trajectory_states(trajectory: Trajectory, mode: str) -> list[DensityMatrix]:
    if mode == "from_states":
        if trajectory.states is None:
            raise ValueError("from_states fit requires simulated states")
        return list(trajectory.states)
    if mode == "from_qst":
        if trajectory.observations is None:
            raise ValueError("from_qst fit requires observations")
        return [qst_closed_form(obs).rho for obs in trajectory.observations]
    raise ValueError(f"unknown fit mode {mode!r}")


def fit_channel(
    trajectories: Sequence[Trajectory],
    mode: str = "from_states",
    loss_history: Optional[list] = None,
) -> tuple[ChannelSuperoperator, float]:
    """Fit a CPTP superoperator to consecutive state pairs.

    For ``from_qst`` every observation is first mapped through the
    closed-form tomography solver.  Alternates (i) the minimum-change
    least-squares update of ``g`` over all pairs with (ii) CPTP projection
    of its Choi matrix, until the loss

        sum_ij || rho_ij - unvec(g vec(rho_i,j-1)) ||_F^2

    changes by less than ``FIT_TOL``, for at most ``FIT_MAX_ALTERNATIONS``
    alternations.  Returns the final channel and loss; the per-alternation
    loss is appended to ``loss_history`` if given.
    """
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    x_cols = []
    y_cols = []
    for trajectory in trajectories:
        sequence = _trajectory_states(trajectory, mode)
        for previous, current in zip(sequence[:-1], sequence[1:]):
            x_cols.append(previous.matrix.reshape(4))
            y_cols.append(current.matrix.reshape(4))
    x = np.stack(x_cols, axis=1)
    y = np.stack(y_cols, axis=1)

    u, s, vh = np.linalg.svd(x, full_matrices=False)
    floor = s[0] * 1e-12
    if mode == "from_qst":
        # shot noise perturbs the singular values of x by roughly the
        # Frobenius norm of the column uncertainties (|delta|/sqrt(2) per
        # column); directions below twice that carry no usable signal and
        # would only amplify noise through the pseudoinverse
        delta_sq = 0.0
        for trajectory in trajectories:
            for obs in trajectory.observations[:-1]:
                delta_sq += float(np.dot(obs.delta, obs.delta))
        floor = max(floor, 2.0 * np.sqrt(0.5 * delta_sq))
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
    x_pinv = (vh.conj().T * inv_s) @ u.conj().T

    g = np.eye(4, dtype=complex)
    previous_loss = None
    for _ in range(FIT_MAX_ALTERNATIONS):
        candidate = g - (g @ x - y) @ x_pinv
        choi = cptp_project(choi_from_super(candidate))
        candidate = choi_from_super(choi.c)
        candidate_loss = float(np.linalg.norm(candidate @ x - y) ** 2)
        if previous_loss is not None and candidate_loss > previous_loss:
            # with noisy data the two constraint sets do not intersect and
            # the alternation settles upward after its closest pass; keep
            # the better iterate so the recorded loss is non-increasing
            break
        g = candidate
        loss = candidate_loss
        if loss_history is not None:
            loss_history.append(loss)
        if previous_loss is not None and abs(previous_loss - loss) < FIT_TOL:
            break
        previous_loss = loss
    return ChannelSuperoperator(g), loss
