import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqtomo import (
    AXES,
    BVector,
    ChannelSuperoperator,
    ChoiMatrix,
    ComponentParams,
    ContaminationSpec,
    DensityMatrix,
    FitWarning,
    MixtureParams,
    ProjectionWarning,
    Trajectory,
    bloch_from_density,
    choi_from_super,
    cptp_project,
    density_from_bloch,
    fit_channel,
    load_trajectory,
    observe_trajectory,
    pauli,
    qst_closed_form,
    save_trajectory,
    simulate_trajectory,
    unitary_superoperator,
)
from iqtomo import qhi
from iqtomo.qcore import density_columns
from iqtomo.qhi import step_unitary
from iqtomo.qst import closed_form_bloch
from iqtomo.repro import REFERENCE_STATE
from oracles import (
    apply_reference,
    closed_form_bloch_reference,
    closed_form_reference,
    cptp_project_reference,
    observe_trajectory_reference,
    step_unitary_reference,
    tp_project_reference,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# vec(rho) = P [1; r] / 2 for the row-major vec
P = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def _identity_choi() -> np.ndarray:
    omega = np.zeros((4, 1), dtype=complex)
    omega[0, 0] = omega[3, 0] = 1.0  # |00> + |11>, unnormalized
    return omega @ omega.conj().T


@pytest.fixture
def rotation() -> ChannelSuperoperator:
    return unitary_superoperator(step_unitary("x", np.pi / 5.0, 0.02))


def test_reshuffle_is_an_involution():
    rng = np.random.default_rng(51)
    for _ in range(100):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(choi_from_super(choi_from_super(m)) - m).max() <= 1e-12


class TestUnitarySuperoperator:
    def test_identity(self):
        assert np.array_equal(unitary_superoperator(np.eye(2)).g, np.eye(4))

    def test_bit_flip(self):
        g = unitary_superoperator(SIGMA_X).g
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose((g @ rho0.reshape(4)).reshape(2, 2), np.diag([0.0, 1.0]), atol=1e-15)

    def test_matches_state_evolution(self):
        u = step_unitary("x", np.pi / 5.0, 0.02)
        g = unitary_superoperator(u).g
        rng = np.random.default_rng(52)
        for _ in range(100):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
            rho = density_from_bloch(r).matrix
            np.testing.assert_allclose((g @ rho.reshape(4)).reshape(2, 2), u @ rho @ u.conj().T, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_superoperator(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestStepUnitary:
    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from(AXES),
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, np.pi / 5.0]), st.floats(-20.0, 20.0)),
        st.one_of(st.sampled_from([0.0, 0.02, 1e-300]), st.floats(0.0, 2.0)),
    )
    def test_matches_the_per_column_evolution_and_the_rotation(self, axis, rate, dt):
        u = step_unitary(axis, rate, dt)
        assert u.tobytes() == step_unitary_reference(axis, rate, dt).tobytes()
        theta = rate * dt
        rotation = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * pauli(axis)
        assert np.abs(u - rotation).max() <= 1e-15

    def test_identity_choi_shape(self):
        g = unitary_superoperator(np.eye(2)).g
        np.testing.assert_allclose(choi_from_super(g), _identity_choi(), atol=1e-15)


def _rotation(axis: str, angle: float) -> np.ndarray:
    """The right-handed rotation of Bloch vectors by ``angle`` about ``axis``."""
    k = AXES.index(axis)
    i, j = (k + 1) % 3, (k + 2) % 3
    out = np.eye(3)
    out[i, i] = out[j, j] = math.cos(angle)
    out[j, i], out[i, j] = math.sin(angle), -math.sin(angle)
    return out


class TestBlochMap:
    """A channel as the affine Bloch map ``r -> m r + t``."""

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("rate, dt", [(np.pi / 5.0, 0.02), (2.0, 0.02), (-3.0, 0.5), (20.0, 2.0)])
    def test_a_unitary_step_rotates_by_twice_rate_times_dt(self, axis, rate, dt):
        # H = rate * sigma_axis turns r by 2 * rate * dt per step, not by rate * dt
        channel = unitary_superoperator(step_unitary(axis, rate, dt))
        assert np.abs(channel.t).max() <= 1e-15
        assert np.abs(channel.m - _rotation(axis, 2.0 * rate * dt)).max() <= 1e-15

    def test_identity_is_exact(self):
        channel = ChannelSuperoperator(np.eye(4))
        assert np.array_equal(channel.m, np.eye(3)) and np.array_equal(channel.t, np.zeros(3))

    def test_m_and_t_are_read_only(self, rotation):
        for value in (rotation.g, rotation.m, rotation.t):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0

    def test_m_and_t_are_g_in_bloch_coordinates(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            channel = _fit_workload_channel(rng)
            big = 0.5 * P.conj().T @ channel.g @ P
            np.testing.assert_allclose(big[0], [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(big[1:, 1:], channel.m, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(big[1:, 0], channel.t, rtol=0.0, atol=1e-15)

    def test_ten_thousand_rotation_steps_stay_on_the_exact_rotation(self):
        # the CLI's default truth from the reference state
        rate, dt = np.pi / 5.0, 0.02
        traj = simulate_trajectory(unitary_superoperator(step_unitary("x", rate, dt)), REFERENCE_STATE, 10_000)
        r0 = bloch_from_density(REFERENCE_STATE)
        worst = max(
            float(np.abs(bloch_from_density(state) - _rotation("x", 2.0 * rate * dt * k) @ r0).max())
            for k, state in enumerate(traj.states)
        )
        assert worst <= 1e-12

    def test_apply_and_simulate_take_the_same_step(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            channel = _fit_workload_channel(rng)
            r = rng.normal(size=3)
            rho = density_from_bloch(r * rng.uniform() ** (1 / 3) / np.linalg.norm(r))
            step = simulate_trajectory(channel, rho, 1).states[1]
            assert channel.apply(rho).matrix.tobytes() == step.matrix.tobytes()

    def test_a_trajectory_is_the_chain_of_steps_on_r(self):
        # r_k = m r_(k-1) + t on Python floats, then one density_columns pass
        channel = _fit_workload_channel(np.random.default_rng(64))
        m, t = channel.m.tolist(), channel.t.tolist()
        r = bloch_from_density(REFERENCE_STATE).tolist()
        rows = []
        for _ in range(25):
            r = [m[i][0] * r[0] + m[i][1] * r[1] + m[i][2] * r[2] + t[i] for i in range(3)]
            rows.append(r)
        traj = simulate_trajectory(channel, REFERENCE_STATE, 25)
        assert traj.states[0] is REFERENCE_STATE
        columns = density_columns(np.array(rows))
        assert [s.matrix.tobytes() for s in traj.states[1:]] == [c.reshape(2, 2).tobytes() for c in columns.T]

    @pytest.mark.parametrize(
        "scale, start, step",
        [(1.001, [0.0, 0.0, 1.0], 1), (1.001, [0.0, 0.999, 0.0], 2), (1.0 + 1e-10, [0.6, 0.0, -0.8], 1)],
    )
    def test_a_step_outside_the_ball_is_refused(self, scale, start, step):
        # trace and Hermiticity preserving, but expanding: no state stays positive, and
        # a norm within density_columns' 1e-9 rescale is refused all the same
        channel = ChannelSuperoperator(P @ np.diag([1.0, scale, scale, scale]) @ (0.5 * P.conj().T))
        assert np.array_equal(channel.m, scale * np.eye(3))
        rho = density_from_bloch(start)
        with pytest.raises(ValueError, match=rf"^step {step}: Bloch vector norm 1\.0[0-9]* exceeds 1$"):
            simulate_trajectory(channel, rho, 3)
        if step == 1:
            with pytest.raises(ValueError, match="^step 1: "):
                channel.apply(rho)


class TestSimulateTrajectory:
    def test_identity_is_constant(self, rho22):
        traj = simulate_trajectory(ChannelSuperoperator(np.eye(4)), rho22, 5)
        assert traj.steps == 5
        assert traj.states[0] is rho22
        for state in traj.states[1:]:
            assert state == density_from_bloch(bloch_from_density(rho22))

    def test_bit_flip_alternates(self):
        flip = unitary_superoperator(SIGMA_X)
        traj = simulate_trajectory(flip, DensityMatrix(np.diag([1.0, 0.0])), 4)
        pops = [float(s.matrix[0, 0].real) for s in traj.states]
        assert pops == [1.0, 0.0, 1.0, 0.0, 1.0]

    def test_rabi_populations(self, rotation):
        traj = simulate_trajectory(rotation, DensityMatrix(np.diag([1.0, 0.0])), 100, dt=0.02)
        for i, state in enumerate(traj.states):
            t = 0.02 * i
            assert abs(state.matrix[0, 0].real - np.cos(np.pi * t / 5) ** 2) <= 1e-9

    def test_long_run_keeps_states_valid(self, rotation, rho22):
        # DensityMatrix construction re-validates trace/Hermiticity each step
        traj = _states_match_reference(rotation, rho22, 10_000, 1e-12)
        last = traj.states[-1].matrix
        assert abs(np.trace(last).real - 1.0) <= 1e-12
        assert np.abs(last - last.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n_steps", [True, False, 2.0, "3", 0, -1, np.float64(3.0), None])
    def test_n_steps_must_be_an_integer_of_at_least_one(self, rotation, rho22, n_steps):
        with pytest.raises(ValueError, match="^n_steps must be an integer >= 1, got "):
            simulate_trajectory(rotation, rho22, n_steps)

    def test_numpy_integer_steps(self, rotation, rho22):
        assert simulate_trajectory(rotation, rho22, np.int64(3)).steps == 3

    def test_channel_must_be_a_superoperator(self, rotation, rho22):
        with pytest.raises(ValueError, match="^channel must be a ChannelSuperoperator, got ndarray$"):
            simulate_trajectory(rotation.g, rho22, 2)

    def test_start_must_be_a_density_matrix(self, rotation, rho22):
        with pytest.raises(ValueError, match="^rho0 must be a DensityMatrix, got ndarray$"):
            simulate_trajectory(rotation, rho22.matrix, 2)

    def test_apply_needs_a_density_matrix(self, rotation, rho22):
        with pytest.raises(ValueError, match="^rho must be a DensityMatrix, got ndarray$"):
            rotation.apply(rho22.matrix)


def _states_match_reference(channel, rho0, n_steps: int, tol: float = 1e-14) -> Trajectory:
    """``simulate_trajectory``'s trajectory, once its states are within ``tol`` of an ``apply_reference`` loop's."""
    traj = simulate_trajectory(channel, rho0, n_steps)
    expected = rho0
    assert traj.states[0] is rho0
    for state in traj.states[1:]:
        expected = apply_reference(channel, expected)
        assert np.abs(state.matrix - expected.matrix).max() <= tol
    return traj


def _fit_workload_channel(rng: np.random.Generator) -> ChannelSuperoperator:
    """A random rotation then amplitude damping, drawn as the channel-fit benchmark draws it."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0.02, 0.1)
    gamma = rng.uniform(0.005, 0.02)
    damping = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
    ]
    n_sigma = sum(axis[k] * pauli(a) for k, a in enumerate(AXES))
    u = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * n_sigma
    return ChannelSuperoperator(sum(np.kron(k, k.conj()) for k in damping) @ np.kron(u, u.conj()))


_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)

# signed zeros, subnormals and the smallest normal, for channel and state entries
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308]


def test_save_trajectory_refuses_a_non_finite_number(tmp_path, rotation, rho22):
    traj = observe_trajectory(simulate_trajectory(rotation, rho22, 2), mode="exact")
    object.__setattr__(traj.observations[1], "b", np.array([math.nan, 0.0, 0.0]))
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_trajectory(traj, str(path))
    assert not path.exists()


class TestChannelStep:
    """Every simulated state is within 1e-14 of ``apply_reference``'s matrix expressions on ``g``
    (1e-12 after 10^4 unitary steps)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_workload_channels_from_tetrahedral_starts(self, seed):
        channel = _fit_workload_channel(np.random.default_rng(seed))
        for start in _TETRAHEDRON:
            _states_match_reference(channel, density_from_bloch(start), 25)

    def test_unitary_and_identity_channels(self, rho22):
        rng = np.random.default_rng(61)
        channels = [ChannelSuperoperator(np.eye(4)), unitary_superoperator(np.eye(2))]
        channels += [unitary_superoperator(SIGMA_X)]
        channels += [unitary_superoperator(step_unitary(axis, 2.0, 0.02)) for axis in AXES]
        for channel in channels:
            for start in [rho22, density_from_bloch([0.0, 0.0, 0.0])] + [
                density_from_bloch(r / np.linalg.norm(r)) for r in rng.normal(size=(3, 3))
            ]:
                _states_match_reference(channel, start, 30)

    def test_starts_on_the_bloch_sphere(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            channel = _fit_workload_channel(rng)
            r = rng.normal(size=3)
            _states_match_reference(channel, density_from_bloch(r / np.linalg.norm(r)), 10)

    def test_ten_thousand_damped_steps(self, rho22):
        _states_match_reference(_fit_workload_channel(np.random.default_rng(63)), rho22, 10_000)

    # the identity, a full depolariser and a reset to |0>, every zero entry replaced by
    # a signed zero or a subnormal, on states with such entries and a trace off 1 within
    # DensityMatrix's tolerance, which the Bloch step drops and the reference divides out
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0, 1, 2]),
        st.lists(st.sampled_from(_TINY), min_size=32, max_size=32),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.sampled_from([0.0, 1.1e-16, -2.2e-16, 6.7e-16, -3e-13]),
        st.lists(st.sampled_from(_TINY), min_size=6, max_size=6),
    )
    def test_signed_zero_and_subnormal_entries(self, base, tiny, p, offset, rho_tiny):
        g = [
            np.eye(4, dtype=complex),
            np.array([[0.5, 0, 0, 0.5], [0] * 4, [0] * 4, [0.5, 0, 0, 0.5]], dtype=complex),
            np.array([[1, 0, 0, 1], [0] * 4, [0] * 4, [0] * 4], dtype=complex),
        ][base]
        g.real[g.real == 0.0] = np.array(tiny[:16]).reshape(4, 4)[g.real == 0.0]
        g.imag[:] = np.array(tiny[16:]).reshape(4, 4)
        channel = ChannelSuperoperator(g)
        a, b, c, d, e, f = rho_tiny
        try:
            rho = DensityMatrix([[complex(p + offset, a), complex(b, c)], [complex(d, e), complex(1.0 - p, f)]])
        except ValueError:
            return
        assert np.abs(channel.apply(rho).matrix - apply_reference(channel, rho).matrix).max() <= 1e-12

    @staticmethod
    def _cancelling(c: float) -> ChannelSuperoperator:
        # trace preserving and Hermiticity preserving, but on |+><+| the two
        # diagonal entries of the product are +-c, which cancel or overflow
        g = np.eye(4, dtype=complex)
        g[0, 1] = g[0, 2] = c
        g[3, 1] = g[3, 2] = -c
        return ChannelSuperoperator(g)

    # g that used to reach a step's division by a trace of 0, +-inf or NaN: each is
    # refused at construction or at its first step, with no numpy warning
    @pytest.mark.parametrize(
        "case, message",
        [
            ("zero from cancelling", "^step 1: Bloch vector norm 2e\\+300 exceeds 1$"),
            ("nan from overflow", "^superoperator's Bloch map overflows$"),
            ("zero superoperator", "^superoperator is not trace preserving$"),
            ("plus inf", "^superoperator is not trace preserving$"),
            ("minus inf", "^superoperator is not trace preserving$"),
        ],
    )
    def test_a_degenerate_channel_is_refused(self, case, message):
        plus = density_from_bloch([1.0, 0.0, 0.0])
        channel, rho = {
            "zero from cancelling": (lambda: self._cancelling(1e300), plus),
            "nan from overflow": (lambda: self._cancelling(1e308), plus),
            "zero superoperator": (lambda: ChannelSuperoperator(np.zeros((4, 4))), plus),
            "plus inf": (lambda: ChannelSuperoperator(1e308 * np.eye(4)), density_from_bloch([0.0, 0.0, 1.0])),
            "minus inf": (lambda: ChannelSuperoperator(-1e308 * np.eye(4)), density_from_bloch([0.0, 0.0, 1.0])),
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                channel().apply(rho)


# arbitrary JSON values
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
_FINITE = st.floats(-1.0, 1.0) | st.integers(-1, 1)
_DELTA = st.floats(0.0, 1.0) | st.integers(0, 1)


@st.composite
def _trajectory_lines(draw) -> list:
    """A header and one to six records, then up to two fields set to any JSON, or a line replaced by it."""
    header = {"id": draw(st.integers(0, 2**70)), "dt": draw(st.floats(1e-300, 1e300))}
    lines = [header]
    for position in range(draw(st.integers(1, 6))):
        b, delta = (draw(st.lists(values, min_size=3, max_size=3)) for values in (_FINITE, _DELTA))
        lines.append({"step": position, "b": b, "delta": delta})
    for _ in range(draw(st.integers(0, 2))):
        target = lines[draw(st.integers(0, len(lines) - 1))]
        target[draw(st.sampled_from(["id", "dt", "step", "b", "rho", "delta"]))] = draw(_JSON)
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_JSON)
    return lines


_HEADER = '{"dt": 0.02, "id": 0}'
_STEP0 = '{"b": [0, 0, 1], "delta": [0, 0, 0], "step": 0}'
_STEP1 = '{"b": [0, 0, 1], "delta": [0.1, 0.2, 0.3], "step": 1}'
# a JSON array nested far deeper than the parser's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000


class TestObserveTrajectory:
    def test_exact_mode_maximally_mixed(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        traj = simulate_trajectory(ChannelSuperoperator(np.eye(4)), mixed, 3)
        obs = observe_trajectory(traj, mode="exact")
        for entry in obs.observations:
            assert np.array_equal(entry.b, np.zeros(3))

    def test_exact_mode_equals_bloch(self, rotation, rho22):
        traj = simulate_trajectory(rotation, rho22, 10)
        obs = observe_trajectory(traj, mode="exact")
        for state, entry in zip(traj.states, obs.observations):
            np.testing.assert_allclose(entry.b, bloch_from_density(state), atol=1e-12)

    def test_sampled_mode_concentrates(self, rotation):
        # wide separation so misclassification (~Phi(-4)) is far below the
        # statistical Delta_b and the bound really tests binomial spread
        from iqtomo import ComponentParams, MixtureParams

        theta = MixtureParams(
            zero=ComponentParams(0.5, np.array([4.0, 2.0]), np.eye(2)),
            one=ComponentParams(0.5, np.array([-4.0, 2.0]), np.eye(2)),
        )
        rho0 = density_from_bloch([0.0, -0.45, -0.75])
        traj = simulate_trajectory(rotation, rho0, 20)
        obs = observe_trajectory(traj, mode="sampled", n=10_000, theta=theta, seed=53)
        good = 0
        for state, entry in zip(traj.states, obs.observations):
            exact = bloch_from_density(state)
            if np.all(np.abs(entry.b - exact) <= 4 * entry.delta):
                good += 1
        assert good >= 0.95 * len(obs.observations)

    def test_sampled_mode_needs_arguments(self, rotation, rho22):
        traj = simulate_trajectory(rotation, rho22, 2)
        with pytest.raises(ValueError):
            observe_trajectory(traj, mode="sampled")

    def test_sampled_mode_rejects_assignment(self, rotation, rho22, sep5_mixture):
        # its capacities come from theta's weights, so every step would read b = 0
        traj = simulate_trajectory(rotation, rho22, 2)
        with pytest.raises(ValueError, match="assignment"):
            observe_trajectory(
                traj, mode="sampled", n=200, theta=sep5_mixture, seed=1, discriminator="assignment"
            )

    def test_round_trip_files(self, tmp_path, rotation, rho22):
        traj = observe_trajectory(simulate_trajectory(rotation, rho22, 6), mode="exact")
        path = tmp_path / "traj.jsonl"
        save_trajectory(traj, str(path))
        back = load_trajectory(str(path))
        assert back.trajectory_id == traj.trajectory_id
        assert back.dt == traj.dt
        assert back.states is None
        assert len(back.observations) == len(traj.observations)
        for a, b in zip(traj.observations, back.observations):
            assert a.b.tobytes() == b.b.tobytes()
            assert not b.delta.any()
        again = tmp_path / "again.jsonl"
        save_trajectory(back, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_sampled_round_trip_keeps_delta(self, tmp_path, rotation, rho22, sep5_mixture):
        traj = simulate_trajectory(rotation, rho22, 3)
        traj = observe_trajectory(traj, mode="sampled", n=500, theta=sep5_mixture, seed=4)
        path = tmp_path / "traj.jsonl"
        save_trajectory(traj, str(path))
        back = load_trajectory(str(path))
        for a, b in zip(traj.observations, back.observations):
            assert a.b.tobytes() + a.delta.tobytes() == b.b.tobytes() + b.delta.tobytes()
        assert all(b.delta.all() for b in back.observations)

    def test_save_needs_observations(self, tmp_path, rotation, rho22):
        path = tmp_path / "traj.jsonl"
        with pytest.raises(ValueError, match="observed"):
            save_trajectory(simulate_trajectory(rotation, rho22, 2), str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "lines, line",
        [
            ([_HEADER, '{"delta": [0, 0, 0], "step": 0}', _STEP1], 2),
            (["[0, 0.02]", _STEP0, _STEP1], 1),
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "st'], 3),
            ([_HEADER, '{"b": ["0", "0", "1"], "delta": [0, 0, 0], "step": 0}', _STEP1], 2),
            (['{"dt": 0.02, "id": 1.7}', _STEP0, _STEP1], 1),
            ([_HEADER, _STEP1, _STEP0], 2),
            (['{"dt": -0.02, "id": 0}', _STEP0, _STEP1], 1),
            (['{"dt": 1e400, "id": 0}', _STEP0, _STEP1], 1),
            (['{"dt": 0.02, "id": -1}', _STEP0, _STEP1], 1),
            ([_HEADER, '{"b": [0, 0, 1], "delta": [0, 0, 0], "step": true}', _STEP1], 2),
            ([_HEADER, '{"b": [0, 0], "delta": [0, 0, 0], "step": 0}', _STEP1], 2),
            ([_HEADER, "", _STEP0], 4),
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "delta": [0, 0, 0], "rho": {"im": [[0, 0], [0, 0]], "re": [[1, 0], [0, 0]]}, "step": 1}'], 3),
            ([_DEEP, _STEP0, _STEP1], 1),
            ([_HEADER, _STEP0, _DEEP], 3),
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "step": 1}'], 3),
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "delta": [0, -0.1, 0], "step": 1}'], 3),
            ([_HEADER, '{"b": [0, 0, 1], "delta": [0, 0], "step": 0}', _STEP1], 2),
        ],
        ids=[
            "record_without_b", "header_not_object", "truncated_record", "b_as_strings",
            "fractional_id", "steps_out_of_order", "negative_dt", "overflowing_dt",
            "negative_id", "bool_step", "short_b", "one_step_after_blank", "rho_record",
            "deeply_nested_header", "deeply_nested_record", "record_without_delta",
            "negative_delta", "short_delta",
        ],
    )
    def test_malformed_file_names_the_line(self, tmp_path, lines, line):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            load_trajectory(str(path))

    @settings(max_examples=300, deadline=None)
    @given(_trajectory_lines())
    def test_arbitrary_json_loads_or_names_its_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "arbitrary_trajectory.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n", encoding="utf-8")
        try:
            back = load_trajectory(str(path))
        except ValueError as exc:
            assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
        else:
            assert back.states is None and back.steps == len(lines) - 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda traj: fit_channel([np.eye(2)]), r"^trajectories\[0\] must be a Trajectory, got ndarray$"),
        (lambda traj: observe_trajectory(np.eye(2)), "^trajectory must be a Trajectory, got ndarray$"),
        (
            lambda traj: observe_trajectory(traj, mode="sampled", n=10, theta=np.eye(2), seed=1),
            "^theta must be a MixtureParams, got ndarray$",
        ),
    ],
    ids=["fit_channel_trajectories", "observe_trajectory_trajectory", "observe_trajectory_theta"],
)
def test_an_argument_of_the_wrong_type_is_named(rotation, rho22, call, message):
    with pytest.raises(ValueError, match=message):
        call(simulate_trajectory(rotation, rho22, 2))


def _tilted(noise_weight: float) -> MixtureParams:
    """Clouds with correlated, unequal covariances, so neither Cholesky factor is diagonal."""
    state = 0.5 * (1.0 - noise_weight)
    return MixtureParams(
        zero=ComponentParams(state, np.array([2.5, 2.0]), np.array([[1.2, 0.3], [0.3, 0.8]])),
        one=ComponentParams(state, np.array([-2.0, 1.5]), np.array([[0.7, -0.2], [-0.2, 1.1]])),
        noise=ContaminationSpec(weight=noise_weight) if noise_weight else None,
    )


class TestSampledObservation:
    """The per-trajectory observation against the per-block oracle, bit for bit."""

    # 0.01 draws no contamination shot for n < 99, 0.1 none for n < 9
    @pytest.mark.parametrize("noise_weight", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("discriminator", ["hard", "soft"])
    # at a pole the z axis draws n0 = n (north) or n0 = 0 (south) at step 0
    @pytest.mark.parametrize("start", [[0.3, -0.5, 0.6], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    @pytest.mark.parametrize(
        "seed, trajectory_id, n",
        [(0, 0, 1), (7, 3, 2), (5, 4, 7), (123, 1, 257), (2**63 + 5, 2, 2000)],
    )
    def test_matches_per_block_reference(
        self, rotation, seed, trajectory_id, n, start, discriminator, noise_weight
    ):
        theta = _tilted(noise_weight)
        rho0 = density_from_bloch(start)
        traj = simulate_trajectory(rotation, rho0, 4, trajectory_id=trajectory_id)
        got = observe_trajectory(
            traj, mode="sampled", n=n, theta=theta, seed=seed, discriminator=discriminator
        )
        want = observe_trajectory_reference(traj, n, theta, seed, discriminator)
        for a, b in zip(got.observations, want.observations):
            assert a.b.tobytes() == b.b.tobytes()
            assert a.delta.tobytes() == b.delta.tobytes()

    def test_matches_reference_at_the_benchmark_geometry(self, rotation, sep5_mixture):
        traj = simulate_trajectory(rotation, density_from_bloch([1.0, 1.0, 1.0] / np.sqrt(3.0)), 25)
        got = observe_trajectory(traj, mode="sampled", n=2000, theta=sep5_mixture, seed=11)
        want = observe_trajectory_reference(traj, 2000, sep5_mixture, 11)
        assert [o.b.tobytes() + o.delta.tobytes() for o in got.observations] == [
            o.b.tobytes() + o.delta.tobytes() for o in want.observations
        ]

    def test_rejects_zero_shots(self, rotation, rho22, sep5_mixture):
        traj = simulate_trajectory(rotation, rho22, 2)
        with pytest.raises(ValueError, match=r"^shot count must be an integer in \[1, 2\*\*63\), got 0$"):
            observe_trajectory(traj, mode="sampled", n=0, theta=sep5_mixture, seed=1)

    def test_rejects_singular_cloud(self, rotation, rho22):
        flat = ComponentParams(0.5, np.zeros(2), np.diag([1e-5, 1e-8]))
        theta = MixtureParams(zero=flat, one=ComponentParams(0.5, np.ones(2), np.eye(2)))
        traj = simulate_trajectory(rotation, rho22, 2)
        with pytest.raises(ValueError, match="numerically singular"):
            observe_trajectory(traj, mode="sampled", n=10, theta=theta, seed=1)

    def test_rejects_unknown_discriminator(self, rotation, rho22, sep5_mixture):
        traj = simulate_trajectory(rotation, rho22, 2)
        with pytest.raises(ValueError, match="unknown discrimination mode"):
            observe_trajectory(
                traj, mode="sampled", n=10, theta=sep5_mixture, seed=1, discriminator="nearest"
            )

    @pytest.mark.parametrize("discriminator", ["hard", "soft"])
    def test_distances_that_overflow_are_rejected(self, rotation, rho22, discriminator):
        # clouds 2e200 apart: every sample's squared distance to the far cloud overflows
        theta = MixtureParams(
            zero=ComponentParams(0.5, np.array([1e200, 0.0]), np.eye(2)),
            one=ComponentParams(0.5, np.array([-1e200, 0.0]), np.eye(2)),
        )
        traj = simulate_trajectory(rotation, rho22, 2)
        for observe in (
            lambda: observe_trajectory(
                traj, mode="sampled", n=10, theta=theta, seed=1, discriminator=discriminator
            ),
            lambda: observe_trajectory_reference(traj, 10, theta, 1, discriminator),
        ):
            with pytest.raises(ValueError, match="^squared distances overflow: a sample lies too far"):
                observe()

    def test_coordinates_that_overflow_are_rejected(self):
        # a contamination disc past the edge of the float range would draw infinite
        # coordinates, so its mixture cannot be built for sampled observation to use
        with pytest.raises(ValueError, match="^contamination disc reaches past the largest double$"):
            MixtureParams(
                zero=ComponentParams(0.25, np.array([2.5, 2.0]), np.eye(2)),
                one=ComponentParams(0.25, np.array([-2.5, 2.0]), np.eye(2)),
                noise=ContaminationSpec(weight=0.5, center=(1.797e308, 0.0), radius=1e307),
            )


class TestCptpProject:
    def test_valid_choi_is_fixed(self):
        c = _identity_choi()
        np.testing.assert_allclose(cptp_project(c).c, c, atol=1e-9)

    def test_scaled_identity_choi_against_grid_oracle(self):
        doubled = 2.0 * _identity_choi()
        got = cptp_project(doubled).c
        # oracle: exhaustive search in the commuting family
        # c(a) = a*|Omega><Omega| + (1-a)*(I - |Omega><Omega|/2), a in [0, 1]
        omega = _identity_choi()
        best, best_dist = None, np.inf
        for a in np.linspace(0.0, 1.0, 100_001):
            cand = a * omega + (1.0 - a) * (np.eye(4) - omega / 2.0)
            dist = np.linalg.norm(cand - doubled)
            if dist < best_dist:
                best, best_dist = cand, dist
        assert np.abs(got - best).max() <= 1e-4

    def test_zero_projects_to_depolarizing_choi(self):
        got = cptp_project(np.zeros((4, 4)))
        np.testing.assert_allclose(got.c, np.eye(4) / 2, atol=1e-9)
        again = cptp_project(got.c)
        np.testing.assert_allclose(again.c, got.c, atol=1e-9)

    def test_random_inputs_land_in_the_set(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (m + m.conj().T) / 2
            choi = cptp_project(h)
            w = np.linalg.eigvalsh(choi.c)
            assert w.min() >= -1e-9
            tr_out = np.einsum("ijil->jl", choi.c.reshape(2, 2, 2, 2))
            assert np.abs(tr_out - np.eye(2)).max() <= 1e-9
            assert np.abs(cptp_project(choi.c).c - choi.c).max() <= 1e-7

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cptp_project(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=32, max_size=32))
    def test_tp_step_matches_kron_on_hermitian_matrices(self, entries):
        m = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
        h = m + m.conj().T
        assert qhi._tp_project(h).tobytes() == tp_project_reference(h).tobytes()

    # entries of both signed zeros: np.kron adds signed zeros off the diagonal blocks
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0]), min_size=32, max_size=32))
    def test_tp_step_matches_kron_on_signed_zeros(self, entries):
        c = np.empty((4, 4), dtype=complex)
        c.real, c.imag = np.array(entries[:16]).reshape(4, 4), np.array(entries[16:]).reshape(4, 4)
        assert qhi._tp_project(c).tobytes() == tp_project_reference(c).tobytes()

    @pytest.mark.parametrize("cap", [1, 3])
    def test_sweep_cap_warns_and_still_returns_a_choi_matrix(self, monkeypatch, cap):
        monkeypatch.setattr(qhi, "PROJECTION_MAX_SWEEPS", cap)
        rng = np.random.default_rng(55)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            with pytest.warns(ProjectionWarning, match=f"in {cap} sweeps"):
                choi = cptp_project((m + m.conj().T) / 2)
            assert isinstance(choi, ChoiMatrix)
            # the cap leaves negative eigenvalues, so this also covers the fix-up and its lift
            expected, converged = cptp_project_reference((m + m.conj().T) / 2, cap, qhi.PROJECTION_TOL)
            assert not converged
            assert choi.c.tobytes() == expected.tobytes()

    def test_matches_the_reference_loop_on_random_hermitian_inputs(self):
        rng = np.random.default_rng(58)
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (m + m.conj().T) / 2
            expected, converged = cptp_project_reference(h, qhi.PROJECTION_MAX_SWEEPS, qhi.PROJECTION_TOL)
            assert converged
            assert cptp_project(h).c.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0]), min_size=32, max_size=32))
    def test_matches_the_reference_loop_on_signed_zeros(self, entries):
        c = np.empty((4, 4), dtype=complex)
        c.real, c.imag = np.array(entries[:16]).reshape(4, 4), np.array(entries[16:]).reshape(4, 4)
        expected, converged = cptp_project_reference(c, qhi.PROJECTION_MAX_SWEEPS, qhi.PROJECTION_TOL)
        assert converged
        assert cptp_project(c).c.tobytes() == expected.tobytes()


class TestChannelTypes:
    def test_superoperator_must_preserve_trace(self):
        with pytest.raises(ValueError):
            ChannelSuperoperator(np.diag([1.0, 1.0, 1.0, 0.5]))

    # the suite turns numpy RuntimeWarnings into errors: these are rejected without overflow
    @pytest.mark.parametrize("entry", [1e308, 1.7976931348623157e308 * (1 + 1j), -1e308j])
    @pytest.mark.parametrize("cls", [ChannelSuperoperator, ChoiMatrix])
    def test_huge_entries_rejected_without_overflow(self, cls, entry):
        for m in (np.full((4, 4), entry), entry * np.eye(4), np.diag([1.0, entry, 0.5 * entry, 1.0])):
            with pytest.raises(ValueError):
                cls(m)

    def test_superoperator_rejects_nan(self):
        with pytest.raises(ValueError, match="^superoperator entries must be finite$"):
            ChannelSuperoperator(np.full((4, 4), np.nan))

    def test_choi_rejects_nan(self):
        m = _identity_choi()
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="^Choi matrix entries must be finite$"):
            ChoiMatrix(m)

    def test_choi_must_be_psd(self):
        bad = _identity_choi() - 0.5 * np.eye(4)
        with pytest.raises(ValueError):
            ChoiMatrix(bad)

    def test_apply_matches_the_vectorised_product(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            channel = ChannelSuperoperator(choi_from_super(cptp_project((m + m.conj().T) / 2).c))
            r = rng.normal(size=3)
            rho = density_from_bloch(r * rng.uniform() ** (1 / 3) / np.linalg.norm(r))
            assert np.abs(channel.apply(rho).matrix - apply_reference(channel, rho).matrix).max() <= 1e-15

    def test_apply_returns_density_matrix(self, rotation, rho22):
        out = rotation.apply(rho22)
        assert isinstance(out, DensityMatrix)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12


def _damped_channel(gamma: float) -> np.ndarray:
    """Superoperator of amplitude damping towards |0> with probability ``gamma``."""
    damping = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
    ]
    return sum(np.kron(k, k.conj()) for k in damping)


def _damped_tetrahedral_trajectories(seed: int) -> list:
    """The four tetrahedral starts under rotation plus amplitude damping, 25 steps of binomial b."""
    rng = np.random.default_rng(seed)
    shots = 10_000
    channel = ChannelSuperoperator(_damped_channel(0.01) @ unitary_superoperator(step_unitary("y", 2.0, 0.02)).g)
    trajectories = []
    for j, start in enumerate(np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)):
        traj = simulate_trajectory(channel, density_from_bloch(start), 25, trajectory_id=j)
        bloch = np.array([bloch_from_density(state) for state in traj.states])
        n0 = rng.binomial(shots, np.clip(0.5 * (1.0 + bloch), 0.0, 1.0)).astype(float)
        b = (2.0 * n0 - shots) / shots
        delta = 2.0 * np.sqrt(n0 * (shots - n0) / shots**3)
        observations = tuple(BVector(b=b[k], delta=delta[k]) for k in range(len(b)))
        trajectories.append(Trajectory(trajectory_id=j, dt=traj.dt, observations=observations))
    return trajectories


def _fit_inputs(trajectories, noise_floor: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and y, the [1; r] columns of a fit's regression, and the floored pseudoinverse x^+, rebuilt
    from the observations' oracle Bloch vectors (``noise_floor``: from_qst's delta floor too)."""
    bloch = [[np.concatenate([[1.0], closed_form_bloch_reference(obs.b)]) for obs in t.observations] for t in trajectories]
    x = np.stack([column for sequence in bloch for column in sequence[:-1]], axis=1)
    y = np.stack([column for sequence in bloch for column in sequence[1:]], axis=1)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    delta_sq = sum(float(np.dot(obs.delta, obs.delta)) for t in trajectories for obs in t.observations[:-1])
    keep = s > max(s[0] * 1e-12, 2.0 * np.sqrt(delta_sq) if noise_floor else 0.0)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return x, y, (vh.T * inv_s) @ u.T


def _projected_step(big: np.ndarray, x: np.ndarray, y: np.ndarray, x_pinv: np.ndarray) -> np.ndarray:
    """``g`` of one minimum-change step of the Bloch map ``big`` and its CPTP projection."""
    candidate = big - (big @ x - y) @ x_pinv
    return choi_from_super(cptp_project(choi_from_super(P @ candidate @ (0.5 * P.conj().T))).c)


def _bloch_map(g: np.ndarray) -> np.ndarray:
    return (0.5 * P.conj().T @ g @ P).real


# b inside, on and outside the ball, with signed zeros; one whose projection
# b/|b| has a norm in (1, 1 + 1e-9], which density_columns rescales again;
# and finite entries whose squared norm overflows to inf, so the row is scaled by its largest |b_i| first
_INSIDE = [[0.1, -0.2, 0.3], [0.0, -0.0, -0.0], [-0.0, 0.5, -0.0]]
_ON = [[0.6, 0.8, 0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
_OUTSIDE = [[1.5, -2.0, 0.25], [-0.0, -3.0, 0.0]]
_PROJECTED_ABOVE_ONE = [-0.28798983016813706, -0.9988141196144054, -0.3875746540563049]
_OVERFLOWS = [1e200, -1e200, 3.0]


class TestClosedFormBloch:
    def test_cases_reach_every_branch(self):
        for row in _INSIDE + _ON:
            assert math.sqrt(np.dot(row, row)) <= 1.0
        for row in _OUTSIDE:
            assert math.sqrt(np.dot(row, row)) > 1.0
        r = np.array(_PROJECTED_ABOVE_ONE) / math.sqrt(np.dot(_PROJECTED_ABOVE_ONE, _PROJECTED_ABOVE_ONE))
        assert 1.0 < math.sqrt(r.dot(r)) <= 1.0 + 1e-9
        with np.errstate(over="ignore"):
            assert np.dot(_OVERFLOWS, _OVERFLOWS) == math.inf

    def test_rows_and_states_equal_the_scalar_steps_byte_for_byte(self):
        b = np.array(_INSIDE + _ON + _OUTSIDE + [_PROJECTED_ABOVE_ONE, _OVERFLOWS])
        rows = closed_form_bloch(b)
        assert rows.shape == (len(b), 3)
        for row, got in zip(b, rows):
            assert got.tobytes() == closed_form_bloch_reference(row).tobytes()
            assert qst_closed_form(row).rho.matrix.tobytes() == closed_form_reference(row).tobytes()

    def test_a_squared_norm_that_overflows_projects_onto_the_sphere(self):
        # b / |b| for b = (1e200, -1e200, 3): on the sphere, not the maximally mixed I/2
        result = qst_closed_form(_OVERFLOWS)
        r = bloch_from_density(result.rho)
        np.testing.assert_allclose(r, [math.sqrt(0.5), -math.sqrt(0.5), 0.0], rtol=0.0, atol=1e-15)
        assert result.residual_sq == math.inf
        assert result.rho.matrix.tobytes() == closed_form_reference(_OVERFLOWS).tobytes()

    # rows in a cube around the ball, and the same rows scaled onto its surface
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=1, max_size=12))
    def test_every_row_is_the_closed_form_bloch_vector(self, rows):
        b = np.array(rows)
        norms = np.array([math.sqrt(row.dot(row)) for row in b])
        b = np.concatenate([b, b[norms > 0.0] / norms[norms > 0.0, None]])
        bloch = closed_form_bloch(b)
        for row, r, column in zip(b, bloch, density_columns(bloch).T):
            assert r.tobytes() == closed_form_bloch_reference(row).tobytes()
            DensityMatrix(column.reshape(2, 2))  # so none of DensityMatrix's checks can fail
            assert column.tobytes() == closed_form_reference(row).reshape(4).tobytes()

    def test_a_from_qst_fit_regresses_the_oracle_bloch_vectors(self):
        # every branch of the closed form, overflow and second rescale included, reaches the
        # fit; with zero delta its noise floor is the from_states one, so g must agree bit for bit
        rows = _INSIDE + _ON + _OUTSIDE + [_PROJECTED_ABOVE_ONE, _OVERFLOWS]
        observed = Trajectory(
            trajectory_id=0, dt=0.02, observations=tuple(BVector(b=row, delta=np.zeros(3)) for row in rows)
        )
        x, y, x_pinv = _fit_inputs([observed])
        want = _projected_step(np.eye(4), x, y, x_pinv)
        channel, loss = fit_channel([observed], mode="from_qst")
        assert channel.g.tobytes() == want.tobytes()
        assert loss == 0.5 * float(np.linalg.norm(y[1:] - channel.m @ x[1:] - channel.t[:, None]) ** 2)


class TestFitChannel:
    def test_noiseless_recovery(self, rotation, rho22):
        traj = simulate_trajectory(rotation, rho22, 100, dt=0.02)
        with pytest.warns(FitWarning):
            fitted, loss = fit_channel([traj], mode="from_states")
        assert np.linalg.norm(fitted.g - rotation.g) <= 1e-6
        assert loss <= 1e-12

    def test_two_trajectories_fix_all_directions(self, rotation, rho22):
        other = density_from_bloch([0.9, 0.1, 0.0])
        t1 = simulate_trajectory(rotation, rho22, 60, trajectory_id=0)
        t2 = simulate_trajectory(rotation, other, 60, trajectory_id=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FitWarning)  # rank must now be full
            fitted, _ = fit_channel([t1, t2], mode="from_states")
        assert np.linalg.norm(fitted.g - rotation.g) <= 1e-6

    def test_noiseless_damped_tetrahedral_starts_recover_m_and_t(self):
        # four start directions fix every direction of the Bloch map; the channel is CPTP,
        # so the projection leaves the least-squares fit where it is
        channel = ChannelSuperoperator(_damped_channel(0.01) @ unitary_superoperator(step_unitary("y", 2.0, 0.02)).g)
        trajectories = [
            simulate_trajectory(channel, density_from_bloch(start), 25, trajectory_id=j)
            for j, start in enumerate(_TETRAHEDRON)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", FitWarning)
            fitted, loss = fit_channel(trajectories, mode="from_states")
        assert np.abs(fitted.m - channel.m).max() <= 1e-12
        assert np.abs(fitted.t - channel.t).max() <= 1e-12
        assert np.abs(channel.t).max() > 1e-3  # damping moves the fixed point off the centre
        assert loss <= 1e-24

    def test_constant_trajectory_keeps_identity(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        traj = simulate_trajectory(ChannelSuperoperator(np.eye(4)), mixed, 10)
        with pytest.warns(FitWarning):
            fitted, loss = fit_channel([traj], mode="from_states")
        assert loss <= 1e-24
        np.testing.assert_allclose(fitted.g, np.eye(4), atol=1e-9)

    def test_from_qst_requires_observations(self, rotation, rho22):
        traj = simulate_trajectory(rotation, rho22, 5)
        with pytest.raises(ValueError):
            fit_channel([traj], mode="from_qst")

    def test_loss_history_holds_the_one_loss(self, rotation, rho22, sep5_mixture):
        traj = simulate_trajectory(rotation, rho22, 50)
        obs = observe_trajectory(traj, mode="sampled", n=2000, theta=sep5_mixture, seed=55)
        history: list[float] = []
        with pytest.warns(FitWarning):
            _, loss = fit_channel([obs], mode="from_qst", loss_history=history)
        assert history == [loss]

    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_one_step_from_the_identity_then_one_projection(
        self, monkeypatch, rotation, rho22, sep5_mixture, rank
    ):
        if rank == "full":
            trajectories = _damped_tetrahedral_trajectories(seed=3)
        else:
            traj = simulate_trajectory(rotation, rho22, 40)
            trajectories = [observe_trajectory(traj, mode="sampled", n=2000, theta=sep5_mixture, seed=7)]
        x, y, x_pinv = _fit_inputs(trajectories)
        assert (np.linalg.matrix_rank(x_pinv) == 4) == (rank == "full")
        expected = _projected_step(np.eye(4), x, y, x_pinv)
        m, t = ChannelSuperoperator(expected).m, ChannelSuperoperator(expected).t

        calls = []

        def counted(h):
            calls.append(h)
            return cptp_project(h)

        monkeypatch.setattr(qhi, "cptp_project", counted)
        history: list[float] = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            fitted, loss = fit_channel(trajectories, mode="from_qst", loss_history=history)
        assert len(calls) == 1
        assert fitted.g.tobytes() == expected.tobytes()
        assert history == [loss] == [0.5 * float(np.linalg.norm(y[1:] - m @ x[1:] - t[:, None]) ** 2)]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_projection_inputs_match_the_reference_loop(self, seed):
        # the fit's own projection input, and that of a second step from its result
        trajectories = _damped_tetrahedral_trajectories(seed)
        x, y, x_pinv = _fit_inputs(trajectories)
        big = np.eye(4)
        for _ in range(2):
            h = choi_from_super(P @ (big - (big @ x - y) @ x_pinv) @ (0.5 * P.conj().T))
            expected, converged = cptp_project_reference(h, qhi.PROJECTION_MAX_SWEEPS, qhi.PROJECTION_TOL)
            assert converged
            assert cptp_project(h).c.tobytes() == expected.tobytes()
            big = _bloch_map(choi_from_super(expected))

    def test_second_step_on_full_rank_data_stays_put(self):
        # x x^+ = I, so a second minimum-change step only repeats the first
        trajectories = _damped_tetrahedral_trajectories(seed=11)
        x, y, x_pinv = _fit_inputs(trajectories)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FitWarning)
            fitted, _ = fit_channel(trajectories, mode="from_qst")
        again = _projected_step(_bloch_map(fitted.g), x, y, x_pinv)
        assert np.linalg.norm(again - fitted.g) <= 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_channel([])


class TestTrajectoryType:
    @pytest.mark.parametrize(
        "trajectory_id, dt",
        [(-1, 0.02), (True, 0.02), (1.5, 0.02), (0, -0.02), (0, math.nan)],
        ids=["negative_id", "bool_id", "fractional_id", "negative_dt", "nan_dt"],
    )
    def test_header_the_loader_refuses_is_refused_at_construction(self, tmp_path, rho22, trajectory_id, dt):
        with pytest.raises(ValueError, match="^trajectory (id|dt) must "):
            Trajectory(trajectory_id=trajectory_id, dt=dt, states=(rho22, rho22))
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join([json.dumps({"dt": dt, "id": trajectory_id}), _STEP0, _STEP1]) + "\n")
        with pytest.raises(ValueError, match="^line 1: trajectory (id|dt) must "):
            load_trajectory(str(path))

    def test_numpy_header_numbers_are_saved_as_json_numbers(self, tmp_path, rho22):
        obs = (BVector(b=np.zeros(3), delta=np.zeros(3)),) * 2
        traj = Trajectory(trajectory_id=np.int64(3), dt=np.float64(0.02), observations=obs)
        assert type(traj.trajectory_id) is int and type(traj.dt) is float
        path = tmp_path / "traj.jsonl"
        save_trajectory(traj, str(path))
        back = load_trajectory(str(path))
        assert (back.trajectory_id, back.dt) == (3, 0.02)

    def test_needs_two_entries(self, rho22):
        with pytest.raises(ValueError):
            Trajectory(trajectory_id=0, dt=0.02, states=(rho22,), observations=None)

    def test_a_state_that_is_not_a_density_matrix_is_refused(self):
        with pytest.raises(ValueError, match="^trajectory states must hold DensityMatrix instances, got ndarray$"):
            Trajectory(trajectory_id=0, dt=0.02, states=(np.eye(2) / 2,) * 3)

    def test_an_observation_that_is_not_a_b_vector_is_refused(self):
        with pytest.raises(ValueError, match="^trajectory observations must hold BVector instances, got ndarray$"):
            Trajectory(trajectory_id=0, dt=0.02, observations=(np.zeros(3),) * 3)

    def test_length_mismatch_rejected(self, rho22):
        obs = (BVector(b=np.zeros(3), delta=np.zeros(3)),)
        with pytest.raises(ValueError):
            Trajectory(trajectory_id=0, dt=0.02, states=(rho22, rho22), observations=obs)
