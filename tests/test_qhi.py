import json

import numpy as np
import pytest

from iqtomo import (
    ChannelSuperoperator,
    ChoiMatrix,
    DensityMatrix,
    FitWarning,
    Trajectory,
    bloch_from_density,
    choi_from_super,
    cptp_project,
    density_from_bloch,
    fit_channel,
    load_trajectory,
    observe_trajectory,
    save_trajectory,
    simulate_trajectory,
    unitary_superoperator,
    unvec,
    vec,
)
from iqtomo.qhi import step_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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
        np.testing.assert_allclose(unvec(g @ vec(rho0)), np.diag([0.0, 1.0]), atol=1e-15)

    def test_matches_state_evolution(self):
        u = step_unitary("x", np.pi / 5.0, 0.02)
        g = unitary_superoperator(u).g
        rng = np.random.default_rng(52)
        for _ in range(100):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
            rho = density_from_bloch(r).matrix
            np.testing.assert_allclose(unvec(g @ vec(rho)), u @ rho @ u.conj().T, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_superoperator(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_identity_choi_shape(self):
        g = unitary_superoperator(np.eye(2)).g
        np.testing.assert_allclose(choi_from_super(g), _identity_choi(), atol=1e-15)


class TestSimulateTrajectory:
    def test_identity_is_constant(self, rho22):
        traj = simulate_trajectory(ChannelSuperoperator(np.eye(4)), rho22, 5)
        assert traj.steps == 5
        for state in traj.states:
            assert state == rho22

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
        traj = simulate_trajectory(rotation, rho22, 10_000)
        last = traj.states[-1].matrix
        assert abs(np.trace(last).real - 1.0) <= 1e-12
        assert np.abs(last - last.conj().T).max() <= 1e-12


_HEADER = '{"dt": 0.02, "id": 0}'
_STEP0 = '{"b": [0, 0, 1], "step": 0}'
_STEP1 = '{"b": [0, 0, 1], "step": 1}'


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
        save_trajectory(traj, str(path), include_states=True)
        back = load_trajectory(str(path))
        assert back.trajectory_id == traj.trajectory_id
        assert back.dt == traj.dt
        for a, b in zip(traj.observations, back.observations):
            np.testing.assert_allclose(a.b, b.b, atol=1e-15)
        for a, b in zip(traj.states, back.states):
            assert a == b

    @pytest.mark.parametrize(
        "lines, line",
        [
            ([_HEADER, '{"step": 0}', _STEP1], 2),
            (["[0, 0.02]", _STEP0, _STEP1], 1),
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "st'], 3),
            ([_HEADER, '{"b": ["0", "0", "1"], "step": 0}', _STEP1], 2),
            (['{"dt": 0.02, "id": 1.7}', _STEP0, _STEP1], 1),
            ([_HEADER, _STEP1, _STEP0], 2),
            (['{"dt": -0.02, "id": 0}', _STEP0, _STEP1], 1),
            (['{"dt": 1e400, "id": 0}', _STEP0, _STEP1], 1),
            (['{"dt": 0.02, "id": -1}', _STEP0, _STEP1], 1),
            ([_HEADER, '{"b": [0, 0, 1], "step": true}', _STEP1], 2),
            ([_HEADER, '{"b": [0, 0], "step": 0}', _STEP1], 2),
            ([_HEADER, "", _STEP0], 4),
        ],
        ids=[
            "record_without_b", "header_not_object", "truncated_record", "b_as_strings",
            "fractional_id", "steps_out_of_order", "negative_dt", "overflowing_dt",
            "negative_id", "bool_step", "short_b", "one_step_after_blank",
        ],
    )
    def test_malformed_file_names_the_line(self, tmp_path, lines, line):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            load_trajectory(str(path))

    def test_rho_on_some_records_only(self, tmp_path, rotation, rho22):
        traj = observe_trajectory(simulate_trajectory(rotation, rho22, 2), mode="exact")
        path = tmp_path / "traj.jsonl"
        save_trajectory(traj, str(path), include_states=True)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = json.dumps({"b": json.loads(lines[3])["b"], "step": 2})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 4: rho must be on every record"):
            load_trajectory(str(path))


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


class TestChannelTypes:
    def test_superoperator_must_preserve_trace(self):
        with pytest.raises(ValueError):
            ChannelSuperoperator(np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_choi_must_be_psd(self):
        bad = _identity_choi() - 0.5 * np.eye(4)
        with pytest.raises(ValueError):
            ChoiMatrix(bad)

    def test_apply_returns_density_matrix(self, rotation, rho22):
        out = rotation.apply(rho22)
        assert isinstance(out, DensityMatrix)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12


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
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", FitWarning)  # rank must now be full
            fitted, _ = fit_channel([t1, t2], mode="from_states")
        assert np.linalg.norm(fitted.g - rotation.g) <= 1e-6

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

    def test_loss_history_monotone(self, rotation, rho22, sep5_mixture):
        import warnings as _w

        traj = simulate_trajectory(rotation, rho22, 50)
        obs = observe_trajectory(traj, mode="sampled", n=2000, theta=sep5_mixture, seed=55)
        history: list[float] = []
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            fit_channel([obs], mode="from_qst", loss_history=history)
        assert len(history) >= 1
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_channel([])


class TestTrajectoryType:
    def test_needs_two_entries(self, rho22):
        with pytest.raises(ValueError):
            Trajectory(trajectory_id=0, dt=0.02, states=(rho22,), observations=None)

    def test_length_mismatch_rejected(self, rho22):
        from iqtomo import BVector

        obs = (BVector(b=np.zeros(3), delta=np.zeros(3)),)
        with pytest.raises(ValueError):
            Trajectory(trajectory_id=0, dt=0.02, states=(rho22, rho22), observations=obs)
