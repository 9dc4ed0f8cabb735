import json
import math
import re

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
    save_trajectory,
    simulate_trajectory,
    unitary_superoperator,
)
from iqtomo import qhi
from iqtomo.qhi import step_unitary
from oracles import observe_trajectory_reference, step_unitary_reference, tp_project_reference

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


# arbitrary JSON values
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
_FINITE = st.floats(-1.0, 1.0) | st.integers(-1, 1)


@st.composite
def _trajectory_lines(draw) -> list:
    """A header and one to six records, then up to two fields set to any JSON, or a line replaced by it."""
    header = {"id": draw(st.integers(0, 2**70)), "dt": draw(st.floats(1e-300, 1e300))}
    lines = [header]
    for position in range(draw(st.integers(1, 6))):
        lines.append({"step": position, "b": draw(st.lists(_FINITE, min_size=3, max_size=3))})
    for _ in range(draw(st.integers(0, 2))):
        target = lines[draw(st.integers(0, len(lines) - 1))]
        target[draw(st.sampled_from(["id", "dt", "step", "b", "rho", "delta"]))] = draw(_JSON)
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_JSON)
    return lines


_HEADER = '{"dt": 0.02, "id": 0}'
_STEP0 = '{"b": [0, 0, 1], "step": 0}'
_STEP1 = '{"b": [0, 0, 1], "step": 1}'
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

    def test_save_needs_observations(self, tmp_path, rotation, rho22):
        path = tmp_path / "traj.jsonl"
        with pytest.raises(ValueError, match="observed"):
            save_trajectory(simulate_trajectory(rotation, rho22, 2), str(path))
        assert not path.exists()

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
            ([_HEADER, _STEP0, '{"b": [0, 0, 1], "rho": {"im": [[0, 0], [0, 0]], "re": [[1, 0], [0, 0]]}, "step": 1}'], 3),
            ([_DEEP, _STEP0, _STEP1], 1),
            ([_HEADER, _STEP0, _DEEP], 3),
        ],
        ids=[
            "record_without_b", "header_not_object", "truncated_record", "b_as_strings",
            "fractional_id", "steps_out_of_order", "negative_dt", "overflowing_dt",
            "negative_id", "bool_step", "short_b", "one_step_after_blank", "rho_record",
            "deeply_nested_header", "deeply_nested_record",
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

    @pytest.mark.parametrize("noise_weight", [0.0, 0.1])
    @pytest.mark.parametrize("discriminator", ["hard", "soft"])
    @pytest.mark.parametrize(
        "seed, trajectory_id, n",
        [(0, 0, 1), (7, 3, 2), (123, 1, 257), (2**63 + 5, 2, 2000)],
    )
    def test_matches_per_block_reference(
        self, rotation, seed, trajectory_id, n, discriminator, noise_weight
    ):
        theta = _tilted(noise_weight)
        rho0 = density_from_bloch([0.3, -0.5, 0.6])
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
        with pytest.raises(ValueError, match="shot count must be >= 1"):
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

    def test_apply_matches_the_vectorised_product_bit_for_bit(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            channel = ChannelSuperoperator(choi_from_super(cptp_project((m + m.conj().T) / 2).c))
            r = rng.normal(size=3)
            rho = density_from_bloch(r * rng.uniform() ** (1 / 3) / np.linalg.norm(r))
            out = (channel.g @ rho.matrix.reshape(4)).reshape(2, 2)
            out = 0.5 * (out + out.conj().T)
            assert channel.apply(rho).matrix.tobytes() == (out / out.trace().real).tobytes()

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

    def test_length_mismatch_rejected(self, rho22):
        obs = (BVector(b=np.zeros(3), delta=np.zeros(3)),)
        with pytest.raises(ValueError):
            Trajectory(trajectory_id=0, dt=0.02, states=(rho22, rho22), observations=obs)
