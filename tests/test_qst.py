import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqtomo import (
    BVector,
    ComponentParams,
    MixtureParams,
    bilevel_qst,
    bloch_from_density,
    density_from_bloch,
    frobenius_distance,
    qst_closed_form,
    synthesize_iq,
    tomography_report,
)
from oracles import measurement_matrix, qst_projected_gradient

TABLE_ROWS = {
    "simulator": ((-0.0006, -0.4674, -0.8920),
                  np.array([[0.0571, -0.0003 + 0.2321j], [-0.0003 - 0.2321j, 0.9429]])),
    "joint": ((-0.0004, -0.4480, -0.8913),
              np.array([[0.0544, -0.0002 + 0.2240j], [-0.0002 - 0.2240j, 0.9456]])),
}


def _ball_point(rng: np.random.Generator, radius: float = 2.0) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * radius * rng.uniform() ** (1 / 3)


class TestClosedForm:
    def test_zero_gives_maximally_mixed(self):
        res = qst_closed_form(np.zeros(3))
        assert np.array_equal(res.rho.matrix, np.eye(2) / 2)
        assert res.residual_sq == 0.0
        assert res.solver == "closed_form"
        assert res.b_used.delta.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("name", sorted(TABLE_ROWS))
    def test_reference_rows(self, name):
        b, expected = TABLE_ROWS[name]
        res = qst_closed_form(np.asarray(b))
        assert np.abs(res.rho.matrix - expected).max() <= 5e-4

    def test_boundary_projection(self):
        res = qst_closed_form(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(res.rho.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        assert res.residual_sq == pytest.approx(1.0)

    def test_interior_is_exact(self):
        rng = np.random.default_rng(31)
        b = _ball_point(rng, radius=0.99)
        res = qst_closed_form(b)
        np.testing.assert_allclose(bloch_from_density(res.rho), b, atol=1e-12)
        assert res.residual_sq <= 1e-12

    def test_residual_matches_definition(self):
        rng = np.random.default_rng(32)
        a = measurement_matrix()
        for _ in range(200):
            b = _ball_point(rng)
            res = qst_closed_form(b)
            direct = float(np.linalg.norm((a @ res.rho.matrix.reshape(4)).real - b) ** 2)
            assert abs(res.residual_sq - direct) <= 1e-9

    def test_accepts_bvector_and_keeps_delta(self):
        est = BVector(b=[0.1, -0.2, 0.3], delta=[0.01, 0.02, 0.03])
        res = qst_closed_form(est)
        assert np.array_equal(res.b_used.delta, [0.01, 0.02, 0.03])

    def test_bvector_input_is_kept_as_is(self):
        est = BVector(b=[0.3, -0.5, 1.2], delta=[0.01, 0.02, 0.03])
        b_bytes, delta_bytes = est.b.tobytes(), est.delta.tobytes()
        res = qst_closed_form(est)
        assert res.b_used is est
        assert (est.b.tobytes(), est.delta.tobytes()) == (b_bytes, delta_bytes)
        assert res.residual_sq == pytest.approx((np.linalg.norm(est.b) - 1.0) ** 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            qst_closed_form(np.array([np.inf, 0.0, 0.0]))

    def test_optimality_certificate(self):
        """Perturbing the optimum along feasible directions never helps."""
        rng = np.random.default_rng(33)
        for _ in range(1000):
            b = _ball_point(rng)
            r_star = bloch_from_density(qst_closed_form(b).rho)
            base = np.sum((r_star - b) ** 2)
            u = rng.normal(size=(100, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            cand = r_star + 1e-3 * u
            norms = np.linalg.norm(cand, axis=1)
            cand[norms > 1] /= norms[norms > 1, None]
            objs = np.sum((cand - b) ** 2, axis=1)
            assert objs.min() >= base - 1e-9


class TestProjectedGradient:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            b = _ball_point(rng)
            gap = frobenius_distance(
                qst_projected_gradient(b).rho, qst_closed_form(b).rho
            )
            assert gap <= 1e-6

    def test_interior_residual_vanishes(self):
        res = qst_projected_gradient(np.array([0.3, -0.2, 0.4]))
        assert res.residual_sq <= 1e-12
        assert res.converged

    def test_boundary_case(self):
        res = qst_projected_gradient(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(res.rho.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-6)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            qst_projected_gradient(np.zeros(3), step=0.0)
        with pytest.raises(ValueError):
            qst_projected_gradient(np.zeros(3), step=1.5)

    def test_iteration_cap_flags_non_convergence(self):
        res = qst_projected_gradient(np.array([0.9, 0.1, -0.2]), max_iter=1)
        assert not res.converged
        assert res.iterations == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_data_processing(self, seed):
        rng = np.random.default_rng(seed)
        b_true = _ball_point(rng, radius=1.0)
        eps = rng.uniform(0, 0.5)
        noise = rng.normal(size=3)
        b_noisy = b_true + noise / np.linalg.norm(noise) * eps
        rho_true = density_from_bloch(b_true)
        rho_hat = qst_closed_form(b_noisy).rho
        assert frobenius_distance(rho_hat, rho_true) <= eps + 1e-9


class TestBilevel:
    def _datasets(self, rho, mixture, n, seed):
        from iqtomo import axis_seed, mix_seed, sample_outcomes

        out = []
        for axis in "xyz":
            stream = axis_seed(seed, axis)
            n0, n1 = sample_outcomes(rho, axis, n, stream)
            out.append(
                synthesize_iq(
                    n0, n1, mixture.zero, mixture.one,
                    seed=mix_seed(stream, 1), observable=axis,
                )
            )
        return out

    def test_modes_agree_when_fully_separated(self, rho22):
        far = MixtureParams(
            zero=ComponentParams(0.5, np.array([50.0, 2.0]), np.eye(2)),
            one=ComponentParams(0.5, np.array([-50.0, 2.0]), np.eye(2)),
        )
        dx, dy, dz = self._datasets(rho22, far, 400, seed=41)
        results = {
            mode: bilevel_qst(dx, dy, dz, far, mode=mode).qst.rho for mode in ("hard", "soft")
        }
        assert frobenius_distance(results["hard"], results["soft"]) <= 1e-9

    def test_assignment_equals_hard_with_matching_capacities(self, sep5_mixture):
        d = synthesize_iq(64, 36, sep5_mixture.zero, sep5_mixture.one, seed=42)
        from iqtomo import b_from_memberships, memberships_for

        counts = memberships_for(d, sep5_mixture, "hard").rows.sum(axis=0)
        theta = MixtureParams(
            zero=ComponentParams(counts[0] / 100, sep5_mixture.zero.mean, np.eye(2)),
            one=ComponentParams(counts[1] / 100, sep5_mixture.one.mean, np.eye(2)),
        )
        b_hard, _ = b_from_memberships(memberships_for(d, theta, "hard"))
        b_assign, _ = b_from_memberships(memberships_for(d, theta, "assignment"))
        assert b_assign == pytest.approx(b_hard, abs=1e-12)

    def test_reconstruction_close_to_truth(self, rho22, sep5_mixture):
        dx, dy, dz = self._datasets(rho22, sep5_mixture, 10_000, seed=43)
        res = bilevel_qst(dx, dy, dz, sep5_mixture, mode="soft")
        assert frobenius_distance(res.qst.rho, rho22) <= 0.03

    def test_b_used_consistent_with_memberships(self, rho22, sep5_mixture):
        from iqtomo import b_from_memberships, memberships_for

        dx, dy, dz = self._datasets(rho22, sep5_mixture, 2000, seed=44)
        for mode in ("hard", "soft", "assignment"):
            res = bilevel_qst(dx, dy, dz, sep5_mixture, mode=mode)
            for idx, d in enumerate((dx, dy, dz)):
                want = b_from_memberships(memberships_for(d, sep5_mixture, mode))
                assert (res.qst.b_used.b[idx], res.qst.b_used.delta[idx]) == want, (mode, idx)

    def test_axis_mismatch_rejected(self, rho22, sep5_mixture):
        dx, dy, dz = self._datasets(rho22, sep5_mixture, 100, seed=45)
        with pytest.raises(ValueError):
            bilevel_qst(dy, dx, dz, sep5_mixture, mode="hard")

    def test_unknown_mode_rejected_before_any_work(self, rho22, sep5_mixture):
        dx, dy, dz = self._datasets(rho22, sep5_mixture, 100, seed=45)
        with pytest.raises(ValueError, match="^unknown discrimination mode 'bogus'$"):
            bilevel_qst(dx, dy, dz, sep5_mixture, mode="bogus")
        # the mode is checked before the datasets and theta
        with pytest.raises(ValueError, match="^unknown discrimination mode 'bogus'$"):
            bilevel_qst(dy, dx, dz, "not a mixture", mode="bogus")

    @pytest.mark.parametrize(
        "make_theta, axis, got",
        [
            (lambda m: {"x": m, "y": m}, "z", "None"),
            (lambda m: "not a mixture", "x", "'not a mixture'"),
            (lambda m: {"x": m, "y": "sep5", "z": m}, "y", "'sep5'"),
        ],
        ids=["missing axis", "not a mixture", "one axis not a mixture"],
    )
    def test_theta_without_a_mixture_for_an_axis_rejected(self, rho22, sep5_mixture, make_theta, axis, got):
        dx, dy, dz = self._datasets(rho22, sep5_mixture, 100, seed=45)
        message = f"^theta for axis '{axis}' must be a MixtureParams, got {got}$"
        for mode in ("hard", "soft", "assignment"):
            with pytest.raises(ValueError, match=message):
                bilevel_qst(dx, dy, dz, make_theta(sep5_mixture), mode=mode)

    def test_per_axis_theta_mapping(self, rho22, sep5_mixture):
        dx, dy, dz = self._datasets(rho22, sep5_mixture, 500, seed=46)
        per_axis = {"x": sep5_mixture, "y": sep5_mixture, "z": sep5_mixture}
        res = bilevel_qst(dx, dy, dz, per_axis, mode="hard")
        assert res.mode == "hard"


class TestReport:
    def test_distance_to_self_is_zero(self):
        res = qst_closed_form(np.array([0.1, 0.2, -0.3]))
        report = tomography_report(res, reference=res.rho)
        assert report["frobenius_to_ref"] == 0.0

    def test_reference_distance_between_table_rows(self):
        res = qst_closed_form(np.asarray(TABLE_ROWS["simulator"][0]))
        ref = qst_closed_form(np.asarray(TABLE_ROWS["joint"][0])).rho
        report = tomography_report(res, reference=ref)
        assert report["frobenius_to_ref"] == pytest.approx(0.01208, abs=5e-4)

    def test_round_trips_through_json(self):
        res = qst_closed_form(np.array([0.0, -0.4674, -0.8920]))
        report = tomography_report(res)
        back = json.loads(json.dumps(report))
        assert back["solver"] == "closed_form"
        assert back["rho"]["re"][1][1] == report["rho"]["re"][1][1]
        for key in ("b", "delta_b", "rho", "residual_sq", "solver", "mode"):
            assert key in back

    def test_an_overflowing_residual_is_null(self):
        # b . b overflows, so residual_sq is inf, which JSON cannot hold
        res = qst_closed_form([1e200, -1e200, 3.0])
        assert res.residual_sq == float("inf")
        report = tomography_report(res)
        assert report["residual_sq"] is None
        assert json.loads(json.dumps(report, allow_nan=False))["residual_sq"] is None
