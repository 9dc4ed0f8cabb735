import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import iqtomo
from iqtomo import (
    AXES,
    CalibrationWarning,
    ComponentParams,
    ContaminationSpec,
    IQDataset,
    MembershipMatrix,
    MixtureParams,
    b_from_memberships,
    classify_hard,
    delta_b,
    em_fit,
    hard_b,
    mahalanobis_sq,
    memberships_for,
    soft_membership,
    synthesize_iq,
)
from iqtomo import discriminate
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE
from oracles import em_fit_reference, f_matrix, kmeans_pp_init_reference, mahalanobis_sq_einsum


def _component(mean, cov=None, weight=0.5) -> ComponentParams:
    return ComponentParams(weight, np.asarray(mean, dtype=float), np.eye(2) if cov is None else np.asarray(cov, dtype=float))


def _random_spd(rng, max_condition: float) -> np.ndarray:
    """Rotated covariance with a random scale, condition number and non-zero off-diagonal."""
    angle = rng.uniform(0.05, np.pi / 2 - 0.05)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    cov = rot @ np.diag([scale, scale * 10.0 ** rng.uniform(0.0, math.log10(max_condition))]) @ rot.T
    return 0.5 * (cov + cov.T)


def _worse_m_step(monkeypatch):
    """Patch the EM M-step so every update moves both means 5 units along I."""
    real = discriminate._m_step

    def worse(i, q, gamma, means):
        weights, new_means, covs = real(i, q, gamma, means)
        return weights, [(mi + 5.0, mq) for mi, mq in new_means], covs

    monkeypatch.setattr(discriminate, "_m_step", worse)


class TestParams:
    def test_component_caches_inverse(self):
        c = _component([1.0, 2.0], [[4.0, 1.0], [1.0, 2.0]])
        assert np.abs(c.cov_inv @ c.cov - np.eye(2)).max() <= 1e-9
        assert c.log_det == pytest.approx(math.log(7.0))

    def test_component_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            _component([0, 0], weight=1.5)

    def test_contamination_density(self):
        spec = ContaminationSpec(weight=0.1, center=(0.0, 2.0), radius=6.0)
        assert spec.density() == pytest.approx(1.0 / (math.pi * 36.0))

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureParams(zero=_component([1, 0], weight=0.6), one=_component([-1, 0], weight=0.6))

    def test_mixture_json_round_trip(self):
        theta = MixtureParams(
            zero=_component([2.5, 2.0], weight=0.45),
            one=_component([-2.5, 2.0], [[2.0, 0.3], [0.3, 1.0]], weight=0.45),
            noise=ContaminationSpec(weight=0.1),
        )
        back = MixtureParams.from_json_dict(json.loads(json.dumps(theta.to_json_dict())))
        assert np.array_equal(back.weights(), theta.weights())
        assert np.array_equal(back.one.cov, theta.one.cov)
        assert back.noise.radius == theta.noise.radius


class TestMahalanobis:
    def test_zero_at_mean(self):
        assert mahalanobis_sq(np.array([1.0, 2.0]), _component([1.0, 2.0])) == 0.0

    def test_identity_covariance(self):
        assert mahalanobis_sq(np.array([3.0, 4.0]), _component([0, 0])) == pytest.approx(25.0)

    def test_diagonal_covariance(self):
        c = _component([0, 0], [[4.0, 0.0], [0.0, 1.0]])
        assert mahalanobis_sq(np.array([2.0, 1.0]), c) == pytest.approx(2.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        c = _component([0.5, -0.5], [[2.0, 0.4], [0.4, 1.0]])
        pts = rng.normal(size=(50, 2))
        batch = mahalanobis_sq(pts, c)
        for k in range(50):
            assert batch[k] == pytest.approx(mahalanobis_sq(pts[k], c), abs=1e-12)

    def test_matches_einsum_oracle(self):
        # Both forms round each of a*di^2, 2b*di*dq and c*dq^2; where those
        # cancel (condition number up to 1e6) the quadratic form itself is
        # only known to that accuracy, so the tolerance is relative to
        # their absolute sum, which equals the result when nothing cancels.
        rng = np.random.default_rng(6)
        for _ in range(300):
            cov = _random_spd(rng, 1e6)
            c = _component(rng.normal(scale=3.0, size=2), cov)
            assert abs(c.cov_inv[0, 1]) > 0.0
            pts = rng.multivariate_normal(c.mean, 25.0 * cov, size=64)
            a, b, cc = c.cov_inv[0, 0], c.cov_inv[0, 1], c.cov_inv[1, 1]
            diff = pts - c.mean
            scale = (
                a * diff[:, 0] ** 2 + 2.0 * abs(b * diff[:, 0] * diff[:, 1]) + cc * diff[:, 1] ** 2
            )
            got = mahalanobis_sq(pts, c)
            want = mahalanobis_sq_einsum(pts, c.mean, c.cov_inv)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            for k in range(4):
                single = mahalanobis_sq(pts[k], c)
                assert isinstance(single, float)
                assert abs(single - mahalanobis_sq_einsum(pts[k], c.mean, c.cov_inv)) <= 1e-12 * scale[k]

    def test_inverse_matches_exact_arithmetic(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            c = _component([0.0, 0.0], _random_spd(rng, 1e6))
            s00, s01, s11 = (Fraction(float(v)) for v in (c.cov[0, 0], c.cov[0, 1], c.cov[1, 1]))
            det = s00 * s11 - s01 * s01
            exact = np.array([[float(s11 / det), float(-s01 / det)], [float(-s01 / det), float(s00 / det)]])
            np.testing.assert_allclose(c.cov_inv, exact, rtol=1e-15, atol=0.0)
            assert abs(c.log_det - math.log(det)) <= 1e-15 * max(1.0, abs(c.log_det))

    def test_rejects_singular_and_ill_conditioned(self):
        with pytest.raises(ValueError, match="positive definite"):
            _component([0, 0], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            _component([0, 0], [[1.0, 0.0], [0.0, float("nan")]])
        with pytest.raises(ValueError, match="ill-conditioned"):
            _component([0, 0], [[1e8, 1e8 - 1.0], [1e8 - 1.0, 1e8]])


class TestFMatrix:
    def test_standard_normal(self):
        np.testing.assert_allclose(f_matrix(_component([0, 0])), np.diag([-1.0, -1.0, 0.0]))

    def test_reference_cloud(self):
        got = f_matrix(_component([2.5, 2.0]))
        expected = np.array([[-1, 0, 2.5], [0, -1, 2.0], [2.5, 2.0, -10.25]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = rng.normal(size=(2, 2))
            c = _component(rng.normal(size=2), a @ a.T + 0.1 * np.eye(2))
            x = rng.normal(scale=3.0, size=2)
            xh = np.append(x, 1.0)
            assert abs(xh @ f_matrix(c) @ xh + mahalanobis_sq(x, c)) <= 1e-10


class TestClassifiers:
    def test_hard_at_means(self, sep5_mixture):
        assert classify_hard(np.array([2.5, 2.0]), sep5_mixture.zero, sep5_mixture.one) == 0
        assert classify_hard(np.array([-2.5, 2.0]), sep5_mixture.zero, sep5_mixture.one) == 1

    def test_tie_goes_to_zero(self, sep5_mixture):
        assert classify_hard(np.array([0.0, 37.0]), sep5_mixture.zero, sep5_mixture.one) == 0

    def test_hard_matches_distance_comparison(self, sep5_mixture):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=4.0, size=(1000, 2))
        labels = classify_hard(pts, sep5_mixture.zero, sep5_mixture.one)
        for k in range(1000):
            d0 = mahalanobis_sq(pts[k], sep5_mixture.zero)
            d1 = mahalanobis_sq(pts[k], sep5_mixture.one)
            assert labels[k] == (0 if d0 <= d1 else 1)

    def test_soft_equidistant(self, sep5_mixture):
        gamma = soft_membership(np.array([0.0, -1.0]), sep5_mixture.zero, sep5_mixture.one)
        np.testing.assert_allclose(gamma, [0.5, 0.5])

    def test_soft_at_mean_saturates(self, sep5_mixture):
        gamma = soft_membership(np.array([2.5, 2.0]), sep5_mixture.zero, sep5_mixture.one)
        assert gamma[0] == pytest.approx(1.0 / (1.0 + math.exp(-25.0)))

    def test_soft_normalized_even_when_remote(self, sep5_mixture):
        gamma = soft_membership(np.array([1e3, 1e3]), sep5_mixture.zero, sep5_mixture.one)
        assert gamma.sum() == 1.0
        assert np.all(np.isfinite(gamma))

    def test_soft_argmax_matches_hard(self, sep5_mixture):
        rng = np.random.default_rng(4)
        pts = rng.normal(scale=4.0, size=(1000, 2))
        gammas = soft_membership(pts, sep5_mixture.zero, sep5_mixture.one)
        hard = classify_hard(pts, sep5_mixture.zero, sep5_mixture.one)
        d0 = mahalanobis_sq(pts, sep5_mixture.zero)
        d1 = mahalanobis_sq(pts, sep5_mixture.one)
        decided = np.abs(d0 - d1) > 1e-9
        assert np.array_equal(np.argmax(gammas[decided], axis=1), hard[decided])


class TestBEstimates:
    def test_hard_b_reference_counts(self):
        assert hard_b(540, 9460) == -0.892
        assert hard_b(2663, 7337) == -0.4674

    def test_one_sided(self):
        assert hard_b(17, 0) == 1.0
        assert delta_b(17, 0) == 0.0

    def test_delta_b_values(self):
        assert delta_b(5000, 5000) == 0.01
        assert delta_b(540, 9460) == pytest.approx(4.52e-3, abs=1e-5)

    def test_accepts_float_effective_counts(self):
        assert hard_b(2.5, 7.5) == pytest.approx(-0.5)
        assert delta_b(2.5, 7.5) > 0.0

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n0, n1 = rng.integers(0, 1000, size=2)
            if n0 + n1 == 0:
                continue
            assert -1.0 <= hard_b(int(n0), int(n1)) <= 1.0

    def test_soft_b_saturated_rows(self):
        ones = MembershipMatrix(rows=np.tile([1.0, 0.0], (7, 1)), mode="soft")
        split = MembershipMatrix(rows=np.tile([0.5, 0.5], (7, 1)), mode="soft")
        assert b_from_memberships(ones)[0] == 1.0
        assert b_from_memberships(split)[0] == 0.0

    def test_soft_close_to_hard_at_separation_five(self, sep5_mixture):
        d = synthesize_iq(5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=11)
        b_soft, _ = b_from_memberships(memberships_for(d, sep5_mixture, "soft"))
        b_hard, _ = b_from_memberships(memberships_for(d, sep5_mixture, "hard"))
        assert abs(b_soft - b_hard) <= 2e-3

    def test_assignment_rows_exclude_noise_mass(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        member = MembershipMatrix(rows=rows, mode="assignment")
        b, err = b_from_memberships(member)
        assert b == pytest.approx((2 - 1) / 3)  # the noise row drops out of n
        assert err == pytest.approx(delta_b(2, 1))

    def test_all_noise_is_an_error(self):
        member = MembershipMatrix(rows=np.tile([0.0, 0.0, 1.0], (3, 1)), mode="assignment")
        with pytest.raises(ValueError):
            b_from_memberships(member)


class TestMembershipMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MembershipMatrix(rows=np.array([[0.6, 0.6]]), mode="soft")

    def test_mode_controls_width(self):
        with pytest.raises(ValueError):
            MembershipMatrix(rows=np.array([[0.5, 0.25, 0.25]]), mode="soft")
        with pytest.raises(ValueError):
            MembershipMatrix(rows=np.array([[0.5, 0.5]]), mode="assignment")

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            MembershipMatrix(rows=np.array([[1.5, -0.5]]), mode="soft")

    def test_memberships_for_hard_rows_are_binary(self, sep5_mixture):
        d = synthesize_iq(50, 50, sep5_mixture.zero, sep5_mixture.one, seed=12)
        member = memberships_for(d, sep5_mixture, "hard")
        assert set(np.unique(member.rows)) <= {0.0, 1.0}


class TestEmFit:
    def test_exact_point_clouds_hit_floor(self):
        pts0 = np.tile([2.5, 2.0], (20, 1))
        pts1 = np.tile([-2.5, 2.0], (20, 1))
        coords = np.vstack([pts0, pts1])
        d = IQDataset("x", coords[:, 0], coords[:, 1], [0] * 20 + [1] * 20, seed=1)
        with pytest.warns(CalibrationWarning) as got:
            theta = em_fit(d)
        with pytest.warns(CalibrationWarning) as want:
            em_fit_reference(d)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        np.testing.assert_allclose(theta.zero.mean, [2.5, 2.0], atol=1e-9)
        np.testing.assert_allclose(theta.one.mean, [-2.5, 2.0], atol=1e-9)
        np.testing.assert_allclose(theta.zero.cov, 1e-6 * np.eye(2), atol=1e-12)

    def test_recovers_reference_parameters(self, sep5_mixture):
        d = synthesize_iq(5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=13)
        theta = em_fit(d)
        assert np.abs(theta.zero.mean - [2.5, 2.0]).max() <= 0.1
        assert np.abs(theta.one.mean - [-2.5, 2.0]).max() <= 0.1
        assert np.linalg.norm(theta.zero.cov - np.eye(2)) <= 0.15
        assert theta.noise is None

    def test_loglik_monotone(self, sep5_mixture):
        d = synthesize_iq(2000, 2000, sep5_mixture.zero, sep5_mixture.one, seed=14)
        history: list[float] = []
        em_fit(d, log_history=history)
        assert len(history) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_warm_start_near_fixed_point(self, sep5_mixture):
        d = synthesize_iq(5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=15)
        theta = em_fit(d, init=(sep5_mixture.zero, sep5_mixture.one), max_iter=1)
        assert np.abs(theta.zero.mean - [2.5, 2.0]).max() <= 0.05
        assert np.abs(theta.one.mean - [-2.5, 2.0]).max() <= 0.05

    def test_deterministic_for_same_dataset(self, sep5_mixture):
        d = synthesize_iq(1000, 1000, sep5_mixture.zero, sep5_mixture.one, seed=16)
        a = em_fit(d)
        b = em_fit(d)
        assert np.array_equal(a.zero.mean, b.zero.mean)
        assert np.array_equal(a.one.cov, b.one.cov)

    def test_component_order_by_first_coordinate(self, sep5_mixture):
        d = synthesize_iq(500, 1500, sep5_mixture.zero, sep5_mixture.one, seed=17)
        theta = em_fit(d)
        assert theta.zero.mean[0] > theta.one.mean[0]

    def test_needs_four_samples(self, sep5_mixture):
        d = IQDataset("z", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [-1, -1, -1], seed=1)
        with pytest.raises(ValueError):
            em_fit(d)

    def test_matches_reference_loop_on_criterion_04_axes(self):
        # the 60 axis datasets of criterion-04 seeds 0-19
        for seed in range(20):
            datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, seed)
            for axis in AXES:
                got_history: list[float] = []
                want_history: list[float] = []
                got = em_fit(datasets[axis], log_history=got_history)
                want = em_fit_reference(datasets[axis], log_history=want_history)
                assert len(got_history) == len(want_history), (seed, axis)
                np.testing.assert_allclose(got_history, want_history, rtol=1e-12, atol=0.0)
                for g, w in ((got.zero, want.zero), (got.one, want.one)):
                    assert abs(g.weight - w.weight) <= 1e-10
                    np.testing.assert_allclose(g.mean, w.mean, rtol=0.0, atol=1e-10)
                    np.testing.assert_allclose(g.cov, w.cov, rtol=0.0, atol=1e-10)

    def test_kmeans_pp_init_matches_reference_on_criterion_04_axes(self):
        for seed in range(20):
            datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, seed)
            for axis in AXES:
                d = datasets[axis]
                init_seed = (d.seed ^ 0xE41B17) & 0xFFFFFFFFFFFFFFFF
                centers, to_second = discriminate._kmeans_pp_init(d.i, d.q, init_seed)
                want_centers, want_assign = kmeans_pp_init_reference(d.points(), init_seed)
                assert np.array_equal(d.points()[list(centers)], want_centers), (seed, axis)
                assert np.array_equal(to_second.astype(int), want_assign), (seed, axis)

    def test_kmeans_pp_init_ties_go_to_first_centre(self):
        # on an integer lattice many samples lie equidistant from both centres
        grid = np.array([(x, y) for x in range(-2, 3) for y in range(-2, 3)] + [(5, 5)] * 4, float)
        ties = 0
        for seed in range(8):
            centers, to_second = discriminate._kmeans_pp_init(grid[:, 0], grid[:, 1], seed)
            want_centers, want_assign = kmeans_pp_init_reference(grid, seed)
            assert np.array_equal(grid[list(centers)], want_centers), seed
            assert np.array_equal(to_second.astype(int), want_assign), seed
            d2 = ((grid[:, None, :] - want_centers[None, :, :]) ** 2).sum(axis=2)
            ties += int(np.count_nonzero(d2[:, 0] == d2[:, 1]))
        assert ties > 0
        # all samples equal: the second centre is the next sample, every tie to the first
        same = np.zeros(4)
        centers, to_second = discriminate._kmeans_pp_init(same, same, 3)
        assert centers[1] == (centers[0] + 1) % 4 and not to_second.any()

    def test_likelihood_decrease_is_an_error(self, sep5_mixture, monkeypatch):
        d = synthesize_iq(500, 500, sep5_mixture.zero, sep5_mixture.one, seed=18)
        _worse_m_step(monkeypatch)
        with pytest.raises(ValueError, match=r"log-likelihood decreased at iteration 2 by \d"):
            em_fit(d)

    def test_likelihood_decrease_is_an_error_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = """
import numpy as np
import pytest
from iqtomo import ComponentParams, em_fit, synthesize_iq
from test_discriminate import _worse_m_step

assert False, "unreachable under -O"
zero = ComponentParams(0.5, np.array([2.5, 2.0]), np.eye(2))
one = ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2))
patch = pytest.MonkeyPatch()
_worse_m_step(patch)
try:
    em_fit(synthesize_iq(500, 500, zero, one, seed=18))
except ValueError as exc:
    print(exc)
"""
        src_root = Path(iqtomo.__file__).resolve().parents[1]
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src_root), str(tests_dir), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        assert "log-likelihood decreased at iteration 2" in done.stdout
