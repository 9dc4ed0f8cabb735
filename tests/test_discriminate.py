import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    delta_b,
    em_fit,
    hard_b,
    memberships_for,
    synthesize_iq,
)
from iqtomo import discriminate
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE
from oracles import (
    em_fit_reference,
    f_matrix,
    log_density_reference,
    mahalanobis_sq_einsum,
    principal_split_reference,
    soft_rows_reference,
)


def _component(mean, cov=None, weight=0.5) -> ComponentParams:
    return ComponentParams(weight, np.asarray(mean, dtype=float), np.eye(2) if cov is None else np.asarray(cov, dtype=float))


def _dist_sq(points, component: ComponentParams) -> np.ndarray:
    """Squared Mahalanobis distances of (2,) or (n, 2) points to ``component``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pair = ComponentParams(0.5, component.mean, component.cov)
    return discriminate.cloud_distances(pts[:, 0], pts[:, 1], MixtureParams(zero=pair, one=pair))[0]


def _dataset(points) -> IQDataset:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return IQDataset("z", pts[:, 0], pts[:, 1], [-1] * pts.shape[0], seed=0)


def _random_spd(rng, max_condition: float) -> np.ndarray:
    """Rotated covariance with a random scale, condition number and non-zero off-diagonal."""
    angle = rng.uniform(0.05, np.pi / 2 - 0.05)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    cov = rot @ np.diag([scale, scale * 10.0 ** rng.uniform(0.0, math.log10(max_condition))]) @ rot.T
    return 0.5 * (cov + cov.T)


def _worse_m_step(monkeypatch):
    """Patch the EM M-step so every update moves both means 5 units along I.

    The first call, the M-step on the start's split, is left as it is.
    """
    real = discriminate._m_step
    calls = []

    def worse(stats, gamma, means):
        weights, new_means, covs = real(stats, gamma, means)
        calls.append(None)
        if len(calls) == 1:
            return weights, new_means, covs
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

    # the suite turns numpy RuntimeWarnings into errors: these are rejected without overflow
    @pytest.mark.parametrize(
        "cov",
        [[[1e308, -1e308], [1e308, 1.0]], [[1.0, 1.7e308], [-1.7e308, 1.0]]],
        ids=["opposite_off_diagonals", "huge_skew"],
    )
    def test_rejects_huge_asymmetric_covariance_without_overflow(self, cov):
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            _component([0.0, 0.0], cov)

    # the halves check would subtract inf - inf
    @pytest.mark.parametrize(
        "cov", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]], ids=["diagonal", "off_diagonal"]
    )
    def test_rejects_infinite_covariance(self, cov):
        with pytest.raises(ValueError, match="covariance .* must be finite"):
            _component([0.0, 0.0], cov)

    def test_huge_singular_covariance_is_not_positive_definite(self):
        with pytest.raises(ValueError, match="^covariance must be positive definite$"):
            _component([0.0, 0.0], [[1e308, 1e308], [1e308, 1e308]])

    def test_huge_positive_definite_covariance_is_accepted(self):
        c = _component([0.0, 0.0], [[1e308, 0.0], [0.0, 1.0]])
        assert c.cov_inv.tolist() == [[1e-308, 0.0], [0.0, 1.0]]
        assert c.log_det == pytest.approx(math.log(1e308), rel=1e-15)

    def test_huge_covariance_inverts_as_its_scaled_copy(self):
        # entries near 2**927 are inverted at a smaller power-of-two scale, exactly
        rng = np.random.default_rng(9)
        for _ in range(50):
            cov = _random_spd(rng, 1e6)
            small, huge = _component([0.0, 0.0], cov), _component([0.0, 0.0], np.ldexp(cov, 900))
            assert np.array_equal(huge.cov_inv, np.ldexp(small.cov_inv, -900))
            assert huge.log_det == pytest.approx(small.log_det + 1800 * math.log(2.0), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, -2.5, 1e154, -1e200, 1e308, -1.7976931348623157e308, 5e-324]),
            min_size=6,
            max_size=6,
        )
    )
    def test_huge_json_mixture_entries_raise_only_value_error(self, entries):
        obj = {
            "alpha": [0.5, 0.5, 0.0],
            "mu": [entries[0:2], [-2.5, 2.0]],
            "sigma": [[entries[2:4], entries[4:6]], [[1.0, 0.0], [0.0, 1.0]]],
        }
        try:
            MixtureParams.from_json_dict(obj)
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "center, radius, message",
        [
            ((math.nan, 2.0), 6.0, "contamination center must hold finite numbers, got nan"),
            ((0.0, 2.0), math.inf, "contamination radius must hold finite numbers, got inf"),
            ((0.0, 2.0, 5.0), 6.0, "contamination center must be a [2] list of numbers, got [0.0, 2.0, 5.0]"),
            ((1.797e308, 0.0), 1e307, "contamination disc reaches past the largest double"),
            ((0.0, -1e308), 1e308, "contamination disc reaches past the largest double"),
        ],
        ids=["nan_center", "infinite_radius", "three_coordinates", "disc_past_i_range", "disc_past_q_range"],
    )
    def test_contamination_center_and_radius_are_checked(self, center, radius, message):
        with pytest.raises(ValueError) as err:
            ContaminationSpec(0.1, center, radius)
        assert str(err.value) == message

    def test_disc_at_the_edge_of_the_float_range_draws_finite_points(self):
        edge = ContaminationSpec(0.5, (1.6e308, -1.6e308), 1.7e308 - 1.6e308)
        # the suite turns numpy RuntimeWarnings into errors, so no draw overflows
        d = synthesize_iq(200, 200, _component([2.5, 2.0]), _component([-2.5, 2.0]), edge, seed=3)
        assert np.isfinite(d.i).all() and np.isfinite(d.q).all() and d.truth.tolist().count(2) == 400

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
        assert _dist_sq([1.0, 2.0], _component([1.0, 2.0])).tolist() == [0.0]

    def test_identity_covariance(self):
        assert _dist_sq([3.0, 4.0], _component([0, 0]))[0] == pytest.approx(25.0)

    def test_diagonal_covariance(self):
        c = _component([0, 0], [[4.0, 0.0], [0.0, 1.0]])
        assert _dist_sq([2.0, 1.0], c)[0] == pytest.approx(2.0)

    def test_batch_matches_single_points(self):
        rng = np.random.default_rng(1)
        c = _component([0.5, -0.5], [[2.0, 0.4], [0.4, 1.0]])
        pts = rng.normal(size=(50, 2))
        batch = _dist_sq(pts, c)
        for k in range(50):
            assert batch[k] == pytest.approx(_dist_sq(pts[k], c)[0], abs=1e-12)

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
            got = _dist_sq(pts, c)
            want = mahalanobis_sq_einsum(pts, c.mean, c.cov_inv)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            for k in range(4):
                single = _dist_sq(pts[k], c)[0]
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

    @pytest.mark.parametrize(
        "point, cov, message",
        [
            ((1e200, 2.0), np.eye(2), "squared distances overflow: a sample lies too far from both clouds"),
            ((-1e200, 2.0), np.eye(2), "squared distances overflow: a sample lies too far from both clouds"),
            # 2 * b * di * dq is -inf here and a * di**2 inf, so the sum is NaN
            ((1e200, 1e200), [[1.0, 0.5], [0.5, 1.0]], "squared distances overflow: a sample lies too far from both clouds"),
            ((math.inf, 2.0), np.eye(2), "i/q coordinates must be finite"),
            ((0.0, math.nan), np.eye(2), "i/q coordinates must be finite"),
        ],
    )
    def test_far_sample_raises_without_a_numpy_warning(self, point, cov, message):
        theta = MixtureParams(_component([2.5, 2.0], cov), _component([-2.5, 2.0], cov))
        i, q = np.array([0.0, point[0], 1.0]), np.array([2.0, point[1], 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no caller-side np.errstate: no RuntimeWarning may leak
            with pytest.raises(ValueError) as err:
                discriminate.cloud_distances(i, q, theta)
        assert str(err.value) == message

    def test_rejects_singular_and_ill_conditioned(self):
        with pytest.raises(ValueError, match="positive definite"):
            _component([0, 0], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            _component([0, 0], [[1.0, 0.0], [0.0, float("nan")]])
        with pytest.raises(ValueError, match="ill-conditioned"):
            _component([0, 0], [[1e8, 1e8 - 1.0], [1e8 - 1.0, 1e8]])


class TestGaussianCost:
    """EM's E-step and the assignment objective share one cost: minus the Gaussian log-density."""

    distance = st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0, 1e300, np.finfo(float).max]),
        st.floats(0.0, np.finfo(float).max),
    )
    log_det = st.one_of(
        st.sampled_from([0.0, -2.0 * math.log(2.0 * math.pi), -23.0, 1418.0]),
        st.floats(-1e4, 1e4),
    )

    @settings(max_examples=300, deadline=None)
    @given(d=st.lists(distance, min_size=1, max_size=50), log_det=log_det)
    def test_negated_cost_is_the_reference_log_density(self, d, log_det):
        d = np.array(d)
        got = -discriminate._gaussian_cost(d, log_det)
        want = log_density_reference(d, log_det)
        # bit for bit, except that an exact zero may differ in sign (+ 0.0 makes it +0)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


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
            assert abs(xh @ f_matrix(c) @ xh + _dist_sq(x, c)[0]) <= 1e-10


class TestClassifiers:
    def test_hard_at_means(self, sep5_mixture):
        member = memberships_for(_dataset([[2.5, 2.0], [-2.5, 2.0]]), sep5_mixture, "hard")
        assert member.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_hard_matches_distance_comparison(self, sep5_mixture):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=4.0, size=(1000, 2))
        ones = memberships_for(_dataset(pts), sep5_mixture, "hard").rows[:, 1]
        for k in range(1000):
            d0 = _dist_sq(pts[k], sep5_mixture.zero)[0]
            d1 = _dist_sq(pts[k], sep5_mixture.one)[0]
            assert ones[k] == (0.0 if d0 <= d1 else 1.0)

    def test_soft_equidistant(self, sep5_mixture):
        gamma = memberships_for(_dataset([0.0, -1.0]), sep5_mixture, "soft").rows[0]
        np.testing.assert_allclose(gamma, [0.5, 0.5])

    def test_soft_at_mean_saturates(self, sep5_mixture):
        gamma = memberships_for(_dataset([2.5, 2.0]), sep5_mixture, "soft").rows[0]
        assert gamma[0] == pytest.approx(1.0 / (1.0 + math.exp(-25.0)))

    def test_soft_normalized_even_when_remote(self, sep5_mixture):
        gamma = memberships_for(_dataset([1e3, 1e3]), sep5_mixture, "soft").rows[0]
        assert gamma.sum() == 1.0
        assert np.all(np.isfinite(gamma))

    def test_soft_argmax_matches_hard(self, sep5_mixture):
        rng = np.random.default_rng(4)
        pts = rng.normal(scale=4.0, size=(1000, 2))
        gammas = memberships_for(_dataset(pts), sep5_mixture, "soft").rows
        hard = memberships_for(_dataset(pts), sep5_mixture, "hard").rows[:, 1]
        d0 = _dist_sq(pts, sep5_mixture.zero)
        d1 = _dist_sq(pts, sep5_mixture.one)
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

    # counts that returned NaN (the first three) or raised OverflowError (n**3 of a float above
    # 5.6e102, or an integer too large for a float) or ZeroDivisionError (n**3 underflowing to 0)
    @pytest.mark.parametrize(
        "rule, n0, n1",
        [
            (hard_b, math.nan, 1.0),
            (delta_b, math.inf, 1.0),
            (delta_b, 1e308, 1e308),
            (delta_b, 1e200, 1.0),
            (hard_b, 1.0, math.inf),
            (delta_b, 1e308, 0.0),
            (hard_b, 10**400, 1.0),
            (delta_b, np.float64(np.nan), 3),
            (delta_b, 0, 1e-120),
        ],
        ids=[
            "hard_b nan",
            "delta_b inf",
            "delta_b 1e308 pair",
            "delta_b 1e200",
            "hard_b inf",
            "delta_b 1e308 cubed",
            "hard_b 10**400",
            "delta_b numpy nan",
            "delta_b underflow",
        ],
    )
    def test_a_non_finite_or_overflowing_count_is_refused(self, rule, n0, n1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^counts must be finite and non-negative with n0 \+ n1 >= 1$"):
                rule(n0, n1)

    # every count pair the plain formulas took to a finite value keeps its bits
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(0, 2**80), st.floats(0.0, 1e120)),
        st.one_of(st.integers(0, 2**80), st.floats(0.0, 1e120)),
    )
    def test_finite_results_keep_the_plain_formulas_bits(self, n0, n1):
        plain = {
            hard_b: lambda: (n0 - n1) / (n0 + n1),
            delta_b: lambda: 2.0 * math.sqrt(n0 * n1 / (n0 + n1) ** 3),
        }
        for rule, formula in plain.items():
            try:
                value = formula()
            except (ZeroDivisionError, OverflowError):
                value = math.nan
            if math.isfinite(value):
                assert rule(n0, n1) == value and math.copysign(1.0, rule(n0, n1)) == math.copysign(1.0, value)
            else:
                with pytest.raises(ValueError):
                    rule(n0, n1)

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


class TestExactSum:
    """``_exact_sum`` is ``math.fsum`` bit for bit, without a Python list."""

    # zero, one, the smallest subnormal, the largest subnormal, the smallest
    # normal and the neighbours of one half and of one
    SPECIAL = (0.0, 1.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 0.5, 0.5 - 2.0**-54, 1.0 - 2.0**-53)

    @staticmethod
    @st.composite
    def unit_arrays(draw, max_size=5000):
        """Arrays in [0, 1] of length 1 to ``max_size``: uniform values scaled by
        2**-k, k up to a drawn spread (past 1074 they underflow to subnormals
        and zero), with special values placed at drawn positions."""
        n = draw(st.integers(1, max_size))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spread = draw(st.sampled_from([0, 1, 60, 1100]))
        x = rng.uniform(size=n) * 2.0 ** -rng.integers(0, spread + 1, size=n).astype(float)
        value = st.one_of(st.sampled_from(TestExactSum.SPECIAL), st.floats(0.0, 1.0))
        for pos, v in draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=20)):
            x[pos] = v
        return x

    @settings(max_examples=150, deadline=None)
    @given(x=unit_arrays())
    def test_equals_fsum_on_unit_arrays(self, x):
        assert discriminate._exact_sum(x) == math.fsum(x.tolist())

    @pytest.mark.parametrize("value", SPECIAL)
    def test_equals_fsum_on_one_value_repeated(self, value):
        for n in (1, 2, 3, 4999, 5000):
            x = np.full(n, value)
            assert discriminate._exact_sum(x) == math.fsum(x.tolist())

    @settings(max_examples=60, deadline=None)
    @given(x=unit_arrays(max_size=40), block=st.integers(1, 7))
    def test_blocks_add_up_exactly(self, x, block):
        # a block of _SUM_BLOCK values keeps bincount exact; shorter blocks
        # exercise the sum over several of them
        with mock.patch.object(discriminate, "_SUM_BLOCK", block):
            assert discriminate._exact_sum(x) == math.fsum(x.tolist())

    def test_soft_membership_columns_sum_as_fsum(self):
        rows = np.array([[0.25, 0.75], [1.0, 0.0], [5e-324, 1.0 - 5e-324], [0.5, 0.5]])
        n0, n1 = math.fsum(rows[:, 0].tolist()), math.fsum(rows[:, 1].tolist())
        assert b_from_memberships(MembershipMatrix(rows=rows, mode="soft")) == (
            hard_b(n0, n1),
            delta_b(n0, n1),
        )


class TestSoftColumns:
    """The column softmax equals the row-wise oracle bit for bit."""

    @staticmethod
    def assert_bit_equal(d0, d1):
        d0, d1 = np.asarray(d0, dtype=float), np.asarray(d1, dtype=float)
        got = np.stack(discriminate._soft_columns(d0, d1), axis=1)
        assert got.tobytes() == soft_rows_reference(d0, d1).tobytes()

    def test_ties_zeros_and_huge_distances(self):
        big = np.finfo(float).max
        pairs = [
            (0.0, 0.0), (3.5, 3.5), (1e308, 1e308), (big, big),  # exact ties
            (0.0, 1.0), (1.0, 0.0), (0.0, 745.2), (0.0, 1e308), (big, 0.0),
            (1e308, 1.7e308), (1.7e308, 1e308), (5e-324, 0.0), (708.4, 0.25),
        ]
        d0, d1 = zip(*pairs)
        self.assert_bit_equal(d0, d1)

    distance = st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0, 745.0, 746.0, 1e308, np.finfo(float).max]),
        st.floats(0.0, 50.0),
        st.floats(0.0, np.finfo(float).max),
    )

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(distance, distance), min_size=1, max_size=300))
    def test_equals_row_softmax(self, pairs):
        d0, d1 = zip(*pairs)
        self.assert_bit_equal(d0, d1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_row_softmax_on_criterion_04_axes(self, seed):
        datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, seed)
        for axis in AXES:
            d = datasets[axis]
            theta = em_fit(d)
            d0, d1 = discriminate.cloud_distances(d.i, d.q, theta)
            self.assert_bit_equal(d0, d1)
            rows = memberships_for(d, theta, "soft").rows
            assert rows.tobytes() == soft_rows_reference(d0, d1).tobytes()


class TestHardCounts:
    """Hard b and delta_b are label counts, equal to the one-hot column fsums they replace."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_one_hot_fsum_on_criterion_04_axes(self, seed):
        datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, seed)
        for axis in AXES:
            theta = em_fit(datasets[axis])
            member = memberships_for(datasets[axis], theta, "hard")
            n0, n1 = math.fsum(member.rows[:, 0]), math.fsum(member.rows[:, 1])
            b, err = b_from_memberships(member)
            assert (b, err) == (hard_b(n0, n1), delta_b(n0, n1))
            d0, d1 = discriminate.cloud_distances(datasets[axis].i, datasets[axis].q, theta)
            assert discriminate.b_from_distances(d0, d1, "hard", [[slice(None)]]) == [(b, err)]

    def test_soft_b_from_distances_matches_memberships(self, sep5_mixture):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=13)
        d0, d1 = discriminate.cloud_distances(d.i, d.q, sep5_mixture)
        want = b_from_memberships(memberships_for(d, sep5_mixture, "soft"))
        assert discriminate.b_from_distances(d0, d1, "soft", [[slice(None)]]) == [want]

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_each_block_is_the_b_of_its_gathered_samples(self, sep5_mixture, mode):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=13)
        d0, d1 = discriminate.cloud_distances(d.i, d.q, sep5_mixture)
        # interleaved slices, one of them empty, as draw_shots lays out the blocks of a step
        blocks = [[slice(0, 100), slice(400, 400), slice(900, 1000)], [slice(100, 400)], [slice(400, 900)]]
        want = [
            discriminate.b_from_distances(
                np.concatenate([d0[cut] for cut in block]), np.concatenate([d1[cut] for cut in block]),
                mode, [[slice(None)]],
            )[0]
            for block in blocks
        ]
        assert discriminate.b_from_distances(d0, d1, mode, blocks) == want

    def test_ties_go_to_zero(self, sep5_mixture):
        # (0, 2) and (0, 37) are equidistant from both clouds
        d = _dataset([[0.0, 2.0], [0.0, 2.0], [2.5, 2.0], [0.0, 37.0]])
        member = memberships_for(d, sep5_mixture, "hard")
        assert member.rows.tolist() == [[1.0, 0.0]] * 4
        assert b_from_memberships(member) == (1.0, 0.0)

    @pytest.mark.parametrize("mode", ["hard", "soft", "assignment"])
    def test_b_for_is_b_of_the_memberships(self, sep5_mixture, mode):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=13)
        want = b_from_memberships(memberships_for(d, sep5_mixture, mode))
        assert discriminate.b_for(d, sep5_mixture, mode) == want

    def test_b_for_rejects_an_unknown_mode(self, sep5_mixture):
        d = synthesize_iq(7, 3, sep5_mixture.zero, sep5_mixture.one, seed=13)
        with pytest.raises(ValueError, match="^unknown discrimination mode 'bogus'$"):
            discriminate.b_for(d, sep5_mixture, "bogus")

    def test_b_from_distances_has_no_assignment_mode(self):
        with pytest.raises(ValueError, match="'hard' or 'soft'"):
            discriminate.b_from_distances(np.zeros(2), np.ones(2), "assignment", [[slice(None)]])

    def test_hard_rows_must_be_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            MembershipMatrix(rows=np.array([[1.0, 0.0], [0.25, 0.75]]), mode="hard")


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

    @pytest.mark.parametrize("mode", ["hard", "soft", "assignment"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rows(self, mode, bad):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])[:, : 3 if mode == "assignment" else 2]
        rows[0, :] = bad
        with pytest.raises(ValueError, match="membership weights must be finite"):
            MembershipMatrix(rows=rows, mode=mode)

    @pytest.mark.parametrize(
        "mode, row, message",
        [
            (mode, row, message)
            for mode in ("hard", "soft", "assignment")
            for row, message in (
                ([math.nan, 1.0, 0.0], "membership weights must be finite"),
                ([1.5, -0.5, 0.0], "membership weights must lie in [0, 1]"),
                ([0.5, 0.25, 0.0], "membership rows must sum to 1"),
            )
        ]
        + [
            ("assignment", [0.5, 0.5, 0.5], "membership rows must sum to 1"),
            ("hard", [0.25, 0.75], "hard membership rows must be one-hot"),
        ],
    )
    def test_defect_in_a_late_row_is_refused(self, mode, row, message):
        width = 3 if mode == "assignment" else 2
        rows = np.eye(width)[np.arange(9) % 2]
        rows[7] = row[:width]
        with pytest.raises(ValueError) as err:
            MembershipMatrix(rows=rows, mode=mode)
        assert str(err.value) == message

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
                # the principal-axis start needs at most 15 iterations here
                assert len(got_history) <= 25, (seed, axis)
                np.testing.assert_allclose(got_history, want_history, rtol=1e-12, atol=0.0)
                for g, w in ((got.zero, want.zero), (got.one, want.one)):
                    assert abs(g.weight - w.weight) <= 1e-10
                    np.testing.assert_allclose(g.mean, w.mean, rtol=0.0, atol=1e-10)
                    np.testing.assert_allclose(g.cov, w.cov, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("separation", [5.0, 40.0, 200.0])
    def test_matches_reference_loop_on_tilted_clouds(self, separation):
        # the moment form's error grows like separation**2 * eps; 200 sigma stays within 1e-10
        cov = np.array([[1.2, 0.3], [0.3, 0.8]])
        zero = ComponentParams(0.5, np.array([separation / 2, 2.0]), cov)
        one = ComponentParams(0.5, np.array([-separation / 2, 2.0]), cov)
        for seed in range(3):
            d = synthesize_iq(3000, 2000, zero, one, seed=seed)
            got_history: list[float] = []
            want_history: list[float] = []
            got = em_fit(d, log_history=got_history)
            want = em_fit_reference(d, log_history=want_history)
            assert len(got_history) == len(want_history), seed
            np.testing.assert_allclose(got_history, want_history, rtol=1e-12, atol=0.0)
            for g, w in ((got.zero, want.zero), (got.one, want.one)):
                assert abs(g.weight - w.weight) <= 1e-10
                np.testing.assert_allclose(g.mean, w.mean, rtol=0.0, atol=1e-10)
                np.testing.assert_allclose(g.cov, w.cov, rtol=0.0, atol=1e-10)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
    def test_same_bits_at_any_blas_thread_count(self):
        # OpenBLAS splits a shot-length dot product, and so its rounding, across its threads
        script = """
import hashlib
from iqtomo import em_fit
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE

digest = hashlib.sha256()
for axis, d in simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 40_000, 5).items():
    history = []
    theta = em_fit(d, log_history=history)
    digest.update(repr((history, theta.to_json_dict())).encode())
print(digest.hexdigest())
"""
        src_root = Path(iqtomo.__file__).resolve().parents[1]
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_root), env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]

    def test_principal_split_matches_reference_on_criterion_04_axes(self):
        for seed in range(20):
            datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, seed)
            for axis in AXES:
                d = datasets[axis]
                upper = discriminate._principal_cut(discriminate._statistics(d.i, d.q)[0])
                assert np.array_equal(upper, principal_split_reference(d.points())), (seed, axis)

    def test_principal_split_matches_reference_on_small_sets(self):
        rng = np.random.default_rng(23)
        sets = []
        for _ in range(40):
            n = int(rng.integers(4, 12))
            pts = rng.normal(scale=2.0, size=(n, 2))
            ties = rng.integers(0, n, size=int(rng.integers(1, n)))
            sets.append(np.vstack([pts, pts[ties]]))  # repeated points tie in every projection
        for _ in range(10):
            t = rng.normal(size=6)
            for direction in ([1.0, 0.0], [0.0, 1.0], [0.6, -0.8]):
                sets.append(np.r_[t, t[:2]][:, None] * direction + [0.1, 0.3])  # collinear, with ties
        sets.append(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))  # n = 4
        checked_ties = 0
        for pts in sets:
            upper = discriminate._principal_cut(discriminate._statistics(pts[:, 0], pts[:, 1])[0])
            assert np.array_equal(upper, principal_split_reference(pts)), pts
            assert 0 < np.count_nonzero(upper) < pts.shape[0]
            # repeated points always fall on one side
            _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
            assert np.array_equal(upper, upper[first][inverse.ravel()])
            checked_ties += pts.shape[0] - first.size
        assert checked_ties > 0

    def test_all_equal_samples_are_rejected(self):
        same = np.full((6, 2), [0.1, 0.3])
        with pytest.raises(ValueError, match="all points coincide"):
            principal_split_reference(same)
        with pytest.raises(ValueError, match="two or more distinct points"):
            em_fit(_dataset(same))

    def test_scatter_overflow_is_a_value_error(self, sep5_mixture):
        d = synthesize_iq(50, 50, sep5_mixture.zero, sep5_mixture.one, seed=19)
        i = d.i.copy()
        i[5] = -1e200
        far = IQDataset("x", i, d.q, d.truth, seed=d.seed)
        # the suite turns numpy RuntimeWarnings into errors, so none leaks here
        with pytest.raises(ValueError, match="a sample lies too far from both clouds$"):
            em_fit(far)

    def test_iteration_cap_warns(self, sep5_mixture, monkeypatch):
        monkeypatch.setattr(discriminate, "EM_MAX_ITER", 2)
        d = synthesize_iq(2000, 2000, sep5_mixture.zero, sep5_mixture.one, seed=14)
        history: list[float] = []
        with pytest.warns(CalibrationWarning) as got:
            em_fit(d, log_history=history)
        assert len(got) == 1 and len(history) == 2
        change = abs(history[1] - history[0]) / (1.0 + abs(history[1]))
        assert str(got[0].message) == (
            f"EM stopped at max_iter=2 before converging: last relative "
            f"log-likelihood change {change:.3g} (EM_TOL 1e-08)"
        )

    def test_converged_fit_does_not_warn(self, sep5_mixture, recwarn):
        em_fit(synthesize_iq(2000, 2000, sep5_mixture.zero, sep5_mixture.one, seed=14))
        assert not [w for w in recwarn if issubclass(w.category, CalibrationWarning)]

    def test_criterion_04_seed_4_x_axis_converges_near_truth(self):
        # a random start used to stall here at the 200-iteration cap with b_x = 0.149
        dx = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, 4)["x"]
        history: list[float] = []
        theta = em_fit(dx, log_history=history)
        assert len(history) < 200
        b_x, _ = b_from_memberships(memberships_for(dx, theta, "hard"))
        assert abs(b_x) <= 0.05

    def test_fit_does_not_depend_on_dataset_seed(self, sep5_mixture):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=16)
        a = em_fit(d)
        b = em_fit(IQDataset(d.observable, d.i, d.q, d.truth, seed=d.seed + 12345))
        for got, want in ((a.zero, b.zero), (a.one, b.one)):
            assert got.weight == want.weight
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()

    def test_fit_does_not_depend_on_column_layout(self):
        # synthesized columns are strided views of one (n, 2) array; a dataset
        # holds contiguous copies, so the EM reductions see the same memory order
        for axis, d in simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 10_000, 3).items():
            xy = np.stack([d.i, d.q], axis=1)
            strided = em_fit(IQDataset(axis, xy[:, 0], xy[:, 1], d.truth, seed=d.seed))
            contiguous = em_fit(IQDataset(axis, xy[:, 0].copy(), xy[:, 1].copy(), d.truth, seed=d.seed))
            for got, want in ((strided.zero, contiguous.zero), (strided.one, contiguous.one)):
                assert got.weight == want.weight, axis
                assert got.mean.tobytes() == want.mean.tobytes(), axis
                assert got.cov.tobytes() == want.cov.tobytes(), axis

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
