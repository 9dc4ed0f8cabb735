"""Exactness checks for the capacitated assignment solver.

The oracle enumerates all 3^n class sequences, keeps those matching the
capacities, and minimizes the summed cost with left-to-right fsum -- slow
but unarguable for n <= 8.  The noise column is constant in every instance,
as in every call ``memberships_for`` makes.  On realistic datasets the
labels are also compared with the general min-cost-flow solver in
``tests/oracles.py``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqtomo import (
    ComponentParams,
    ContaminationSpec,
    IQDataset,
    MixtureParams,
    b_from_memberships,
    capacities_from_weights,
    em_fit,
    memberships_for,
    synthesize_iq,
)
from iqtomo.discriminate import _gaussian_cost, _k_smallest_sums, _sort_and_split, cloud_distances
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE
from oracles import k_smallest_sums_reference, min_cost_assignment_reference


def _enumerate_optimum(cost: np.ndarray, caps: np.ndarray) -> float:
    n = cost.shape[0]
    best = math.inf
    for labels in itertools.product(range(3), repeat=n):
        counts = [labels.count(c) for c in range(3)]
        if counts != list(caps):
            continue
        total = math.fsum(cost[s, labels[s]] for s in range(n))
        best = min(best, total)
    return best


def _objective(cost: np.ndarray, assign: np.ndarray) -> float:
    return math.fsum(cost[s, assign[s]] for s in range(cost.shape[0]))


def _state_costs(dataset: IQDataset, theta: MixtureParams) -> np.ndarray:
    """(n, 2) zero and one costs of the dataset's samples, as the solver computes them."""
    d0, d1 = cloud_distances(dataset.i, dataset.q, theta)
    return np.stack([_gaussian_cost(d0, theta.zero.log_det), _gaussian_cost(d1, theta.one.log_det)], axis=1)


def _hard_weighted(dataset: IQDataset, theta: MixtureParams) -> tuple[np.ndarray, MixtureParams]:
    """Hard labels, and ``theta`` reweighted so the capacities equal their counts."""
    hard = memberships_for(dataset, theta, "hard").rows[:, 1].astype(int)
    n0, n1 = np.bincount(hard, minlength=2) / hard.size
    reweighted = MixtureParams(
        zero=ComponentParams(n0, theta.zero.mean, theta.zero.cov),
        one=ComponentParams(n1, theta.one.mean, theta.one.cov),
    )
    return hard, reweighted


def _random_caps(rng: np.random.Generator, n: int) -> np.ndarray:
    cuts = np.sort(rng.integers(0, n + 1, size=2))
    return np.array([cuts[0], cuts[1] - cuts[0], n - cuts[1]])


def _solve(cost: np.ndarray, caps) -> np.ndarray:
    """The solver on the state columns of a cost matrix whose noise column is constant."""
    assert np.all(cost[:, 2] == cost[0, 2])
    return _sort_and_split(cost[:, 0].copy(), cost[:, 1].copy(), np.asarray(caps))


def _constant_noise(rng: np.random.Generator, n: int, scale: float = 5.0) -> np.ndarray:
    cost = rng.normal(scale=scale, size=(n, 3))
    cost[:, 2] = cost[0, 2]
    return cost


class TestCapacities:
    def test_exact_split(self):
        assert np.array_equal(capacities_from_weights([0.5, 0.5, 0.0], 10), [5, 5, 0])

    def test_largest_remainder(self):
        # 0.4*5 = 2.0, 0.35*5 = 1.75, 0.25*5 = 1.25 -> floors (2,1,1), leftover
        # goes to the largest remainder 0.75
        assert np.array_equal(capacities_from_weights([0.4, 0.35, 0.25], 5), [2, 2, 1])

    def test_always_sums_to_n(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            alpha = rng.dirichlet(np.ones(3))
            n = int(rng.integers(1, 50))
            caps = capacities_from_weights(alpha, n)
            assert caps.sum() == n
            assert caps.min() >= 0

    # the suite turns numpy's RuntimeWarning for a NaN cast to int into an error
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_is_refused_before_any_arithmetic(self, bad):
        with pytest.raises(ValueError, match="^class weights must be finite"):
            capacities_from_weights([bad, 0.5, 0.5], 10)

    def test_remainder_tie_is_deterministic(self):
        a = capacities_from_weights([1 / 3, 1 / 3, 1 / 3], 4)
        b = capacities_from_weights([1 / 3, 1 / 3, 1 / 3], 4)
        assert np.array_equal(a, b)
        assert a.sum() == 4


class TestSolverAgainstEnumeration:
    def test_small_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            cost = _constant_noise(rng, n)
            caps = _random_caps(rng, n)
            assign = _solve(cost, caps)
            assert np.array_equal(np.bincount(assign, minlength=3), caps)
            assert _objective(cost, assign) == _enumerate_optimum(cost, caps)

    def test_running_sums_misorder_two_splits(self):
        # In d = c0 - c1 order the samples are 1, 0, 2.  Split t = 1 makes 1 a
        # zero and 0 a one (exact cost 2**55 + 5); t = 2 makes 0 a zero and 2 a
        # one (2**55 + 2).  Both running totals round to 2**55, so only the
        # exact comparison finds t = 2.
        big = 2.0**55
        cost = np.array([[2.0, 5.0, 0.0], [big, 2.0**60, 0.0], [big, big, 0.0]])
        assign = _solve(cost, [1, 1, 1])
        assert np.array_equal(assign, [0, 2, 1])
        assert _objective(cost, assign) == _enumerate_optimum(cost, [1, 1, 1])

    def test_d_ties_in_float_ordered_exactly(self):
        # c0 - c1 rounds to -2**54 for both samples, but sample 0's exact d is
        # larger by 1, so sample 1 must come first and take the zero class
        cost = np.array([[1.0, 2.0**54, 0.0], [0.0, 2.0**54, 0.0]])
        assert np.array_equal(_solve(cost, [1, 1, 0]), [1, 0])

    def test_spec_example_shape(self):
        rng = np.random.default_rng(8)
        cost = _constant_noise(rng, 4, scale=1.0)
        caps = np.array([2, 1, 1])
        assign = _solve(cost, caps)
        assert _objective(cost, assign) == _enumerate_optimum(cost, caps)

    def test_duplicate_cost_rows(self):
        # repeated rows exercise the tie rule for identical samples
        cost = np.array([[1.0, 2.0, 3.0]] * 5 + [[3.0, 1.0, 3.0]] * 3)
        caps = np.array([4, 3, 1])
        assign = _solve(cost, caps)
        assert _objective(cost, assign) == _enumerate_optimum(cost, caps)
        assert np.array_equal(assign, min_cost_assignment_reference(cost, caps))

    def test_identical_samples_assigned_by_ascending_index(self):
        cost = np.tile([0.7, 0.2, 0.9], (6, 1))
        assign = _solve(cost, [2, 3, 1])
        # equal-cost samples are split in index order: class 0 first, then 1, 2
        assert np.array_equal(assign, [0, 0, 1, 1, 1, 2])

    def test_duplicate_heavy_instances(self):
        # few distinct rows, often with equal c0 - c1: exact, and identical
        # rows take their classes in index order
        rng = np.random.default_rng(10)
        for trial in range(150):
            n = int(rng.integers(2, 8))
            distinct = rng.integers(0, 3, size=(3, 3)).astype(float)
            distinct[:, 2] = 1.0
            if trial % 2:
                distinct[:, 1] = distinct[:, 0] - 1.0
            cost = distinct[rng.integers(0, 3, size=n)]
            caps = _random_caps(rng, n)
            assign = _solve(cost, caps)
            assert _objective(cost, assign) == _enumerate_optimum(cost, caps)
            for s, r in itertools.combinations(range(n), 2):
                if np.array_equal(cost[s], cost[r]):
                    assert assign[s] <= assign[r], (cost, caps, assign)

    def test_infeasible_capacities(self):
        with pytest.raises(ValueError):
            _sort_and_split(np.zeros(3), np.zeros(3), np.array([1, 1, 2]))

    def test_overflowing_costs_are_rejected(self):
        with pytest.raises(ValueError, match="too far"):
            _sort_and_split(np.array([0.0, math.inf]), np.zeros(2), np.array([1, 1, 0]))


# few distinct values, so ties are common, with both zeros and a wide range of magnitudes
_RUNNING_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300, -1e300, 5e-324])


class TestRunningSums:
    """The split's running sums, bit for bit against a heap step per value."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(_RUNNING_VALUES | st.floats(-1e6, 1e6), max_size=40),
        pick=st.sampled_from(["zero", "one", "all", "any"]),
        any_k=st.integers(0, 40),
    )
    def test_rows_match_reference(self, values, pick, any_k):
        values = np.array(values, dtype=float)
        k = {"zero": 0, "one": min(1, values.size), "all": values.size, "any": min(any_k, values.size)}[pick]
        got = _k_smallest_sums(values, k)
        want = k_smallest_sums_reference(values, k)
        assert got.shape == want.shape == (2, values.size - k + 1)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestSolverAgainstReference:
    """Bit-for-bit labels of the general solver on the criterion-04 state."""

    @pytest.mark.parametrize("calibration", ["header", "em"])
    def test_contaminated_datasets(self, calibration):
        mixture = MixtureParams(
            zero=ComponentParams(0.45, DEFAULT_MIXTURE.zero.mean, DEFAULT_MIXTURE.zero.cov),
            one=ComponentParams(0.45, DEFAULT_MIXTURE.one.mean, DEFAULT_MIXTURE.one.cov),
            noise=ContaminationSpec(0.1),
        )
        for seed in range(10):
            for dataset in simulate_datasets(REFERENCE_STATE, mixture, 2000, seed).values():
                theta = dataset.mixture if calibration == "header" else em_fit(dataset)
                cost = np.zeros((dataset.n_samples, 3))
                cost[:, :2] = _state_costs(dataset, theta)
                if theta.noise is not None:
                    cost[:, 2] = -math.log(1.0 / (math.pi * theta.noise.radius**2))  # -log of the uniform disc density
                caps = capacities_from_weights(theta.weights(), dataset.n_samples)
                assert (caps[2] > 0) == (calibration == "header")
                expected = min_cost_assignment_reference(cost, caps)
                labels = np.argmax(memberships_for(dataset, theta, "assignment").rows, axis=1)
                assert np.array_equal(labels, expected), (seed, dataset.observable)


class TestAssignmentMode:
    def test_matches_hard_when_capacities_agree(self, sep5_mixture):
        d = synthesize_iq(60, 40, sep5_mixture.zero, sep5_mixture.one, seed=21)
        hard, theta = _hard_weighted(d, sep5_mixture)
        member = memberships_for(d, theta, "assignment")
        assert np.array_equal(np.argmax(member.rows, axis=1), hard)

    def test_contaminated_dataset_routes_outliers_to_noise(self, sep5_mixture):
        theta = MixtureParams(
            zero=sep5_mixture.zero.__class__(0.4, sep5_mixture.zero.mean, np.eye(2)),
            one=sep5_mixture.one.__class__(0.4, sep5_mixture.one.mean, np.eye(2)),
            noise=ContaminationSpec(weight=0.2, center=(0.0, 2.0), radius=20.0),
        )
        coords = np.array(
            [[2.5, 2.0], [2.6, 1.9], [2.4, 2.1], [2.5, 2.2],
             [-2.5, 2.0], [-2.6, 1.9], [-2.4, 2.1], [-2.5, 2.2],
             [0.0, 15.0], [0.5, 14.0]]
        )
        d = IQDataset("z", coords[:, 0], coords[:, 1], [-1] * 10, seed=1)
        member = memberships_for(d, theta, "assignment")
        labels = np.argmax(member.rows, axis=1)
        assert np.array_equal(labels[8:], [2, 2])
        assert set(labels[:4]) == {0} and set(labels[4:8]) == {1}

    def test_objective_not_worse_than_hard_labels(self, sep5_mixture):
        d = synthesize_iq(30, 30, sep5_mixture.zero, sep5_mixture.one, seed=24)
        hard, theta = _hard_weighted(d, sep5_mixture)
        member = memberships_for(d, theta, "assignment")
        cost = _state_costs(d, theta)
        solver_obj = float((member.rows[:, :2] * cost).sum())
        hard_obj = float(cost[np.arange(60), hard].sum())
        assert solver_obj <= hard_obj + 1e-9

    def test_b_recovers_capacity_split(self, sep5_mixture):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=25)
        b, _ = b_from_memberships(memberships_for(d, sep5_mixture, "assignment"))
        # alpha defaults to the mixture weights (0.5, 0.5) -> forced even split
        assert b == 0.0
        member = memberships_for(d, sep5_mixture, "assignment")
        assert member.rows.shape == (1000, 3)
