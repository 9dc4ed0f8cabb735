"""Exactness checks for the capacitated assignment solver.

The oracle enumerates all 3^n class sequences, keeps those matching the
capacities, and minimizes the summed cost with left-to-right fsum -- slow
but unarguable for n <= 8.
"""

import itertools
import math

import numpy as np
import pytest

from iqtomo import (
    ContaminationSpec,
    IQDataset,
    MixtureParams,
    assignment_solve,
    capacities_from_weights,
    b_from_memberships,
    classify_hard,
    memberships_for,
    synthesize_iq,
)
from iqtomo.discriminate import _min_cost_assignment


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


def _random_caps(rng: np.random.Generator, n: int) -> np.ndarray:
    cuts = np.sort(rng.integers(0, n + 1, size=2))
    return np.array([cuts[0], cuts[1] - cuts[0], n - cuts[1]])


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
            cost = rng.normal(scale=5.0, size=(n, 3))
            caps = _random_caps(rng, n)
            assign = _min_cost_assignment(cost, caps)
            assert np.array_equal(np.bincount(assign, minlength=3), caps)
            assert _objective(cost, assign) == _enumerate_optimum(cost, caps)

    def test_spec_example_shape(self):
        rng = np.random.default_rng(8)
        cost = rng.normal(size=(4, 3))
        caps = np.array([2, 1, 1])
        assign = _min_cost_assignment(cost, caps)
        assert _objective(cost, assign) == _enumerate_optimum(cost, caps)

    def test_duplicate_cost_rows(self):
        # repeated rows exercise the tie-break canonicalization
        cost = np.array([[1.0, 2.0, 3.0]] * 5 + [[3.0, 1.0, 2.0]] * 3)
        caps = np.array([4, 3, 1])
        assign = _min_cost_assignment(cost, caps)
        assert _objective(cost, assign) == _enumerate_optimum(cost, caps)

    def test_identical_samples_assigned_by_ascending_index(self):
        cost = np.tile([0.7, 0.2, 0.9], (6, 1))
        assign = _min_cost_assignment(cost, np.array([2, 3, 1]))
        # equal-cost samples are split in index order: class 0 first, then 1, 2
        assert np.array_equal(assign, [0, 0, 1, 1, 1, 2])

    def test_infeasible_capacities(self):
        with pytest.raises(ValueError):
            _min_cost_assignment(np.zeros((3, 3)), np.array([1, 1, 2]))


class TestAssignmentSolve:
    def test_matches_hard_when_capacities_agree(self, sep5_mixture):
        d = synthesize_iq(60, 40, sep5_mixture.zero, sep5_mixture.one, seed=21)
        hard = classify_hard(d.points(), sep5_mixture.zero, sep5_mixture.one)
        counts = np.bincount(hard, minlength=2)
        member = assignment_solve(d, sep5_mixture, alpha=[counts[0] / 100, counts[1] / 100, 0.0])
        assert np.array_equal(np.argmax(member.rows, axis=1), hard)

    def test_noise_capacity_requires_noise_component(self, sep5_mixture):
        d = synthesize_iq(5, 5, sep5_mixture.zero, sep5_mixture.one, seed=22)
        with pytest.raises(ValueError, match="noise"):
            assignment_solve(d, sep5_mixture, alpha=[0.4, 0.4, 0.2])

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
        member = assignment_solve(d, theta)
        labels = np.argmax(member.rows, axis=1)
        assert np.array_equal(labels[8:], [2, 2])
        assert set(labels[:4]) == {0} and set(labels[4:8]) == {1}

    def test_objective_not_worse_than_hard_labels(self, sep5_mixture):
        rng = np.random.default_rng(23)
        d = synthesize_iq(30, 30, sep5_mixture.zero, sep5_mixture.one, seed=24)
        hard = classify_hard(d.points(), sep5_mixture.zero, sep5_mixture.one)
        counts = np.bincount(hard, minlength=2)
        member = assignment_solve(d, sep5_mixture, alpha=[counts[0] / 60, counts[1] / 60, 0.0])
        from iqtomo.discriminate import _log_gauss

        loglik = np.stack(
            [_log_gauss(d.points(), sep5_mixture.zero), _log_gauss(d.points(), sep5_mixture.one)],
            axis=1,
        )
        solver_obj = float((member.rows[:, :2] * loglik).sum())
        hard_obj = float(loglik[np.arange(60), hard].sum())
        assert solver_obj >= hard_obj - 1e-9

    def test_b_recovers_capacity_split(self, sep5_mixture):
        d = synthesize_iq(700, 300, sep5_mixture.zero, sep5_mixture.one, seed=25)
        b, _ = b_from_memberships(memberships_for(d, sep5_mixture, "assignment"))
        # alpha defaults to the mixture weights (0.5, 0.5) -> forced even split
        assert b == 0.0
        member = memberships_for(d, sep5_mixture, "assignment")
        assert member.rows.shape == (1000, 3)
