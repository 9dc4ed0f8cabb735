"""One test per shipped acceptance criterion.

Each test asserts through the ``criterion`` fixture so the run ends with a
single PASS/FAIL line per criterion in the terminal summary, with the
measured numbers inline.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from iqtomo import (
    ComponentParams,
    ContaminationSpec,
    FitWarning,
    IQDataset,
    MixtureParams,
    bilevel_qst,
    capacities_from_weights,
    delta_b,
    em_fit,
    fit_channel,
    hard_b,
    memberships_for,
    observe_trajectory,
    pauli,
    qst_closed_form,
    simulate_trajectory,
    synthesize_iq,
    unitary_superoperator,
)
from iqtomo.discriminate import _gaussian_cost, cloud_distances
from iqtomo.qcore import frobenius_distance
from iqtomo.qhi import step_unitary
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE, reconstruct_seed
from oracles import f_matrix, qst_projected_gradient

RECON_SIMULATOR = np.array([[0.0571, -0.0003 + 0.2321j], [-0.0003 - 0.2321j, 0.9429]])
RECON_JOINT = np.array([[0.0544, -0.0002 + 0.2240j], [-0.0002 - 0.2240j, 0.9456]])

_collected_states: list[np.ndarray] = []


def _keep(rho) -> None:
    _collected_states.append(np.asarray(rho.matrix))


def _ball(rng: np.random.Generator, radius: float) -> np.ndarray:
    v = rng.normal(size=3)
    return radius * rng.uniform() ** (1 / 3) * v / np.linalg.norm(v)


def test_criterion_01_reference_reconstructions(criterion):
    qst_closed_form(np.array([-0.0006, -0.4674, -0.892]))  # warm-up
    start = time.perf_counter()
    first = qst_closed_form(np.array([-0.0006, -0.4674, -0.892]))
    second = qst_closed_form(np.array([-0.0004, -0.4480, -0.8913]))
    elapsed = time.perf_counter() - start
    _keep(first.rho)
    _keep(second.rho)
    gap = max(
        float(np.abs(first.rho.matrix - RECON_SIMULATOR).max()),
        float(np.abs(second.rho.matrix - RECON_JOINT).max()),
    )
    criterion(
        1,
        gap <= 5e-4 and elapsed < 1e-3,
        f"both reference rows reconstructed, max entry gap {gap:.2e} (tol 5e-4), "
        f"two solves in {elapsed * 1e3:.3f} ms (< 1 ms)",
    )


def test_criterion_02_counts_to_b(criterion):
    bx, by, bz = hard_b(4996, 5004), hard_b(2663, 7337), hard_b(540, 9460)
    gap_x = abs(bx - (-0.0006))
    criterion(
        2,
        by == -0.4674 and bz == -0.8920 and bx == -0.0008 and gap_x <= 3e-4,
        f"b_y/b_z exact; b_x = {bx} vs recorded -0.0006 "
        f"(gap {gap_x:.1e} is a known inconsistency in the reference row, within 3e-4)",
    )


def test_criterion_03_solver_equivalence(criterion):
    rng = np.random.default_rng(11)
    points = [_ball(rng, 2.0) for _ in range(1000)]
    start = time.perf_counter()
    worst = 0.0
    for b in points:
        closed = qst_closed_form(b)
        iterative = qst_projected_gradient(b)
        worst = max(worst, frobenius_distance(closed.rho, iterative.rho))
    elapsed = time.perf_counter() - start
    criterion(
        3,
        worst <= 1e-6 and elapsed < 2.0,
        f"1000 random b (|b| <= 2): max Frobenius gap {worst:.2e} (tol 1e-6), "
        f"{elapsed:.2f} s (< 2 s)",
    )


def test_criterion_04_end_to_end_reproduction(criterion):
    start = time.perf_counter()
    two_stage, collapsed = zip(*(reconstruct_seed(seed).errors for seed in range(100)))
    elapsed = time.perf_counter() - start
    med_two = float(np.median(two_stage))
    med_soft = float(np.median(collapsed))
    criterion(
        4,
        med_two <= 0.03 and med_soft <= 0.03 and elapsed < 60.0,
        f"100 seeds: median error two-stage {med_two:.4f}, collapsed {med_soft:.4f} "
        f"(tol 0.03), {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_05_assignment_exactness(criterion):
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        points = rng.normal(scale=3.0, size=(n, 2))
        comps = []
        for _ in range(2):
            a = rng.normal(size=(2, 2))
            comps.append(
                ComponentParams(0.5, rng.normal(scale=2.0, size=2), a @ a.T + 0.3 * np.eye(2))
            )
        weights = rng.dirichlet(np.ones(3))
        theta = MixtureParams(
            zero=ComponentParams(weights[0], comps[0].mean, comps[0].cov),
            one=ComponentParams(weights[1], comps[1].mean, comps[1].cov),
            noise=ContaminationSpec(weights[2], (0.0, 0.0), 12.0),
        )
        dataset = IQDataset(
            i=points[:, 0],
            q=points[:, 1],
            truth=np.full(n, -1),
            observable="z",
            seed=0,
        )
        member = memberships_for(dataset, theta, "assignment")
        labels = np.argmax(member.rows, axis=1)

        cost = np.zeros((n, 3))
        d0, d1 = cloud_distances(points[:, 0], points[:, 1], theta)
        cost[:, 0], cost[:, 1] = _gaussian_cost(d0, theta.zero.log_det), _gaussian_cost(d1, theta.one.log_det)
        cost[:, 2] = -math.log(1.0 / (math.pi * theta.noise.radius**2))  # -log of the uniform disc density
        caps = capacities_from_weights(theta.weights(), n)
        got = math.fsum(cost[s, labels[s]] for s in range(n))
        best = math.inf
        for assign in itertools.product(range(3), repeat=n):
            if [assign.count(c) for c in range(3)] != list(caps):
                continue
            best = min(best, math.fsum(cost[s, assign[s]] for s in range(n)))
        assert got == best, f"objective {got!r} != enumerated optimum {best!r}"
        checked += 1
    criterion(
        5,
        checked == 200,
        "assignment solver matched exhaustive enumeration on 200 instances "
        "(n <= 8, 3 classes, exact objective equality)",
    )


def test_criterion_06_f_matrix_identity(criterion):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        comp = ComponentParams(0.5, rng.normal(scale=3.0, size=2), a @ a.T + 0.2 * np.eye(2))
        f = f_matrix(comp)
        x = rng.normal(scale=4.0, size=(100, 2))
        lifted = np.hstack([x, np.ones((100, 1))])
        quad = np.einsum("ij,jk,ik->i", lifted, f, lifted)
        d_sq, _ = cloud_distances(x[:, 0], x[:, 1], MixtureParams(comp, comp))
        worst = max(worst, float(np.abs(quad + d_sq).max()))
    criterion(
        6,
        worst <= 1e-10,
        f"(x,1)^T F (x,1) + squared Mahalanobis distance = 0 over 10^4 draws, "
        f"max |residual| {worst:.2e}",
    )


def test_criterion_07_em_recovery(criterion, sep5_mixture):
    good = 0
    for seed in range(100):
        dataset = synthesize_iq(
            5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=seed
        )
        fitted = em_fit(dataset)
        ok = True
        for comp, mean in ((fitted.zero, (2.5, 2.0)), (fitted.one, (-2.5, 2.0))):
            ok &= float(np.abs(comp.mean - mean).max()) <= 0.1
            ok &= float(np.linalg.norm(comp.cov - np.eye(2))) <= 0.15
        good += ok
    criterion(
        7,
        good >= 95,
        f"EM recovered both components (means within 0.1, covariances within "
        f"0.15 Frobenius of identity) in {good}/100 seeds (need >= 95)",
    )


def test_criterion_08_delta_b_values(criterion):
    balanced = delta_b(5000, 5000)
    lopsided = delta_b(540, 9460)
    criterion(
        8,
        balanced == 0.01 and abs(lopsided - 4.52e-3) <= 1e-5,
        f"delta_b(5000,5000) = {balanced} exactly; delta_b(540,9460) = "
        f"{lopsided:.6f} within 1e-5 of 4.52e-3",
    )


def test_criterion_09_channel_recovery(criterion, rho22, sep5_mixture):
    start = time.perf_counter()
    truth = unitary_superoperator(step_unitary("x", math.pi / 5.0, 0.02))
    clean = simulate_trajectory(truth, rho22, 100, dt=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitWarning)
        fitted_clean, _ = fit_channel([clean], mode="from_states")
    clean_err = float(np.linalg.norm(fitted_clean.g - truth.g))

    # the sampled error is a median over a fixed seed set: one seed's error moves
    # by a factor of about 2.5 under a redraw
    noisy_errs = []
    monotone = True
    for seed in range(20):
        observed = observe_trajectory(clean, mode="sampled", n=10_000, theta=sep5_mixture, seed=seed)
        history: list[float] = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            fitted_noisy, _ = fit_channel([observed], mode="from_qst", loss_history=history)
        noisy_errs.append(float(np.linalg.norm(fitted_noisy.g - truth.g)))
        monotone = monotone and all(b <= a for a, b in zip(history, history[1:]))
    noisy_err = float(np.median(noisy_errs))
    elapsed = time.perf_counter() - start

    for state in clean.states:
        _keep(state)
    criterion(
        9,
        clean_err <= 1e-6 and noisy_err <= 0.05 and monotone and elapsed < 30.0,
        f"noiseless error {clean_err:.2e} (tol 1e-6), sampled n=1e4 median error over "
        f"seeds 0-19 {noisy_err:.4f} (tol 0.05), loss monotone={monotone}, {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_10_feasibility_battery(criterion, sep5_mixture):
    # runs last: sweeps states kept by earlier criteria plus a fresh battery
    rng = np.random.default_rng(23)
    for _ in range(300):
        b = _ball(rng, 2.0)
        _keep(qst_closed_form(b).rho)
        _keep(qst_projected_gradient(b).rho)
    datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 2000, 29)
    for mode in ("hard", "soft", "assignment"):
        result = bilevel_qst(
            datasets["x"], datasets["y"], datasets["z"], DEFAULT_MIXTURE, mode=mode
        )
        _keep(result.qst.rho)
    flip = unitary_superoperator(pauli("x"))
    _keep(flip.apply(REFERENCE_STATE))

    assert len(_collected_states) >= 600
    worst_trace = worst_herm = 0.0
    worst_eig = math.inf
    for matrix in _collected_states:
        worst_trace = max(worst_trace, abs(float(np.trace(matrix).real) - 1.0))
        worst_herm = max(worst_herm, float(np.abs(matrix - matrix.conj().T).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(matrix).min()))
    criterion(
        10,
        worst_trace <= 1e-12 and worst_herm <= 1e-12 and worst_eig >= -1e-12,
        f"{len(_collected_states)} reconstructions: |trace-1| <= {worst_trace:.1e}, "
        f"Hermiticity defect <= {worst_herm:.1e}, min eigenvalue {worst_eig:.1e} "
        f"(all within 1e-12)",
    )
