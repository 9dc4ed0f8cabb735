"""The four benchmark workloads, built on the public ``iqtomo`` API only.

Each workload has a ``prepare`` step (constants shared by every op), an
``op`` (one unit of user work, timed from outside) and a ``check`` of the
op's result (run outside the timed region).  Op ``i`` of a run uses seed
``base_seed + i``.  Every call into the package goes through ``api``,
which holds either the raw public functions or span-recording wrappers.

The reference state, mixtures, tetrahedral starts and step unitaries are
defined here in closed form rather than imported from the command-line
module, so the inputs do not depend on where the package keeps its own
constants.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from types import SimpleNamespace
from typing import Optional

import numpy as np

import iqtomo
import iqtomo.cli
from tracing import Tracer

AXES = ("x", "y", "z")
SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
REFERENCE_RHO = np.array([[0.056, 0.229j], [-0.229j, 0.944]])
# tetrahedral Bloch vectors: an informationally complete set of starts
TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
STATE_TOL = 1e-12
CHOI_TOL = 1e-9
TOMO_MEDIAN_BOUND = 0.03  # acceptance criterion 04
CHANNEL_BOUND = 0.05  # acceptance criterion 09

# functions the ops and checks call; each becomes one span name
PUBLIC_CALLS = {
    "axis_seed": None,
    "mix_seed": None,
    "sample_outcomes": None,
    "synthesize_iq": lambda r, a, k: {"shots": r.n_samples},
    "save_dataset": None,
    "load_dataset": None,
    "em_fit": lambda r, a, k: {"iterations": len(k["log_history"])},
    "memberships_for": None,
    "b_from_memberships": None,
    "qst_closed_form": None,
    "bilevel_qst": None,
    "simulate_trajectory": None,
    "observe_trajectory": lambda r, a, k: {"shots": (r.steps + 1) * len(AXES) * k["n"]},
    "fit_channel": lambda r, a, k: {
        "alternations": len(k["loss_history"]),
        "pairs": sum(t.steps for t in a[0]),
    },
    "choi_from_super": None,
}


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def cli_bytes(result, args, kwargs) -> dict:
    """Bytes a subcommand read and wrote, computed from file sizes."""
    argv = args[0]
    size = os.path.getsize
    if argv[0] == "plot-iq":
        return {"bytes_read": size(_flag(argv, "--data")), "bytes_written": size(_flag(argv, "--out"))}
    out = _flag(argv, "--out")
    datasets = sum(size(os.path.join(out, f"iq_{axis}.jsonl")) for axis in AXES)
    if argv[0] == "simulate":
        return {"bytes_written": datasets}
    if argv[0] == "tomo":
        written = size(os.path.join(out, "report.json")) + size(os.path.join(out, "b_table.csv"))
        return {"bytes_read": datasets, "bytes_written": written}
    data = _flag(argv, "--data")
    observable = os.path.basename(data)[len("iq_") : -len(".jsonl")]
    return {"bytes_read": size(data), "bytes_written": size(os.path.join(out, f"memberships_{observable}.csv"))}


def bind_api(tracer: Optional[Tracer]) -> SimpleNamespace:
    """Public functions by name; wrapped in spans when ``tracer`` is given."""
    api = {}
    for name, counter in PUBLIC_CALLS.items():
        fn = getattr(iqtomo, name)
        if tracer is None:
            api[name] = fn
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        suffix = (lambda a, k: a[2]) if name == "memberships_for" else None
        api[name] = tracer.wrap(f"{layer}.{name}", fn, counter=counter, suffix=suffix)
    cli_main = iqtomo.cli.main
    if tracer is not None:
        cli_main = tracer.wrap(
            "cli", cli_main, counter=cli_bytes, suffix=lambda a, k: a[0][0].replace("-", "_")
        )
    api["cli_main"] = cli_main
    return SimpleNamespace(**api)


def two_cloud_mixture(alpha=(0.5, 0.5, 0.0), noise=None) -> iqtomo.MixtureParams:
    """Readout clouds at (+-2.5, 2) with unit covariance, optional noise disc."""
    return iqtomo.MixtureParams(
        zero=iqtomo.ComponentParams(alpha[0], np.array([2.5, 2.0]), np.eye(2)),
        one=iqtomo.ComponentParams(alpha[1], np.array([-2.5, 2.0]), np.eye(2)),
        noise=noise,
    )


def rotation_unitary(axis: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta n.sigma) = cos(theta) I - i sin(theta) n.sigma."""
    n_sigma = sum(axis[k] * SIGMA[a] for k, a in enumerate(AXES))
    return math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * n_sigma


def superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    """Row-major superoperator sum_k K (x) conj(K) of a Kraus family."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def tetrahedral_states() -> list[iqtomo.DensityMatrix]:
    return [
        iqtomo.DensityMatrix(0.5 * (np.eye(2) + sum(r[k] * SIGMA[a] for k, a in enumerate(AXES))))
        for r in TETRAHEDRON
    ]


def bloch_vectors(states) -> np.ndarray:
    """(n, 3) Bloch vectors of a sequence of density matrices."""
    m = np.stack([s.matrix for s in states])
    return np.stack([2.0 * m[:, 0, 1].real, -2.0 * m[:, 0, 1].imag, (m[:, 0, 0] - m[:, 1, 1]).real], axis=1)


def state_problem(rho: np.ndarray) -> Optional[str]:
    """None if ``rho`` is a physical density matrix, else what is wrong."""
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        return "rho is not Hermitian"
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        return "rho trace != 1"
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -STATE_TOL:
        return "rho has a negative eigenvalue"
    return None


def choi_problem(api, g: np.ndarray) -> Optional[str]:
    """None if the superoperator ``g`` has a CPTP Choi matrix."""
    c = api.choi_from_super(g)
    if np.abs(c - c.conj().T).max() > CHOI_TOL:
        return "Choi matrix is not Hermitian"
    if np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() < -CHOI_TOL:
        return "Choi matrix is not positive semidefinite"
    partial = np.einsum("ijil->jl", c.reshape(2, 2, 2, 2))
    if np.abs(partial - np.eye(2)).max() > CHOI_TOL:
        return "Choi matrix does not preserve the trace"
    return None


def frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def synthesize_axis(api, rho, mixture, shots: int, seed: int, axis: str):
    """One axis dataset, seeded as the CLI's ``simulate`` seeds it."""
    stream = api.axis_seed(seed, axis)
    n0, n1 = api.sample_outcomes(rho, axis, shots, stream)
    return api.synthesize_iq(
        n0,
        n1,
        mixture.zero,
        mixture.one,
        contamination=mixture.noise,
        seed=api.mix_seed(stream, 1),
        observable=axis,
    )


class Workload:
    """Interface: ``op`` returns a result, ``check`` returns (error, problem)."""

    name = ""

    def __init__(self, api: SimpleNamespace, tiny: bool, workdir: str) -> None:
        self.api = api
        self.tiny = tiny
        self.workdir = workdir

    def prepare(self) -> None:
        """Build the constants every op shares."""

    def before(self, seed: int) -> None:
        """Per-op preparation that is not part of the op (runs untimed)."""

    def op(self, seed: int):
        raise NotImplementedError

    def check(self, seed: int, result) -> tuple[float, Optional[str]]:
        raise NotImplementedError

    def finish(self, errors: list) -> Optional[str]:
        """Run-level check over the errors of every checked op; None if it holds."""
        return None

    def close(self) -> None:
        """Release what ``prepare`` created."""


class TomoSweep(Workload):
    """One criterion-04 seed: three datasets, EM + hard + closed form, and soft bilevel."""

    name = "tomo_sweep"

    def prepare(self) -> None:
        self.rho = iqtomo.DensityMatrix(REFERENCE_RHO)
        self.mixture = two_cloud_mixture()
        self.shots = 10_000  # criterion 04's bound holds at this size only
        self.collapsed_errors: list[float] = []

    def op(self, seed: int):
        api = self.api
        datasets = {axis: synthesize_axis(api, self.rho, self.mixture, self.shots, seed, axis) for axis in AXES}
        b = np.empty(3)
        for idx, axis in enumerate(AXES):
            theta = api.em_fit(datasets[axis], log_history=[])
            member = api.memberships_for(datasets[axis], theta, "hard")
            b[idx], _ = api.b_from_memberships(member)
        two_stage = api.qst_closed_form(b)
        collapsed = api.bilevel_qst(
            datasets["x"], datasets["y"], datasets["z"], self.mixture, mode="soft"
        )
        return two_stage.rho.matrix, collapsed.qst.rho.matrix

    def check(self, seed: int, result):
        two_stage, collapsed = result
        problem = state_problem(two_stage) or state_problem(collapsed)
        self.collapsed_errors.append(frobenius(collapsed, REFERENCE_RHO))
        return frobenius(two_stage, REFERENCE_RHO), problem

    def finish(self, errors: list) -> Optional[str]:
        medians = (float(np.median(errors)), float(np.median(self.collapsed_errors)))
        if max(medians) > TOMO_MEDIAN_BOUND:
            return (
                f"median error two-stage {medians[0]:.4f}, collapsed {medians[1]:.4f} "
                f"exceeds {TOMO_MEDIAN_BOUND}"
            )
        return None


class QhiSampled(Workload):
    """Channel identification from sampled readout of four tetrahedral trajectories."""

    name = "qhi_sampled"

    def prepare(self) -> None:
        self.starts = tetrahedral_states()
        self.mixture = two_cloud_mixture()
        u = rotation_unitary(np.array([1.0, 0.0, 0.0]), math.pi / 5.0 * 0.02)
        self.truth = iqtomo.unitary_superoperator(u)
        self.steps = 5 if self.tiny else 25
        self.shots = 2_000

    def op(self, seed: int):
        api = self.api
        readout_seed = api.mix_seed(seed, 0xB1E)
        observed = []
        for j, start in enumerate(self.starts):
            trajectory = api.simulate_trajectory(self.truth, start, self.steps, trajectory_id=j, dt=0.02)
            observed.append(
                api.observe_trajectory(
                    trajectory,
                    mode="sampled",
                    n=self.shots,
                    theta=self.mixture,
                    seed=readout_seed,
                    discriminator="hard",
                )
            )
        channel, _ = api.fit_channel(observed, mode="from_qst", loss_history=[])
        return channel.g

    def check(self, seed: int, g):
        error = frobenius(g, self.truth.g)
        problem = choi_problem(self.api, g)
        if problem is None and error > CHANNEL_BOUND:
            problem = f"channel error {error:.4f} exceeds {CHANNEL_BOUND}"
        return error, problem


class ChannelFit(Workload):
    """CPTP fit of a seeded rotation-plus-amplitude-damping channel from noisy exact trajectories."""

    name = "channel_fit"

    def prepare(self) -> None:
        self.starts = tetrahedral_states()
        self.steps = 25
        self.shots = 10_000

    def true_channel(self, rng: np.random.Generator) -> np.ndarray:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.02, 0.1)
        gamma = rng.uniform(0.005, 0.02)
        damping = [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
        ]
        return superoperator(damping) @ superoperator([rotation_unitary(axis, theta)])

    def op(self, seed: int):
        api = self.api
        rng = np.random.default_rng(seed)
        g_true = self.true_channel(rng)
        channel = iqtomo.ChannelSuperoperator(g_true)
        observed = []
        for j, start in enumerate(self.starts):
            trajectory = api.simulate_trajectory(channel, start, self.steps, trajectory_id=j, dt=0.02)
            p0 = np.clip(0.5 * (1.0 + bloch_vectors(trajectory.states)), 0.0, 1.0)
            n0 = rng.binomial(self.shots, p0).astype(float)
            n1 = self.shots - n0
            b = (n0 - n1) / self.shots
            delta = 2.0 * np.sqrt(n0 * n1 / self.shots**3)
            observations = tuple(iqtomo.BVector(b=b[k], delta=delta[k]) for k in range(len(b)))
            observed.append(
                iqtomo.Trajectory(
                    trajectory_id=j, dt=trajectory.dt, states=trajectory.states, observations=observations
                )
            )
        fitted, _ = api.fit_channel(observed, mode="from_qst", loss_history=[])
        return g_true, fitted.g

    def check(self, seed: int, result):
        g_true, g = result
        error = frobenius(g, g_true)
        problem = choi_problem(self.api, g)
        if problem is None and error > CHANNEL_BOUND:
            problem = f"channel error {error:.4f} exceeds {CHANNEL_BOUND}"
        return error, problem


class DatasetFiles(Workload):
    """The CLI in-process: simulate, tomo (assignment), discriminate (soft), plot-iq."""

    name = "dataset_files"

    def prepare(self) -> None:
        self.rho = iqtomo.DensityMatrix(REFERENCE_RHO)
        self.mixture = two_cloud_mixture(
            alpha=(0.45, 0.45, 0.1), noise=iqtomo.ContaminationSpec(0.1, (0.0, 2.0), 6.0)
        )
        self.shots = 1_000 if self.tiny else 10_000
        self.op_dir: Optional[str] = None

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "n_per_axis": self.shots,
            "state": self.rho.to_json_dict(),
            "mixture": self.mixture.to_json_dict(),
        }

    def run_cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"iqtomo {' '.join(argv)} exited with {code}")

    def before(self, seed: int) -> None:
        """A fresh directory holding only this op's config file."""
        self.drop_op_dir()
        self.op_dir = tempfile.mkdtemp(prefix=f"op{seed}-", dir=self.workdir)
        with open(os.path.join(self.op_dir, "config.json"), "w", encoding="utf-8") as handle:
            json.dump(self.config(seed), handle)

    def drop_op_dir(self) -> None:
        if self.op_dir is not None:
            shutil.rmtree(self.op_dir, ignore_errors=True)
            self.op_dir = None

    def op(self, seed: int):
        d = self.op_dir
        cfg = os.path.join(d, "config.json")
        z_data = os.path.join(d, "iq_z.jsonl")
        self.run_cli(["simulate", "--config", cfg, "--out", d])
        self.run_cli(
            ["tomo", "--config", cfg, "--data-dir", d, "--calibrate", "header", "--mode", "assignment", "--out", d]
        )
        self.run_cli(
            ["discriminate", "--config", cfg, "--data", z_data, "--calibrate", "header", "--mode", "soft", "--out", d]
        )
        self.run_cli(["plot-iq", "--data", z_data, "--out", os.path.join(d, "iq_z.svg")])
        return d

    def check(self, seed: int, d: str):
        api = self.api
        with open(os.path.join(d, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        rho = np.array(report["rho"]["re"]) + 1j * np.array(report["rho"]["im"])
        problem = state_problem(rho)
        scratch = os.path.join(d, "check.jsonl")
        for axis in AXES:
            path = os.path.join(d, f"iq_{axis}.jsonl")
            with open(path, "rb") as handle:
                written = handle.read()
            own = synthesize_axis(api, self.rho, self.mixture, self.shots, seed, axis)
            api.save_dataset(own, scratch)
            with open(scratch, "rb") as handle:
                if handle.read() != written:
                    problem = problem or f"iq_{axis}.jsonl differs from save_dataset of the same synthesis"
            if axis == "z":  # the file the later subcommands read
                api.save_dataset(api.load_dataset(path), scratch)
                with open(scratch, "rb") as handle:
                    if handle.read() != written:
                        problem = problem or "iq_z.jsonl does not survive load + save unchanged"
        for name in ("memberships_z.csv", "iq_z.svg", "b_table.csv"):
            if os.path.getsize(os.path.join(d, name)) == 0:
                problem = problem or f"{name} is empty"
        return frobenius(rho, REFERENCE_RHO), problem

    def close(self) -> None:
        self.drop_op_dir()


WORKLOADS = {w.name: w for w in (TomoSweep, QhiSampled, ChannelFit, DatasetFiles)}
