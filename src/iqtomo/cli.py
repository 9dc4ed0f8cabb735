"""Command-line driver for the readout-to-reconstruction pipeline.

Subcommands:

* ``simulate``     -- generate per-axis I-Q datasets for a target state
* ``discriminate`` -- classify one dataset, write memberships, print b
* ``tomo``         -- three datasets -> reconstruction report + b table
* ``bilevel``      -- joint discrimination + reconstruction report
* ``qhi``          -- simulate, observe and fit a channel trajectory
* ``repro-paper``  -- regenerate the bundled reference illustration
* ``plot-iq``      -- deterministic SVG scatter of a dataset

Exit codes: 0 success, 1 invalid input, 2 I/O failure, 3 reference-check
failure.  All outputs are byte-deterministic for a fixed config and seed,
and every file is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .discriminate import (
    MODES,
    ComponentParams,
    MembershipMatrix,
    MixtureParams,
    b_from_memberships,
    delta_b,
    em_fit,
    hard_b,
    memberships_for,
)
from .qcore import AXES, DensityMatrix, evolve_state, frobenius_distance, pauli
from .qhi import (
    fit_channel,
    observe_trajectory,
    save_trajectory,
    simulate_trajectory,
    unitary_superoperator,
)
from .qst import BilevelResult, bilevel_qst, qst_closed_form, tomography_report
from .readout import (
    DatasetFormatError,
    IQDataset,
    axis_seed,
    load_dataset,
    mix_seed,
    sample_outcomes,
    save_dataset,
    synthesize_iq,
    write_csv,
    write_csv_lines,
    write_text_atomic,
)

# Regression targets for the bundled readout illustration: a fixed target
# state, per-axis shot counts, per-method expectation rows, the matrices
# reconstructed from them, and two recorded distances that are inconsistent
# with the matrices they describe (kept verbatim, flagged at runtime).
REFERENCE_STATE = DensityMatrix(np.array([[0.056, 0.229j], [-0.229j, 0.944]]))

REFERENCE_COUNTS = {"x": (4996, 5004), "y": (2663, 7337), "z": (540, 9460)}

REFERENCE_B_ROWS = {
    "simulator": (-0.0006, -0.4674, -0.8920),
    "two_stage": (-0.0044, -0.4659, -0.8979),
    "joint": (-0.0004, -0.4480, -0.8913),
}

REFERENCE_RECONSTRUCTIONS = {
    "simulator": np.array(
        [[0.0571, -0.0003 + 0.2321j], [-0.0003 - 0.2321j, 0.9429]]
    ),
    "two_stage": np.array(
        [[0.0597, -0.0008 + 0.2274j], [-0.0008 - 0.2274j, 0.9403]]
    ),
    "joint": np.array(
        [[0.0544, -0.0002 + 0.2240j], [-0.0002 - 0.2240j, 0.9456]]
    ),
}

REFERENCE_DISTANCES = {"two_stage": 0.6455, "joint": 0.6406}

DEFAULT_MIXTURE = MixtureParams(
    zero=ComponentParams(0.5, np.array([2.5, 2.0]), np.eye(2)),
    one=ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2)),
    noise=None,
)

POINT_COLORS = {0: "#1f77b4", 1: "#d62728", 2: "#999999", -1: "#555555"}


class ConfigError(ValueError):
    """Invalid run configuration or command usage."""


@dataclass(frozen=True)
class QhiConfig:
    steps: int = 100
    dt: float = 0.02
    trajectories: int = 1
    observe: str = "exact"
    fit: str = "from_qst"
    rotation_axis: str = "x"
    rotation_rate: float = math.pi / 5.0

    def __post_init__(self) -> None:
        for name in ("dt", "rotation_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"qhi.{name} must be finite")
        if self.steps < 1:
            raise ConfigError("qhi.steps must be >= 1")
        if self.dt <= 0:
            raise ConfigError("qhi.dt must be positive")
        if self.trajectories < 1:
            raise ConfigError("qhi.trajectories must be >= 1")
        if self.observe not in ("exact", "sampled"):
            raise ConfigError(f"unknown qhi.observe {self.observe!r}")
        if self.fit not in ("from_states", "from_qst"):
            raise ConfigError(f"unknown qhi.fit {self.fit!r}")
        if self.rotation_axis not in AXES:
            raise ConfigError(f"unknown qhi.rotation_axis {self.rotation_axis!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    n_per_axis: int = 10_000
    state: DensityMatrix = field(default_factory=lambda: REFERENCE_STATE)
    mixture: MixtureParams = field(default_factory=lambda: DEFAULT_MIXTURE)
    mixture_explicit: bool = False
    mode: str = "hard"
    out: Optional[str] = None
    qhi: QhiConfig = field(default_factory=QhiConfig)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.n_per_axis < 1:
            raise ConfigError("n_per_axis must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")


def _reject_unknown(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(sorted(unknown))}")


def _section(obj: dict, key: str, allowed: set) -> dict:
    section = obj[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object")
    _reject_unknown(section, allowed, key)
    return section


def _typed(section: dict, key: str, name: str, number: bool = False):
    """``section[key]``, which must be an integer (or any real number if ``number``)."""
    value = section[key]
    # bool is a subclass of int, but `true` is not a count, a seed or a rate
    if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
        raise ConfigError(f"{name} must be {'a number' if number else 'an integer'}")
    return value


def parse_config_dict(obj: dict) -> RunConfig:
    """Build a RunConfig from a JSON object, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(
        obj, {"seed", "n_per_axis", "state", "mixture", "mode", "paths", "qhi"}, "config"
    )
    kwargs: dict = {}
    for key in ("seed", "n_per_axis"):
        if key in obj:
            kwargs[key] = _typed(obj, key, key)
    if "state" in obj:
        try:
            kwargs["state"] = DensityMatrix.from_json_dict(obj["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state: {exc}") from exc
    if "mixture" in obj:
        mixture = _section(obj, "mixture", {"alpha", "mu", "sigma", "noise"})
        try:
            kwargs["mixture"] = MixtureParams.from_json_dict(mixture)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid mixture: {exc}") from exc
        kwargs["mixture_explicit"] = True
    if "mode" in obj:
        kwargs["mode"] = obj["mode"]
    if "paths" in obj:
        out = _section(obj, "paths", {"out"}).get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("paths.out must be a string")
        kwargs["out"] = out
    qhi: dict = {}
    if "qhi" in obj:
        qhi = _section(
            obj,
            "qhi",
            {"steps", "dt", "trajectories", "observe", "fit", "rotation_axis", "rotation_rate"},
        )
        for key in ("steps", "trajectories", "dt", "rotation_rate"):
            if key in qhi:
                _typed(qhi, key, f"qhi.{key}", number=key in ("dt", "rotation_rate"))
    try:
        if qhi:
            kwargs["qhi"] = QhiConfig(**qhi)
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: Optional[str], args: argparse.Namespace) -> RunConfig:
    """Read the config file (if any) and apply command-line overrides."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc.msg}") from exc
        cfg = parse_config_dict(raw)
    else:
        cfg = RunConfig()
    updates: dict = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        updates["mode"] = args.mode
    if getattr(args, "out", None) is not None:
        updates["out"] = args.out
    return replace(cfg, **updates) if updates else cfg


def _require_out(cfg: RunConfig) -> str:
    if cfg.out is None:
        raise ConfigError("an output directory is required (--out or paths.out)")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _dataset_path(out_dir: str, axis: str) -> str:
    return os.path.join(out_dir, f"iq_{axis}.jsonl")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_datasets(cfg: RunConfig) -> dict[str, IQDataset]:
    """Generate the three per-axis datasets for the configured state."""
    datasets = {}
    for axis in AXES:
        stream = axis_seed(cfg.seed, axis)
        n0, n1 = sample_outcomes(cfg.state, axis, cfg.n_per_axis, stream)
        datasets[axis] = synthesize_iq(
            n0,
            n1,
            cfg.mixture.zero,
            cfg.mixture.one,
            contamination=cfg.mixture.noise,
            seed=mix_seed(stream, 1),
            observable=axis,
        )
    return datasets


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    datasets = simulate_datasets(cfg)
    print("axis  n_zero  n_one  n_noise  file")
    for axis in AXES:
        dataset = datasets[axis]
        path = _dataset_path(out_dir, axis)
        save_dataset(dataset, path)
        n0, n1, nn = dataset.truth_counts()
        print(f"{axis:<4}  {n0:>6}  {n1:>5}  {nn:>7}  {path}")
    return 0


# ---------------------------------------------------------------------------
# discriminate
# ---------------------------------------------------------------------------


def _calibrate(dataset: IQDataset, cfg: RunConfig, source: str) -> MixtureParams:
    """Pick mixture parameters: explicit config > dataset header > EM fit."""
    if source == "config" or (source == "auto" and cfg.mixture_explicit):
        return cfg.mixture
    if source == "header" or (source == "auto" and dataset.mixture is not None):
        if dataset.mixture is None:
            raise ConfigError("dataset header carries no mixture parameters")
        return dataset.mixture
    return em_fit(dataset)


def write_membership_csv(member: MembershipMatrix, path: str) -> None:
    rows = member.rows
    noise = rows[:, 2] if rows.shape[1] == 3 else np.zeros(rows.shape[0])
    write_csv_lines(
        path,
        ["sample_index", "gamma0", "gamma1", "gamma_noise"],
        (
            f"{idx},{g0!r},{g1!r},{gn!r}\n"
            for idx, (g0, g1, gn) in enumerate(
                zip(rows[:, 0].tolist(), rows[:, 1].tolist(), noise.tolist())
            )
        ),
    )


def cmd_discriminate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    dataset = load_dataset(args.data)
    theta = _calibrate(dataset, cfg, args.calibrate)
    member = memberships_for(dataset, theta, cfg.mode)
    b, err = b_from_memberships(member)
    if cfg.out is not None:
        out_dir = _require_out(cfg)
        path = os.path.join(out_dir, f"memberships_{dataset.observable}.csv")
        write_membership_csv(member, path)
        print(f"memberships written to {path}")
    print(f"axis={dataset.observable} mode={cfg.mode} b={b:.6f} delta_b={err:.6f}")
    return 0


# ---------------------------------------------------------------------------
# tomo / bilevel
# ---------------------------------------------------------------------------


def _load_axis_datasets(args: argparse.Namespace) -> dict[str, IQDataset]:
    if getattr(args, "data_dir", None) is not None:
        paths = {axis: _dataset_path(args.data_dir, axis) for axis in AXES}
    else:
        paths = {"x": args.dx, "y": args.dy, "z": args.dz}
        if any(path is None for path in paths.values()):
            raise ConfigError("provide --data-dir or all of --dx, --dy, --dz")
    datasets = {}
    for axis, path in paths.items():
        dataset = load_dataset(path)
        if dataset.observable != axis:
            raise ConfigError(
                f"{path} holds observable {dataset.observable!r}, expected {axis!r}"
            )
        datasets[axis] = dataset
    return datasets


def _write_b_table(path: str, rows: dict[str, tuple[float, float, float]]) -> None:
    write_csv(
        path,
        ["method", "b_x", "b_y", "b_z"],
        ([method] + [repr(float(v)) for v in row] for method, row in rows.items()),
    )


def _reconstruct(
    args: argparse.Namespace, cfg: RunConfig, out_dir: str
) -> tuple[dict[str, IQDataset], BilevelResult]:
    """Calibrate, discriminate and reconstruct the three datasets; writes report.json."""
    datasets = _load_axis_datasets(args)
    theta = {axis: _calibrate(datasets[axis], cfg, args.calibrate) for axis in AXES}
    result = bilevel_qst(datasets["x"], datasets["y"], datasets["z"], theta, mode=cfg.mode)
    report = tomography_report(result, reference=cfg.state)
    write_text_atomic(os.path.join(out_dir, "report.json"), _json_text(report))
    return datasets, result


def cmd_tomo(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    datasets, result = _reconstruct(args, cfg, out_dir)
    b = result.qst.b_used.b
    table: dict[str, tuple[float, float, float]] = {cfg.mode: tuple(b)}
    if all(np.all(datasets[axis].truth >= 0) for axis in AXES):
        truth_b = []
        for axis in AXES:
            n0, n1, _ = datasets[axis].truth_counts()
            truth_b.append(hard_b(n0, n1))
        table["truth_counts"] = tuple(truth_b)
    _write_b_table(os.path.join(out_dir, "b_table.csv"), table)
    print(f"b = {b.tolist()}")
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_bilevel(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    _, result = _reconstruct(args, cfg, out_dir)
    for axis in AXES:
        write_membership_csv(
            result.memberships[axis], os.path.join(out_dir, f"memberships_{axis}.csv")
        )
    print(f"b = {result.qst.b_used.b.tolist()}")
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return 0


# ---------------------------------------------------------------------------
# qhi
# ---------------------------------------------------------------------------


def step_unitary(axis: str, rate: float, dt: float) -> np.ndarray:
    """One-step propagator exp(-i rate * sigma_axis * dt)."""
    h = rate * pauli(axis)
    basis = np.eye(2, dtype=complex)
    return np.stack(
        [evolve_state(h, dt, basis[:, 0]), evolve_state(h, dt, basis[:, 1])], axis=1
    )


def cmd_qhi(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    q = cfg.qhi
    truth = unitary_superoperator(step_unitary(q.rotation_axis, q.rotation_rate, q.dt))
    trajectories = []
    for j in range(q.trajectories):
        trajectory = simulate_trajectory(
            truth, cfg.state, q.steps, trajectory_id=j, dt=q.dt
        )
        if q.observe == "sampled":
            trajectory = observe_trajectory(
                trajectory,
                mode="sampled",
                n=cfg.n_per_axis,
                theta=cfg.mixture,
                seed=mix_seed(cfg.seed, 0xB1E),
                discriminator="hard" if cfg.mode == "assignment" else cfg.mode,
            )
        else:
            trajectory = observe_trajectory(trajectory, mode="exact")
        save_trajectory(
            trajectory, os.path.join(out_dir, f"trajectory_{j:03d}.jsonl")
        )
        trajectories.append(trajectory)

    history: list[float] = []
    channel, loss = fit_channel(trajectories, mode=q.fit, loss_history=history)
    error = float(np.linalg.norm(channel.g - truth.g))

    write_csv(
        os.path.join(out_dir, "loss.csv"),
        ["alternation", "loss"],
        ([idx, repr(value)] for idx, value in enumerate(history)),
    )

    payload = {
        "g": {"re": channel.g.real.tolist(), "im": channel.g.imag.tolist()},
        "loss": loss,
        "frobenius_to_truth": error,
        "fit_mode": q.fit,
        "observe": q.observe,
        "steps": q.steps,
        "trajectories": q.trajectories,
    }
    write_text_atomic(os.path.join(out_dir, "channel.json"), _json_text(payload))
    print(f"fit loss = {loss:.3e}, |g - g_true|_F = {error:.3e}")
    return 0


# ---------------------------------------------------------------------------
# plot-iq
# ---------------------------------------------------------------------------


def _svg_components(dataset: IQDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, covariance) pairs to draw: mixture if recorded, else empirical."""
    if dataset.mixture is not None:
        return [
            (dataset.mixture.zero.mean, dataset.mixture.zero.cov),
            (dataset.mixture.one.mean, dataset.mixture.one.cov),
        ]
    points = dataset.points()
    out = []
    labelled = False
    for code in (0, 1):
        sel = points[dataset.truth == code]
        if sel.shape[0] >= 2:
            out.append((sel.mean(axis=0), np.cov(sel.T, bias=True)))
            labelled = True
    if not labelled and points.shape[0] >= 2:
        out.append((points.mean(axis=0), np.cov(points.T, bias=True)))
    return out


def render_iq_svg(dataset: IQDataset, width: int = 640, height: int = 480) -> str:
    """Deterministic SVG scatter: one circle per sample, cluster overlays."""
    points = dataset.points()
    components = _svg_components(dataset)
    margin = 48.0

    xs = [points[:, 0].min(), points[:, 0].max()]
    ys = [points[:, 1].min(), points[:, 1].max()]
    for mean, cov in components:
        spread = 2.0 * math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))
        xs += [mean[0] - spread, mean[0] + spread]
        ys += [mean[1] - spread, mean[1] + spread]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    scale = (min(width, height) - 2.0 * margin) / span
    x_mid = 0.5 * (x_lo + x_hi)
    y_mid = 0.5 * (y_lo + y_hi)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (
            width / 2.0 + (x - x_mid) * scale,
            height / 2.0 - (y - y_mid) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">I (obs {dataset.observable})</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.1f})">Q</text>',
    ]
    for x, y, code in zip(dataset.i, dataset.q, dataset.truth):
        px, py = to_px(float(x), float(y))
        color = POINT_COLORS.get(int(code), POINT_COLORS[-1])
        parts.append(
            f'<circle class="pt" cx="{px:.2f}" cy="{py:.2f}" r="2" fill="{color}" '
            f'fill-opacity="0.6"/>'
        )
    for mean, cov in components:
        mx, my = float(mean[0]), float(mean[1])
        px, py = to_px(mx, my)
        w, v = np.linalg.eigh(np.asarray(cov, dtype=float))
        rx = 2.0 * math.sqrt(max(w[1], 0.0)) * scale
        ry = 2.0 * math.sqrt(max(w[0], 0.0)) * scale
        angle = -math.degrees(math.atan2(v[1, 1], v[0, 1]))
        parts.append(
            f'<ellipse class="cov" cx="{px:.2f}" cy="{py:.2f}" rx="{rx:.2f}" ry="{ry:.2f}" '
            f'transform="rotate({angle:.2f} {px:.2f} {py:.2f})" fill="none" '
            f'stroke="#000000" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<path class="mean" data-mean="{mx!r},{my!r}" '
            f'd="M {px - 6:.2f} {py:.2f} H {px + 6:.2f} M {px:.2f} {py - 6:.2f} '
            f'V {py + 6:.2f}" stroke="#000000" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot_iq(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    write_text_atomic(args.out, render_iq_svg(dataset))
    print(f"plot written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# repro-paper
# ---------------------------------------------------------------------------


def _matrix_close(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    gap = float(np.abs(np.asarray(a) - np.asarray(b)).max())
    return gap <= tol, gap


def _end_to_end_errors(seeds: range) -> tuple[list[float], list[float]]:
    """Median pipeline errors: (two-stage EM + hard, collapsed soft)."""
    two_stage = []
    collapsed = []
    for seed in seeds:
        datasets = simulate_datasets(RunConfig(seed=seed))
        dx, dy, dz = (datasets[axis] for axis in AXES)
        theta = {axis: em_fit(datasets[axis]) for axis in AXES}
        hard = bilevel_qst(dx, dy, dz, theta, mode="hard")
        two_stage.append(frobenius_distance(hard.qst.rho, REFERENCE_STATE))
        soft = bilevel_qst(dx, dy, dz, DEFAULT_MIXTURE, mode="soft")
        collapsed.append(frobenius_distance(soft.qst.rho, REFERENCE_STATE))
    return two_stage, collapsed


def cmd_repro_paper(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: dict, flagged: bool = False) -> None:
        status = "flagged" if flagged and ok else ("pass" if ok else "fail")
        checks.append({"name": name, "status": status, **detail})

    recon = {
        method: qst_closed_form(np.asarray(row)).rho
        for method, row in REFERENCE_B_ROWS.items()
    }
    for method in ("simulator", "joint"):
        ok, gap = _matrix_close(
            recon[method].matrix, REFERENCE_RECONSTRUCTIONS[method], 5e-4
        )
        check(f"reconstruction_{method}", ok, {"max_entry_gap": gap, "tolerance": 5e-4})
        write_text_atomic(
            os.path.join(out_dir, f"reconstruction_{method}.json"),
            _json_text(recon[method].to_json_dict()),
        )
    # the two_stage row cannot be reproduced from its own b estimate; the
    # recomputed matrix is recorded, the mismatch flagged (not a failure)
    ok, gap = _matrix_close(
        recon["two_stage"].matrix, REFERENCE_RECONSTRUCTIONS["two_stage"], 5e-4
    )
    check(
        "reconstruction_two_stage_known_inconsistent",
        True,
        {"max_entry_gap": gap, "reproducible": ok},
        flagged=True,
    )

    counts_b = tuple(hard_b(*REFERENCE_COUNTS[axis]) for axis in AXES)
    sim_row = REFERENCE_B_ROWS["simulator"]
    check(
        "counts_to_b_yz",
        counts_b[1] == sim_row[1] and counts_b[2] == sim_row[2],
        {"counts_b": list(counts_b), "reference_b": list(sim_row)},
    )
    gap_x = abs(counts_b[0] - sim_row[0])
    check(
        "counts_to_b_x_known_inconsistent",
        gap_x <= 3e-4,
        {"counts_b_x": counts_b[0], "reference_b_x": sim_row[0], "gap": gap_x},
        flagged=True,
    )
    errors = tuple(delta_b(*REFERENCE_COUNTS[axis]) for axis in AXES)
    check(
        "delta_b",
        abs(errors[0] - 0.01) <= 1e-5 and abs(errors[2] - 4.52e-3) <= 1e-5,
        {"delta_b": list(errors)},
    )

    recomputed = {
        method: frobenius_distance(
            REFERENCE_RECONSTRUCTIONS["simulator"], REFERENCE_RECONSTRUCTIONS[method]
        )
        for method in ("two_stage", "joint")
    }
    check(
        "frobenius_joint_recomputed",
        abs(recomputed["joint"] - 0.01208) <= 5e-4,
        {
            "recomputed": recomputed["joint"],
            "recorded": REFERENCE_DISTANCES["joint"],
            "recorded_consistent": abs(recomputed["joint"] - REFERENCE_DISTANCES["joint"]) <= 5e-4,
        },
        flagged=True,
    )
    check(
        "frobenius_two_stage_recomputed",
        abs(recomputed["two_stage"] - 0.0076) <= 5e-4,
        {
            "recomputed": recomputed["two_stage"],
            "recorded": REFERENCE_DISTANCES["two_stage"],
            "recorded_consistent": abs(recomputed["two_stage"] - REFERENCE_DISTANCES["two_stage"]) <= 5e-4,
        },
        flagged=True,
    )

    two_stage, collapsed = _end_to_end_errors(range(cfg.seed, cfg.seed + 5))
    check(
        "end_to_end_median_error",
        float(np.median(two_stage)) <= 0.03 and float(np.median(collapsed)) <= 0.03,
        {
            "two_stage_median": float(np.median(two_stage)),
            "collapsed_median": float(np.median(collapsed)),
            "tolerance": 0.03,
        },
    )

    table = dict(REFERENCE_B_ROWS)
    table["counts_derived"] = counts_b
    _write_b_table(os.path.join(out_dir, "b_table.csv"), table)

    em_rows = []
    datasets = simulate_datasets(RunConfig(seed=cfg.seed))
    for axis in AXES:
        fitted = em_fit(datasets[axis])
        for name, comp in (("zero", fitted.zero), ("one", fitted.one)):
            em_rows.append(
                [axis, name, repr(float(comp.mean[0])), repr(float(comp.mean[1]))]
                + [repr(float(v)) for v in comp.cov.reshape(-1)]
            )
    write_csv(
        os.path.join(out_dir, "em_tables.csv"),
        ["axis", "component", "mu_i", "mu_q", "sigma_ii", "sigma_iq", "sigma_qi", "sigma_qq"],
        em_rows,
    )

    failures = [c["name"] for c in checks if c["status"] == "fail"]
    report = {"checks": checks, "failures": failures}
    write_text_atomic(os.path.join(out_dir, "repro_report.json"), _json_text(report))
    for c in checks:
        print(f"[{c['status']:>7}] {c['name']}")
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 3
    print(f"all checks passed; bundle written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser, out_required: bool = False) -> None:
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", required=out_required, help="output directory")
    sub.add_argument("--mode", choices=MODES, help="discrimination mode")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iqtomo", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("simulate", help="generate per-axis I-Q datasets")
    _add_common(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("discriminate", help="classify one dataset and estimate b")
    _add_common(sub)
    sub.add_argument("--data", required=True, help="input dataset (JSON-lines)")
    sub.add_argument(
        "--calibrate",
        choices=("auto", "config", "header", "em"),
        default="auto",
        help="mixture parameter source",
    )
    sub.set_defaults(func=cmd_discriminate)

    for name, func in (("tomo", cmd_tomo), ("bilevel", cmd_bilevel)):
        sub = commands.add_parser(name, help=f"{name} reconstruction from three datasets")
        _add_common(sub)
        sub.add_argument("--data-dir", help="directory holding iq_x/y/z.jsonl")
        sub.add_argument("--dx", help="x-axis dataset path")
        sub.add_argument("--dy", help="y-axis dataset path")
        sub.add_argument("--dz", help="z-axis dataset path")
        sub.add_argument(
            "--calibrate",
            choices=("auto", "config", "header", "em"),
            default="auto",
            help="mixture parameter source",
        )
        sub.set_defaults(func=func)

    sub = commands.add_parser("qhi", help="simulate and fit a channel trajectory")
    _add_common(sub)
    sub.set_defaults(func=cmd_qhi)

    sub = commands.add_parser("repro-paper", help="regenerate the reference illustration")
    _add_common(sub)
    sub.set_defaults(func=cmd_repro_paper)

    sub = commands.add_parser("plot-iq", help="render a dataset as a deterministic SVG")
    sub.add_argument("--data", required=True, help="input dataset (JSON-lines)")
    sub.add_argument("--out", required=True, help="output SVG path")
    sub.set_defaults(func=cmd_plot_iq)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except (ConfigError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
