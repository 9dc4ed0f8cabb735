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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .discriminate import (
    MODES,
    BVector,
    MembershipMatrix,
    MixtureParams,
    b_from_memberships,
    em_fit,
    memberships_for,
)
from .plot import render_iq_svg
from .qcore import AXES, DensityMatrix, density_from_bloch, json_integer, json_number, json_object, json_text
from .qhi import (
    fit_channel,
    observe_trajectory,
    save_trajectory,
    simulate_trajectory,
    step_unitary,
    unitary_superoperator,
)
from .qst import BilevelResult, axis_thetas, bilevel_qst, qst_closed_form, tomography_report
from .readout import (
    IQDataset,
    load_dataset,
    mix_seed,
    save_dataset,
    simulate_datasets,
    write_csv_lines,
    write_text_atomic,
)
from .repro import DEFAULT_MIXTURE, REFERENCE_STATE, reproduce_paper, truth_count_qst

# qhi trajectory j >= 1 starts at 0.99 times tetrahedral Bloch vector (j - 1) mod 4, so that
# trajectories beyond the first add directions to the channel fit
_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)


class ConfigError(ValueError):
    """Invalid run configuration or command usage."""


@dataclass(frozen=True)
class QhiConfig:
    steps: int = 100
    dt: float = 0.02
    trajectories: int = 1
    observe: str = "exact"
    rotation_axis: str = "x"
    rotation_rate: float = math.pi / 5.0

    def __post_init__(self) -> None:
        for name in ("steps", "trajectories"):
            object.__setattr__(self, name, json_integer(getattr(self, name), f"qhi.{name}", 1))
        dt = json_number(self.dt, "qhi.dt")
        if dt <= 0:
            raise ConfigError(f"qhi.dt must be > 0, got {self.dt!r}")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "rotation_rate", json_number(self.rotation_rate, "qhi.rotation_rate"))
        if self.observe not in ("exact", "sampled"):
            raise ConfigError(f"unknown qhi.observe {self.observe!r}")
        if self.rotation_axis not in AXES:
            raise ConfigError(f"unknown qhi.rotation_axis {self.rotation_axis!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    n_per_axis: int = 10_000
    state: Optional[DensityMatrix] = None  # None: the config names none, REFERENCE_STATE applies
    mixture: Optional[MixtureParams] = None  # None: the config names none, DEFAULT_MIXTURE applies
    mode: str = "hard"
    out: Optional[str] = None
    qhi: QhiConfig = field(default_factory=QhiConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", json_integer(self.seed, "seed", 0, 2**64))
        object.__setattr__(self, "n_per_axis", json_integer(self.n_per_axis, "n_per_axis", 1, 2**63))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.out == "":
            raise ConfigError("the output directory (--out or paths.out) must not be empty")


def parse_config_dict(obj: dict) -> RunConfig:
    """Build a RunConfig from a JSON object, rejecting unknown keys."""
    json_object(
        obj, "config", optional=("seed", "n_per_axis", "state", "mixture", "mode", "paths", "qhi")
    )
    kwargs = {key: obj[key] for key in ("seed", "n_per_axis", "mode") if key in obj}
    if "state" in obj:
        try:
            kwargs["state"] = DensityMatrix.from_json_dict(obj["state"])
        except ValueError as exc:
            raise ConfigError(f"invalid state: {exc}") from exc
    if "mixture" in obj:
        try:
            kwargs["mixture"] = MixtureParams.from_json_dict(obj["mixture"])
        except ValueError as exc:
            raise ConfigError(f"invalid mixture: {exc}") from exc
    if "paths" in obj:
        out = json_object(obj["paths"], "paths", optional=("out",)).get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("paths.out must be a string")
        kwargs["out"] = out
    if "qhi" in obj:
        qhi = json_object(obj["qhi"], "qhi", optional=[f.name for f in fields(QhiConfig)])
        kwargs["qhi"] = QhiConfig(**qhi)
    return RunConfig(**kwargs)


def load_config(path: Optional[str], args: argparse.Namespace) -> RunConfig:
    """Read the config file (if any) and apply command-line overrides."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = parse_config_dict(json_text(handle.read(), "config"))
    else:
        cfg = RunConfig()
    updates = {
        key: getattr(args, key)
        for key in ("seed", "mode", "out")
        if getattr(args, key, None) is not None
    }
    return replace(cfg, **updates) if updates else cfg


def _require_out(cfg: RunConfig) -> str:
    if cfg.out is None:
        raise ConfigError("an output directory is required (--out or paths.out)")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _dataset_path(out_dir: str, axis: str) -> str:
    return os.path.join(out_dir, f"iq_{axis}.jsonl")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each reads its inputs, calls the library and writes its outputs
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    state, mixture = cfg.state or REFERENCE_STATE, cfg.mixture or DEFAULT_MIXTURE
    datasets = simulate_datasets(state, mixture, cfg.n_per_axis, cfg.seed)
    print("axis  n_zero  n_one  n_noise  file")
    for axis, dataset in datasets.items():
        path = _dataset_path(out_dir, axis)
        save_dataset(dataset, path)
        n0, n1, nn = dataset.truth_counts()
        print(f"{axis:<4}  {n0:>6}  {n1:>5}  {nn:>7}  {path}")
    return 0


def _calibrate(dataset: IQDataset, cfg: RunConfig, source: str) -> MixtureParams:
    """Pick mixture parameters: explicit config > dataset header > EM fit."""
    if source == "config" or (source == "auto" and cfg.mixture is not None):
        return cfg.mixture or DEFAULT_MIXTURE
    if source == "header" or (source == "auto" and dataset.mixture is not None):
        if dataset.mixture is None:
            raise ConfigError("dataset header carries no mixture parameters")
        return dataset.mixture
    return em_fit(dataset)


def write_membership_csv(member: MembershipMatrix, out_dir: str, axis: str) -> str:
    """Write ``memberships_<axis>.csv`` into ``out_dir``; returns its path."""
    path = os.path.join(out_dir, f"memberships_{axis}.csv")
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
    return path


def cmd_discriminate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    dataset = load_dataset(args.data)
    theta = _calibrate(dataset, cfg, args.calibrate)
    member = memberships_for(dataset, theta, cfg.mode)
    b, err = b_from_memberships(member)
    if cfg.out is not None:
        path = write_membership_csv(member, _require_out(cfg), dataset.observable)
        print(f"memberships written to {path}")
    print(f"axis={dataset.observable} mode={cfg.mode} b={b:.6f} delta_b={err:.6f}")
    return 0


def _write_b_table(path: str, rows: dict[str, tuple[float, float, float]]) -> None:
    write_csv_lines(
        path,
        ["method", "b_x", "b_y", "b_z"],
        (f"{method},{','.join(repr(float(v)) for v in row)}\n" for method, row in rows.items()),
    )


def cmd_reconstruct(args: argparse.Namespace) -> int:
    """``tomo`` and ``bilevel``: calibrate, discriminate and reconstruct the
    three datasets, write report.json, then the subcommand's own files."""
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    datasets = {axis: load_dataset(_dataset_path(args.data_dir, axis)) for axis in AXES}
    theta = axis_thetas(datasets, {axis: _calibrate(datasets[axis], cfg, args.calibrate) for axis in AXES})
    if args.command == "tomo":
        result = bilevel_qst(datasets["x"], datasets["y"], datasets["z"], theta, mode=cfg.mode)
    else:  # discriminate each axis once: its memberships give both b and the CSV
        members = {axis: memberships_for(datasets[axis], theta[axis], cfg.mode) for axis in AXES}
        b_delta = np.array([b_from_memberships(members[axis]) for axis in AXES])
        result = BilevelResult(qst=qst_closed_form(BVector(b=b_delta[:, 0], delta=b_delta[:, 1])), mode=cfg.mode)
    report = tomography_report(result, reference=cfg.state)  # null unless the config names the state
    write_text_atomic(os.path.join(out_dir, "report.json"), _json_text(report))
    b = result.qst.b_used.b
    if args.command == "tomo":
        table: dict[str, tuple[float, float, float]] = {cfg.mode: tuple(b)}
        if all(np.all(datasets[axis].truth >= 0) for axis in AXES):
            table["truth_counts"] = tuple(truth_count_qst(datasets).b_used.b)
        _write_b_table(os.path.join(out_dir, "b_table.csv"), table)
    else:
        for axis in AXES:
            write_membership_csv(members[axis], out_dir, axis)
    print(f"b = {b.tolist()}")
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_qhi(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    q = cfg.qhi
    truth = unitary_superoperator(step_unitary(q.rotation_axis, q.rotation_rate, q.dt))
    trajectories = []
    for j in range(q.trajectories):
        start = (cfg.state or REFERENCE_STATE) if j == 0 else density_from_bloch(0.99 * _TETRAHEDRON[(j - 1) % 4])
        trajectory = simulate_trajectory(truth, start, q.steps, trajectory_id=j, dt=q.dt)
        # exact observation ignores the readout arguments
        trajectory = observe_trajectory(
            trajectory,
            mode=q.observe,
            n=cfg.n_per_axis,
            theta=cfg.mixture or DEFAULT_MIXTURE,
            seed=mix_seed(cfg.seed, 0xB1E),
            discriminator=cfg.mode,
        )
        save_trajectory(
            trajectory, os.path.join(out_dir, f"trajectory_{j:03d}.jsonl")
        )
        trajectories.append(trajectory)

    channel, loss = fit_channel(trajectories, mode="from_qst")
    error = float(np.linalg.norm(channel.g - truth.g))
    payload = {
        "g": {"re": channel.g.real.tolist(), "im": channel.g.imag.tolist()},
        "loss": loss,
        "frobenius_to_truth": error,
        "fit_mode": "from_qst",
        "observe": q.observe,
        "steps": q.steps,
        "trajectories": q.trajectories,
    }
    write_text_atomic(os.path.join(out_dir, "channel.json"), _json_text(payload))
    print(f"fit loss = {loss:.3e}, |g - g_true|_F = {error:.3e}")
    return 0


def cmd_plot_iq(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    write_text_atomic(args.out, render_iq_svg(dataset))
    print(f"plot written to {args.out}")
    return 0


def cmd_repro_paper(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    out_dir = _require_out(cfg)
    repro = reproduce_paper(cfg.seed)
    for method, rho in repro.reconstructions.items():
        write_text_atomic(
            os.path.join(out_dir, f"reconstruction_{method}.json"),
            _json_text(rho.to_json_dict()),
        )
    _write_b_table(os.path.join(out_dir, "b_table.csv"), repro.b_table)

    em_rows = []
    for axis in AXES:
        fitted = repro.em[axis]
        for name, comp in (("zero", fitted.zero), ("one", fitted.one)):
            values = [*comp.mean.tolist(), *comp.cov.reshape(-1).tolist()]
            em_rows.append(",".join([axis, name] + [repr(v) for v in values]) + "\n")
    write_csv_lines(
        os.path.join(out_dir, "em_tables.csv"),
        ["axis", "component", "mu_i", "mu_q", "sigma_ii", "sigma_iq", "sigma_qi", "sigma_qq"],
        em_rows,
    )

    checks = repro.checks
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--mode", choices=MODES, help="discrimination mode")


def _add_calibrate(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--calibrate",
        choices=("auto", "config", "header", "em"),
        default="auto",
        help="mixture parameter source",
    )


@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iqtomo", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("simulate", help="generate per-axis I-Q datasets")
    _add_common(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("discriminate", help="classify one dataset and estimate b")
    _add_common(sub)
    sub.add_argument("--data", required=True, help="input dataset (JSON-lines)")
    _add_calibrate(sub)
    sub.set_defaults(func=cmd_discriminate)

    for name in ("tomo", "bilevel"):
        sub = commands.add_parser(name, help=f"{name} reconstruction from three datasets")
        _add_common(sub)
        sub.add_argument("--data-dir", required=True, help="directory holding iq_x/y/z.jsonl")
        _add_calibrate(sub)
        sub.set_defaults(func=cmd_reconstruct)

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
    except (ValueError, MemoryError) as exc:  # ConfigError and DatasetFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
