#!/usr/bin/env python3
"""SHA-256 digests of every file the CLI writes for one fixed config.

Runs each subcommand in-process through ``iqtomo.cli.main`` -- simulate,
discriminate (three modes), tomo (three modes x header/EM calibration),
bilevel (three modes), qhi (exact, and sampled readout with hard and
with soft discrimination), plot-iq and repro-paper -- into a fresh
directory.  It also writes ``export_csv`` of the simulated z dataset, a
``load_dataset`` -> ``save_dataset`` round trip of each simulated axis
file, the same round trip of a re-spaced copy of the z file (``": "``
written as ``":  "``, so the per-line parser reads every line; it must
save to the bytes of the canonical z round trip, or the script exits with
an error) and a ``load_trajectory`` -> ``save_trajectory`` round trip of
each qhi trajectory file, so the digests pin the dataset and trajectory
readers as well as the writers.  It then prints one sorted ``relpath
sha256`` line per file written.  Shot counts and trajectory lengths are
small, so a run takes seconds.

Two checkouts write byte-identical artifacts when the printed lists are
equal; the package is imported from wherever ``PYTHONPATH`` points:

    PYTHONPATH=src python scripts/artifact_digests.py --out /tmp/a > a.txt
    PYTHONPATH=../other/src python scripts/artifact_digests.py --out /tmp/b > b.txt
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import iqtomo
from iqtomo.cli import main as cli_main

MODES = ("hard", "soft", "assignment")

CONFIG = {
    "seed": 7,
    "n_per_axis": 400,
    "state": {"re": [[0.056, 0.0], [0.0, 0.944]], "im": [[0.0, 0.229], [-0.229, 0.0]]},
    "mixture": {
        "alpha": [0.45, 0.45, 0.1],
        "mu": [[2.5, 2.0], [-2.5, 2.0]],
        "sigma": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "noise": {"center": [0.0, 2.0], "radius": 6.0},
    },
    "qhi": {"steps": 8, "trajectories": 2},
}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"iqtomo {' '.join(argv)} exited with {code}")


def write_config(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True)
    return path


def digests(root: str) -> list[str]:
    lines = []
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            lines.append(f"{os.path.relpath(path, root)} {digest}")
    return sorted(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="new or empty output directory")
    args = parser.parse_args()
    out = args.out
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        parser.error(f"{out} is not empty")
    print(f"iqtomo from {os.path.dirname(iqtomo.__file__)}", file=sys.stderr)

    cfg = write_config(os.path.join(out, "config.json"), CONFIG)
    sampled = dict(CONFIG, qhi=dict(CONFIG["qhi"], observe="sampled"))
    cfg_sampled = write_config(os.path.join(out, "config_sampled.json"), sampled)
    sim = os.path.join(out, "simulate")
    plot = os.path.join(out, "plot")
    os.makedirs(plot)

    run(["simulate", "--config", cfg, "--out", sim])
    files = os.path.join(out, "dataset_files")
    os.makedirs(files)
    for axis in "xyz":
        dataset = iqtomo.load_dataset(os.path.join(sim, f"iq_{axis}.jsonl"))
        iqtomo.save_dataset(dataset, os.path.join(files, f"iq_{axis}.jsonl"))
    iqtomo.export_csv(dataset, os.path.join(files, "iq_z.csv"))
    with tempfile.TemporaryDirectory() as tmp:
        respaced = os.path.join(tmp, "iq_z.jsonl")
        with open(os.path.join(sim, "iq_z.jsonl"), encoding="utf-8") as handle:
            text = handle.read()
        with open(respaced, "w", encoding="utf-8") as handle:
            handle.write(text.replace(": ", ":  "))
        saved = os.path.join(files, "iq_z_respaced.jsonl")
        iqtomo.save_dataset(iqtomo.load_dataset(respaced), saved)
    with open(saved, "rb") as got, open(os.path.join(files, "iq_z.jsonl"), "rb") as want:
        if got.read() != want.read():
            raise SystemExit("the re-spaced z dataset does not load to the canonical one")
    for mode in MODES:
        flags = ["--config", cfg, "--mode", mode]
        z_data = os.path.join(sim, "iq_z.jsonl")
        out_dir = os.path.join(out, f"discriminate_{mode}")
        run(["discriminate", *flags, "--data", z_data, "--calibrate", "header", "--out", out_dir])
        for calibrate in ("header", "em"):
            out_dir = os.path.join(out, f"tomo_{mode}_{calibrate}")
            run(["tomo", *flags, "--data-dir", sim, "--calibrate", calibrate, "--out", out_dir])
        out_dir = os.path.join(out, f"bilevel_{mode}")
        run(["bilevel", *flags, "--data-dir", sim, "--calibrate", "header", "--out", out_dir])
    run(["qhi", "--config", cfg, "--out", os.path.join(out, "qhi_exact")])
    run(["qhi", "--config", cfg_sampled, "--out", os.path.join(out, "qhi_sampled")])
    qhi_soft = ["qhi", "--config", cfg_sampled, "--mode", "soft"]
    run([*qhi_soft, "--out", os.path.join(out, "qhi_sampled_soft")])
    files = os.path.join(out, "trajectory_files")
    os.makedirs(files)
    for run_dir in ("qhi_exact", "qhi_sampled", "qhi_sampled_soft"):
        for name in sorted(os.listdir(os.path.join(out, run_dir))):
            if name.startswith("trajectory_"):
                trajectory = iqtomo.load_trajectory(os.path.join(out, run_dir, name))
                iqtomo.save_trajectory(trajectory, os.path.join(files, f"{run_dir}_{name}"))
    svg = os.path.join(plot, "iq_x.svg")
    run(["plot-iq", "--data", os.path.join(sim, "iq_x.jsonl"), "--out", svg])
    run(["repro-paper", "--config", cfg, "--out", os.path.join(out, "repro")])

    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
