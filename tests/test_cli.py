import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iqtomo
from iqtomo import DensityMatrix, FitWarning, IQDataset, delta_b, frobenius_distance, save_dataset
from iqtomo.cli import RunConfig, load_config, main, parse_config_dict
from iqtomo.readout import simulate_datasets
from iqtomo.repro import DEFAULT_MIXTURE, REFERENCE_STATE, reconstruct_seed

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    obj = {"seed": 1, "n_per_axis": 10_000}
    obj.update(overrides)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


WIDE_MIXTURE = {
    "alpha": [0.5, 0.5, 0.0],
    "mu": [[8.0, 2.0], [-8.0, 2.0]],
    "sigma": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    "noise": None,
}
NOISY_MIXTURE = dict(WIDE_MIXTURE, alpha=[0.4, 0.5, 0.1])
# a JSON array nested far deeper than the parser's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """Default-config datasets (rho22, n=1e4 per axis), generated once."""
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), "--seed", "1"]) == 0
    return out


def read_b_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["method", "b_x", "b_y", "b_z"]
    return {row[0]: tuple(float(v) for v in row[1:]) for row in rows[1:]}


def _header_with_mixture(old: str, new: str) -> str:
    """A one-sample dataset whose header mixture text has ``old`` replaced by ``new``."""
    header = json.dumps({"mixture": WIDE_MIXTURE, "obs": "z", "seed": 0}, sort_keys=True)
    assert old in header
    return header.replace(old, new, 1) + '\n{"i": 0.0, "q": 0.0, "truth": null}\n'


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", typo=1)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "typo" in err

    def test_unknown_mixture_key(self, tmp_path, capsys):
        mixture = dict(WIDE_MIXTURE, skew=2)
        cfg = write_config(tmp_path / "c.json", mixture=mixture)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1 and "skew" in err

    def test_unknown_paths_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", paths={"out": "x", "tmp": "y"})
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 1 and "tmp" in err

    def test_unknown_qhi_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", qhi={"steps": 10, "gain": 2.0})
        code, _, err = run(capsys, "qhi", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1 and "gain" in err

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_per_axis=0)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1 and "n_per_axis" in err

    def test_config_must_be_valid_json(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1 and "JSON" in err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(_DEEP, encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1 and err.startswith("error: invalid JSON in config: ")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
    )
    def test_integer_too_long_to_parse_is_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1' + "0" * (sys.get_int_max_str_digits() + 1) + "}", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1 and err.startswith("error: invalid JSON in config: ")

    def test_shot_count_too_large_to_allocate_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_per_axis=10**15)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1 and err.startswith("error: ")
        assert not (tmp_path / "o" / "iq_x.jsonl").exists()

    def test_seed_must_fit_u64(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", seed=2**64)
        code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": True},
            {"n_per_axis": True},
            {"paths": 5},
            {"qhi": 3},
            {"qhi": {"steps": "abc"}},
            {"qhi": {"dt": "abc"}},
            {"qhi": {"rotation_rate": "abc"}},
            {"paths": {"out": 5}},
            {"solver": "closed_form"},
        ],
    )
    def test_ill_typed_config_is_usage_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.json", **overrides)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("state", {"re": [[0.5, 0.0], [0.0, "0.5"]], "im": [[0.0, 0.0], [0.0, 0.0]]}),
            ("state", {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, True]]}),
            ("state", {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]], "x": 1}),
            ("state", {"re": [[0.5, 0.0], [0.0, 0.5]]}),
            ("mixture", dict(WIDE_MIXTURE, alpha=["0.5", 0.5, 0.0])),
            ("mixture", dict(WIDE_MIXTURE, alpha=[0.5, 0.5, False])),
            ("mixture", dict(WIDE_MIXTURE, mu=[[8.0, True], [-8.0, 2.0]])),
            ("mixture", dict(WIDE_MIXTURE, mu=[[8.0, 2.0, 0.0], [-8.0, 2.0]])),
            ("mixture", dict(NOISY_MIXTURE, noise={"center": ["0", "2"], "radius": 6})),
            ("mixture", dict(NOISY_MIXTURE, noise={"center": [0, 2], "radius": 6, "w": 1})),
            ("mixture", dict(NOISY_MIXTURE, noise={"center": [0, 2]})),
            ("mixture", [0.5, 0.5, 0.0]),
        ],
        ids=[
            "state_string", "state_bool", "state_unknown_key", "state_missing_im",
            "alpha_string", "alpha_bool", "mu_bool", "mu_shape", "noise_center_strings",
            "noise_unknown_key", "noise_missing_radius", "mixture_not_object",
        ],
    )
    def test_ill_typed_state_or_mixture_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", **{key: value})
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"error: invalid {key}: ")
        assert not (tmp_path / "o").exists()

    def test_non_finite_mixture_mean_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        text = json.dumps({"mixture": WIDE_MIXTURE}).replace("8.0", "1e400", 1)
        cfg.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: invalid mixture: ") and "finite" in err

    @pytest.mark.parametrize(
        "text, field",
        [('{"qhi": {"dt": 1e400}}', "qhi.dt"), ('{"qhi": {"rotation_rate": NaN}}', "qhi.rotation_rate")],
    )
    def test_non_finite_qhi_number_is_usage_error(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "qhi", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: ") and field in err

    def test_bad_mode_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "o"), "--mode", "fuzzy")
        assert code == 1 and "fuzzy" in err

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "simulate" in out and "repro-paper" in out

    def test_cli_flags_override_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", seed=5, mode="soft")
        import argparse

        ns = argparse.Namespace(seed=9, mode=None, out=None)
        cfg = load_config(cfg_path, ns)
        assert cfg.seed == 9 and cfg.mode == "soft"

    def test_parse_defaults(self):
        cfg = parse_config_dict({})
        assert cfg == RunConfig()


class TestSimulate:
    def test_counts_table_and_files(self, sim_dir, capsys):
        # re-run into a fresh dir to inspect stdout
        out = sim_dir.parent / "fresh"
        code, text, _ = run(capsys, "simulate", "--out", str(out), "--seed", "1")
        assert code == 0
        assert text.splitlines()[0].split() == ["axis", "n_zero", "n_one", "n_noise", "file"]
        for axis in "xyz":
            assert (out / f"iq_{axis}.jsonl").is_file()
        z_row = [line for line in text.splitlines() if line.startswith("z")][0]
        n_zero = int(z_row.split()[1])
        assert abs(n_zero - 560) <= 4 * math.sqrt(10_000 * 0.056 * 0.944)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "simulate", "--out", str(a), "--seed", "3")[0] == 0
        assert run(capsys, "simulate", "--out", str(b), "--seed", "3")[0] == 0
        for axis in "xyz":
            assert (a / f"iq_{axis}.jsonl").read_bytes() == (b / f"iq_{axis}.jsonl").read_bytes()

    def test_out_is_required(self, capsys):
        code, _, err = run(capsys, "simulate", "--seed", "1")
        assert code == 1 and "output directory" in err

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_out_is_invalid_config(self, tmp_path, capsys, spelling):
        if spelling == "flag":
            argv = ["--out", ""]
        else:
            argv = ["--config", write_config(tmp_path / "c.json", paths={"out": ""})]
        code, _, err = run(capsys, "simulate", *argv)
        assert code == 1
        assert err.startswith("error: ") and "output directory" in err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--out", str(blocker / "nested"))
        assert code == 2 and "i/o error" in err


class TestDiscriminate:
    def test_prints_b_line(self, sim_dir, capsys):
        code, out, _ = run(
            capsys, "discriminate", "--data", str(sim_dir / "iq_z.jsonl"), "--mode", "hard"
        )
        assert code == 0
        match = re.search(r"axis=z mode=hard b=(-?\d+\.\d{6}) delta_b=(\d+\.\d{6})", out)
        assert match is not None
        assert -1.0 <= float(match.group(1)) <= -0.8

    def test_memberships_csv(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "disc"
        code, _, _ = run(
            capsys,
            "discriminate",
            "--data",
            str(sim_dir / "iq_y.jsonl"),
            "--mode",
            "soft",
            "--out",
            str(out),
        )
        assert code == 0
        lines = (out / "memberships_y.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_index,gamma0,gamma1,gamma_noise"
        assert len(lines) == 10_001

    def test_calibration_sources(self, sim_dir, tmp_path, capsys):
        wide = write_config(tmp_path / "wide.json", mixture=WIDE_MIXTURE)
        default = write_config(tmp_path / "default.json", mixture=DEFAULT_MIXTURE.to_json_dict())

        data = ["discriminate", "--data", str(sim_dir / "iq_z.jsonl"), "--mode", "soft"]

        def b_line(*argv):
            code, out, _ = run(capsys, *data, *argv)
            assert code == 0
            return out

        # a config that names no mixture calibrates from DEFAULT_MIXTURE
        assert b_line("--calibrate", "config") == b_line("--config", default, "--calibrate", "config")
        # auto takes the config's mixture when it names one, else the header's
        assert b_line("--config", wide) == b_line("--config", wide, "--calibrate", "config")
        assert b_line() == b_line("--calibrate", "header") != b_line("--config", wide)

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "discriminate", "--data", str(tmp_path / "nope.jsonl"))
        assert code == 2


class TestTomo:
    def test_missing_axis_file_is_io_error(self, sim_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for axis in ("x", "y"):
            shutil.copy(sim_dir / f"iq_{axis}.jsonl", data)
        code, _, _ = run(capsys, "tomo", "--data-dir", str(data), "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("command", ["tomo", "bilevel"])
    def test_data_dir_is_the_only_spelling(self, sim_dir, tmp_path, capsys, command):
        code, _, err = run(capsys, command, "--dx", str(sim_dir / "iq_x.jsonl"), "--out", str(tmp_path / "o"))
        assert code == 1 and err.startswith("error: ") and "--data-dir" in err
        code, _, err = run(capsys, command, "--data-dir", str(sim_dir), "--dx", str(sim_dir / "iq_x.jsonl"))
        assert code == 1 and err.startswith("error: unrecognized arguments: --dx")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["tomo", "bilevel"])
    def test_mislabelled_axis_file_is_invalid_input(self, sim_dir, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        for axis, source in (("x", "x"), ("y", "x"), ("z", "z")):
            shutil.copy(sim_dir / f"iq_{source}.jsonl", data / f"iq_{axis}.jsonl")
        code, _, err = run(capsys, command, "--data-dir", str(data), "--out", str(tmp_path / "o"))
        assert code == 1 and err == "error: dataset for axis 'y' is labelled 'x'\n"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_hard_b_matches_label_counts_exactly(self, tmp_path, capsys):
        # clusters 16 sigma apart: the classifier cannot disagree with truth
        cfg = write_config(tmp_path / "c.json", mixture=WIDE_MIXTURE, n_per_axis=2000)
        sim = tmp_path / "sim"
        assert run(capsys, "simulate", "--config", cfg, "--out", str(sim))[0] == 0
        out = tmp_path / "tomo"
        code, _, _ = run(
            capsys,
            "tomo",
            "--config",
            cfg,
            "--data-dir",
            str(sim),
            "--mode",
            "hard",
            "--out",
            str(out),
        )
        assert code == 0
        table = read_b_table(out / "b_table.csv")
        assert table["hard"] == table["truth_counts"]

    def test_em_hard_and_soft_both_recover_target(self, sim_dir, tmp_path, capsys):
        reports = {}
        for mode, calibrate in (("hard", "em"), ("soft", "header")):
            out = tmp_path / mode
            code, _, _ = run(
                capsys,
                "tomo",
                "--data-dir",
                str(sim_dir),
                "--mode",
                mode,
                "--calibrate",
                calibrate,
                "--out",
                str(out),
            )
            assert code == 0
            reports[mode] = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for report in reports.values():
            assert report["frobenius_to_ref"] <= 0.03

    def test_report_schema(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(capsys, "tomo", "--data-dir", str(sim_dir), "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {
            "b",
            "delta_b",
            "rho",
            "residual_sq",
            "frobenius_to_ref",
            "solver",
            "mode",
            "iterations",
            "converged",
        }
        assert report["mode"] == "hard" and report["solver"] == "closed_form"
        rho = DensityMatrix.from_json_dict(report["rho"])
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12


class TestBilevel:
    def test_soft_bilevel_writes_memberships(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "bi"
        code, text, _ = run(
            capsys,
            "bilevel",
            "--data-dir",
            str(sim_dir),
            "--mode",
            "soft",
            "--out",
            str(out),
        )
        assert code == 0 and "report written" in text
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["mode"] == "soft"
        assert report["frobenius_to_ref"] <= 0.03
        for axis in "xyz":
            lines = (out / f"memberships_{axis}.csv").read_text(encoding="utf-8").splitlines()
            assert len(lines) == 10_001

    @pytest.mark.parametrize("mode", ["hard", "soft", "assignment"])
    def test_each_axis_discriminated_once(self, sim_dir, tmp_path, capsys, mode):
        # the memberships written to the CSVs are the ones the report's b comes from
        calls = []

        def counted(dataset, theta, mode):
            calls.append(dataset.observable)
            return iqtomo.memberships_for(dataset, theta, mode)

        out = tmp_path / "bi"
        with mock.patch("iqtomo.cli.memberships_for", counted):
            code, _, _ = run(capsys, "bilevel", "--data-dir", str(sim_dir), "--mode", mode, "--out", str(out))
        assert code == 0 and calls == ["x", "y", "z"]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        tomo_out = tmp_path / "tomo"
        assert run(capsys, "tomo", "--data-dir", str(sim_dir), "--mode", mode, "--out", str(tomo_out))[0] == 0
        tomo_report = json.loads((tomo_out / "report.json").read_text(encoding="utf-8"))
        assert (report["b"], report["delta_b"]) == (tomo_report["b"], tomo_report["delta_b"])


class TestQhi:
    def test_noiseless_channel_report(self, tmp_path, capsys):
        out = tmp_path / "qhi"
        # every trajectory starts from cfg.state, so the data span 3 of 4 directions
        with pytest.warns(FitWarning, match="3 of 4"):
            code, text, _ = run(capsys, "qhi", "--out", str(out), "--seed", "1")
        assert code == 0 and "fit loss" in text
        channel = json.loads((out / "channel.json").read_text(encoding="utf-8"))
        assert channel["frobenius_to_truth"] <= 1e-6
        assert channel["fit_mode"] == "from_qst" and channel["observe"] == "exact"
        assert (out / "trajectory_000.jsonl").is_file()
        with open(out / "loss.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alternation", "loss"]
        losses = [float(row[1]) for row in rows[1:]]
        assert losses and all(b <= a for a, b in zip(losses, losses[1:]))

    def test_sampled_assignment_mode_is_refused(self, tmp_path, capsys):
        # assignment's capacities come from the mixture weights, so its b would ignore the shots
        qhi = {"steps": 3, "observe": "sampled"}
        cfg = write_config(tmp_path / "c.json", n_per_axis=200, qhi=qhi)
        out = tmp_path / "o"
        code, text, err = run(capsys, "qhi", "--config", cfg, "--mode", "assignment", "--out", str(out))
        assert (code, text) == (1, "")
        assert err == "error: sampled observation cannot discriminate with 'assignment'\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore:trajectory data span")
    def test_exact_observation_ignores_the_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", qhi={"steps": 3})
        hard, assignment = tmp_path / "hard", tmp_path / "assignment"
        for mode, out in (("hard", hard), ("assignment", assignment)):
            assert run(capsys, "qhi", "--config", cfg, "--mode", mode, "--out", str(out))[0] == 0
        for name in ("trajectory_000.jsonl", "channel.json", "loss.csv"):
            assert (hard / name).read_bytes() == (assignment / name).read_bytes()


class TestPlotIq:
    def test_two_sample_dataset_gives_two_points(self, tmp_path, capsys):
        dataset = IQDataset(
            i=np.array([1.0, -1.0]),
            q=np.array([0.5, 0.5]),
            truth=np.array([0, 1]),
            observable="z",
            seed=0,
        )
        data = tmp_path / "two.jsonl"
        save_dataset(dataset, str(data))
        out = tmp_path / "two.svg"
        code, _, _ = run(capsys, "plot-iq", "--data", str(data), "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").count('class="pt"') == 2

    @pytest.mark.parametrize("big", [1e200, 1.7e308])
    def test_huge_coordinates_draw_finite_overlays(self, tmp_path, capsys, big):
        # the suite turns numpy RuntimeWarnings into errors, so a pass also means none was raised
        dataset = IQDataset(
            "z", [big, -big, big, -big, -big, big], [0.0, 1.0, -1.0, 2.0, 0.5, -0.5],
            [0, 0, 0, 1, 1, 1], seed=0,
        )
        data, out = tmp_path / "big.jsonl", tmp_path / "big.svg"
        save_dataset(dataset, str(data))
        assert run(capsys, "plot-iq", "--data", str(data), "--out", str(out))[0] == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count('class="cov"') == 2
        assert not re.search(r"(?<![a-z])(nan|inf)(?![a-z])", svg)

    def test_same_input_same_bytes(self, sim_dir, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            assert run(capsys, "plot-iq", "--data", str(sim_dir / "iq_x.jsonl"),
                       "--out", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mean_markers_near_sample_means(self, sim_dir, tmp_path, capsys):
        from iqtomo import load_dataset

        out = tmp_path / "x.svg"
        assert run(capsys, "plot-iq", "--data", str(sim_dir / "iq_x.jsonl"),
                   "--out", str(out))[0] == 0
        marks = re.findall(r'data-mean="([^"]+)"', out.read_text(encoding="utf-8"))
        assert len(marks) == 2
        drawn = sorted(tuple(float(v) for v in m.split(",")) for m in marks)

        dataset = load_dataset(str(sim_dir / "iq_x.jsonl"))
        points = dataset.points()
        sample_means = sorted(
            tuple(points[dataset.truth == code].mean(axis=0)) for code in (1, 0)
        )
        for got, want in zip(drawn, sample_means):
            assert abs(got[0] - want[0]) <= 0.05 and abs(got[1] - want[1]) <= 0.05

    def test_empty_out_is_invalid_input_and_writes_nothing(self, sim_dir, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, _, err = run(capsys, "plot-iq", "--data", str(sim_dir / "iq_z.jsonl"), "--out", "")
        assert code == 1 and err == "error: output path must not be empty\n"
        assert list(tmp_path.rglob("*")) == [work]

    def test_empty_dataset_is_invalid_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"observable": "z", "seed": 0}\n', encoding="utf-8")
        code, _, _ = run(capsys, "plot-iq", "--data", str(empty), "--out", str(tmp_path / "e.svg"))
        assert code == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ('{"obs": "z", "seed": null}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z", "seed": 1.5e400}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z"}\n{"i": 1' + "0" * 400 + ', "q": 0.0, "truth": null}\n', 2),
            ('{"obs": "z"}\n{"i": 0.0, "q": 0.0, "truth": null}\n'
             '{"i": 0.0, "q": 0.0, "truth": ["zero"]}\n', 3),
            ('{"obs": "z", "seed": 1.5}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z", "seed": "7"}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z", "seed": -3}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z", "seed": true}\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z"}\n{"i": true, "q": 0.0, "truth": null}\n', 2),
            ('{"obs": "z"}\n{"i": "1.25", "q": 0.0, "truth": null}\n', 2),
            ('{"obs": "z"}\n{"i": 0.0, "q": "nan", "truth": null}\n', 2),
            (_header_with_mixture("-8.0", "1e400"), 1),
            (_header_with_mixture("0.5, 0.5, 0.0", '"0.5", 0.5, 0.0'), 1),
            (_header_with_mixture("0.5, 0.5, 0.0", "0.5, 0.5, false"), 1),
            (_header_with_mixture('"noise": null', '"noise": null, "skew": 2'), 1),
            (_DEEP + '\n{"i": 0.0, "q": 0.0, "truth": null}\n', 1),
            ('{"obs": "z"}\n' + _DEEP + "\n", 2),
        ],
        ids=[
            "null_seed", "overflowing_seed", "400_digit_coordinate", "list_label", "float_seed",
            "string_seed", "negative_seed", "bool_seed", "bool_coordinate", "number_as_string",
            "nan_as_string", "overflowing_mixture_mean", "mixture_alpha_string",
            "mixture_alpha_bool", "mixture_unknown_key", "deeply_nested_header",
            "deeply_nested_sample",
        ],
    )
    def test_malformed_dataset_is_invalid_input(self, tmp_path, capsys, text, line):
        data = tmp_path / "bad.jsonl"
        data.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "plot-iq", "--data", str(data), "--out", str(tmp_path / "b.svg"))
        assert code == 1
        assert err.startswith(f"error: line {line}: ")


class TestReproPaper:
    def test_bundle_is_green(self, tmp_path, capsys):
        out = tmp_path / "repro"
        code, text, _ = run(capsys, "repro-paper", "--out", str(out), "--seed", "1")
        assert code == 0
        report = json.loads((out / "repro_report.json").read_text(encoding="utf-8"))
        assert report["failures"] == []
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["reconstruction_simulator"] == "pass"
        assert statuses["reconstruction_joint"] == "pass"
        assert statuses["counts_to_b_yz"] == "pass"
        assert statuses["counts_to_b_x_known_inconsistent"] == "flagged"
        assert statuses["frobenius_joint_recomputed"] == "flagged"
        assert statuses["frobenius_two_stage_recomputed"] == "flagged"
        assert statuses["end_to_end_median_error"] == "pass"
        assert (out / "em_tables.csv").is_file()
        assert "counts_derived" in read_b_table(out / "b_table.csv")
        joint = next(c for c in report["checks"] if c["name"] == "frobenius_joint_recomputed")
        assert abs(joint["recomputed"] - 0.01208) <= 5e-4
        assert joint["recorded"] == 0.6406 and not joint["recorded_consistent"]


def load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as handle:
        return tomllib.load(handle)


# the wrapper that pip/distlib generate for a [project.scripts] entry
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        # run this checkout's declared entry point the way an installed
        # console script would, without needing the package installed
        scripts = load_toml(REPO_ROOT / "pyproject.toml")["project"]["scripts"]
        spec = scripts.get("iqtomo", "")
        module, _, attr = spec.partition(":")
        assert module and attr, f"iqtomo entry point must be module:attr, got {spec!r}"
        exe = tmp_path / "bin" / "iqtomo"
        exe.parent.mkdir()
        exe.write_text(CONSOLE_SCRIPT.format(module=module, attr=attr), encoding="utf-8")
        src_root = str(Path(iqtomo.__file__).resolve().parents[1])
        env = dict(os.environ)
        # the checkout's source root goes first, whatever else is on the path
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
        cfg = write_config(tmp_path / "c.json", n_per_axis=64)
        proc = subprocess.run(
            [sys.executable, str(exe), "simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "2"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "iq_y.jsonl").is_file()
        assert "axis" in proc.stdout.splitlines()[0]


def test_em_likelihood_decrease_is_exit_1(sim_dir, tmp_path, capsys, monkeypatch):
    from test_discriminate import _worse_m_step

    _worse_m_step(monkeypatch)
    code, _, err = run(
        capsys, "tomo", "--data-dir", str(sim_dir), "--calibrate", "em", "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert err.startswith("error: EM log-likelihood decreased at iteration 2")


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_illustration_reports_delta_b(tmp_path):
    script = _load_script("run_illustration")
    assert script.main(["--seed", "7", "--n", "2000", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "illustration.json").read_text(encoding="utf-8"))
    for method in ("truth_counts", "em_hard", "soft_collapsed"):
        assert all(d > 0.0 for d in report[method]["delta_b"]), method
    datasets = simulate_datasets(REFERENCE_STATE, DEFAULT_MIXTURE, 2000, 7)
    assert report["truth_counts"]["delta_b"] == [
        delta_b(*datasets[axis].truth_counts()[:2]) for axis in iqtomo.AXES
    ]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "argv", [["--n", "0"], ["--n", "-5"], ["--seed", "-1"], ["--seed", str(2**64)], ["--seed", "x"]]
)
def test_run_illustration_rejects_bad_counts_and_seeds(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _load_script("run_illustration").main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}" in err and "Traceback" not in err


def test_header_mixture_with_overflowing_mean_is_line_1(sim_dir, tmp_path, capsys):
    for axis in iqtomo.AXES:
        text = (sim_dir / f"iq_{axis}.jsonl").read_text(encoding="utf-8")
        if axis == "x":
            header, rest = text.split("\n", 1)
            text = header.replace("2.5", "1e400", 1) + "\n" + rest
        (tmp_path / f"iq_{axis}.jsonl").write_text(text, encoding="utf-8")
    code, _, err = run(
        capsys, "tomo", "--data-dir", str(tmp_path), "--calibrate", "header", "--mode", "hard",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error: line 1: invalid mixture parameters: ")


@pytest.fixture(scope="module")
def far_sample_dir(sim_dir, tmp_path_factory):
    """The sim_dir datasets with one x sample moved to i = -1e200, where squared distances overflow."""
    out = tmp_path_factory.mktemp("far")
    for axis in iqtomo.AXES:
        lines = (sim_dir / f"iq_{axis}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        if axis == "x":
            record = json.loads(lines[5])
            record["i"] = -1e200
            lines[5] = json.dumps(record) + "\n"
        (out / f"iq_{axis}.jsonl").write_text("".join(lines), encoding="utf-8")
    return out


@pytest.mark.parametrize("calibrate", ["header", "em"])
@pytest.mark.parametrize("mode", ["hard", "soft", "assignment"])
def test_sample_too_far_from_both_clouds_is_exit_1(far_sample_dir, tmp_path, capsys, mode, calibrate):
    # the suite turns numpy RuntimeWarnings into errors, so a pass also means none leaked
    code, out, err = run(
        capsys, "tomo", "--data-dir", str(far_sample_dir), "--mode", mode,
        "--calibrate", calibrate, "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*: a sample lies too far from both clouds\n", err)


def test_em_on_coinciding_samples_is_exit_1(tmp_path, capsys):
    # two clouds cannot be fitted to one point; the start has no split to make
    for axis in iqtomo.AXES:
        lines = [json.dumps({"obs": axis, "seed": 1})]
        lines += [json.dumps({"i": 0.5, "q": 0.25, "truth": "zero"})] * 6
        (tmp_path / f"iq_{axis}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "tomo", "--data-dir", str(tmp_path), "--calibrate", "em", "--out", str(tmp_path / "o"),
    )
    assert (code, out) == (1, "")
    assert err == "error: EM needs samples at two or more distinct points\n"


def test_discriminate_rejects_a_sample_too_far_from_both_clouds(far_sample_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, "discriminate", "--data", str(far_sample_dir / "iq_x.jsonl"),
        "--calibrate", "header", "--mode", "hard",
    )
    assert code == 1
    assert err == "error: squared distances overflow: a sample lies too far from both clouds\n"


def test_seed_sweep_prints_the_shared_reconstruction_medians(capsys):
    script = _load_script("seed_sweep")
    assert script.main(["--seeds", "2", "--n", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 seeds from 0, n=2000 per axis"
    names = ["two-stage error", "collapsed error", "EM |mu - mu*|_inf", "EM |Sigma - I|_F", "EM iterations"]
    assert [line[:22].rstrip() for line in lines[1:]] == names
    for line in lines[1:5]:
        assert re.fullmatch(r".{22} median=\d\.\d{4}  p90=\d\.\d{4}  max=\d\.\d{4}", line)
    runs = [reconstruct_seed(seed, 2000) for seed in (0, 1)]
    two_stage, collapsed = zip(*(run.errors for run in runs))
    assert f"median={np.median(two_stage):.4f} " in lines[1]
    assert f"median={np.median(collapsed):.4f} " in lines[2]
    iterations = [k for run in runs for k in run.em_iterations.values()]
    assert lines[5] == (
        f"{'EM iterations':<22} median={np.median(iterations):g}  "
        f"p90={np.quantile(iterations, 0.9):g}  max={max(iterations)}  at max_iter=200: 0"
    )


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-3"], ["--n", "0"], ["--n", "x"]])
def test_seed_sweep_rejects_counts_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _load_script("seed_sweep").main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--start", "-3"], ["--start", str(2**64)], ["--start", str(2**64 - 1), "--seeds", "2"]],
)
def test_seed_sweep_rejects_seeds_outside_64_bits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _load_script("seed_sweep").main(argv)
    assert exc.value.code == 2
    assert "argument --start" in capsys.readouterr().err


def test_bench_pairs_records_a_claim_only_when_one_is_made(tmp_path, monkeypatch, capsys):
    script = _load_script("bench_pairs")
    out = tmp_path / "bench.json"
    monkeypatch.setattr(script, "CLAIM", None)
    with pytest.raises(SystemExit) as exc:
        script.main(["--parent", "HEAD", "--out", str(out), "--confirm-seed", "5"])
    assert exc.value.code == 2
    assert "argument --confirm-seed" in capsys.readouterr().err
    assert not out.exists()
    # no benchmark runs: the parent checkout, the copy and the pairs are stubbed
    monkeypatch.setattr(script, "_checkout_parent", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(script, "_copy_change", lambda dest: None)
    monkeypatch.setattr(script, "_pairs", lambda dirs, workloads, seed: {})
    assert script.main(["--parent", "HEAD", "--out", str(out)]) == 0
    pairs = json.loads(out.read_text(encoding="utf-8"))["pairs"]
    assert pairs["claim"] is None and "claim_holds" not in pairs
    monkeypatch.setattr(script, "CLAIM", ("tomo_sweep", "ops_per_s"))
    monkeypatch.setattr(script, "_claim_holds", lambda pairs: False)
    assert script.main(["--parent", "HEAD", "--out", str(out)]) == 0
    pairs = json.loads(out.read_text(encoding="utf-8"))["pairs"]
    assert pairs["claim"].startswith("tomo_sweep ops_per_s: ") and pairs["claim_holds"] is False


def test_module_entry_matches_api(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", "import iqtomo.cli as m; raise SystemExit(m.main(['--help']))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "simulate" in proc.stdout


def test_frobenius_to_ref_matches_manual(sim_dir, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(capsys, "tomo", "--data-dir", str(sim_dir), "--out", str(out))[0] == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rho = DensityMatrix.from_json_dict(report["rho"])
    target = DensityMatrix(np.array([[0.056, 0.229j], [-0.229j, 0.944]]))
    assert abs(report["frobenius_to_ref"] - frobenius_distance(rho, target)) <= 1e-12


# JSON as Python's json module writes and reads it, NaN and infinities included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def _or_json(*values):
    """One of ``values``, or arbitrary JSON."""
    return st.one_of(st.sampled_from(values), _JSON)


_MIXTURE = st.one_of(
    _or_json(WIDE_MIXTURE, NOISY_MIXTURE),
    st.builds(lambda key, value: dict(NOISY_MIXTURE, **{key: value}), st.sampled_from(sorted(WIDE_MIXTURE)), _JSON),
)
_STATE = {"re": [[0.056, 0.0], [0.0, 0.944]], "im": [[0.0, 0.229], [-0.229, 0.0]]}
# n_per_axis is small or too large to allocate, so no example writes more than a few kB
_CONFIG = st.one_of(
    _JSON.filter(lambda value: not isinstance(value, dict)),
    st.fixed_dictionaries(
        {
            "n_per_axis": st.one_of(
                st.integers(-5, 50),
                st.integers(min_value=10**15),
                _JSON.filter(lambda value: isinstance(value, bool) or not isinstance(value, int)),
            )
        },
        optional={
            "seed": st.integers() | _JSON,
            "state": _or_json(_STATE, dict(_STATE, im=[[0.0, 0.0], [0.0, 0.0]])),
            "mixture": _MIXTURE,
            "mode": _or_json(*iqtomo.MODES),
            "paths": _or_json({"out": "elsewhere"}, {}),
            "qhi": _or_json({"steps": 3, "dt": 0.5}, {}),
            "typo": _JSON,
        },
    ),
)
_HEADER = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"obs": _or_json(*iqtomo.AXES)},
        optional={"seed": st.integers() | _JSON, "mixture": _MIXTURE, "typo": _JSON},
    ),
)


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestArbitraryJsonInput:
    """Any JSON a user can write ends in a run or in exit 1 with an ``error:`` line."""

    @settings(max_examples=300, deadline=None)
    @given(_CONFIG)
    def test_simulate_config(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            code, err = _exit_and_stderr(["simulate", "--config", path, "--out", os.path.join(tmp, "out")])
        assert code in (0, 1)
        assert code == 0 or err.startswith("error: "), err

    @settings(max_examples=300, deadline=None)
    @given(_HEADER)
    def test_plot_iq_dataset_header(self, header):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "one.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header) + '\n{"i": 0.5, "q": -0.25, "truth": null}\n')
            code, err = _exit_and_stderr(["plot-iq", "--data", path, "--out", os.path.join(tmp, "one.svg")])
        assert code in (0, 1)
        assert code == 0 or err.startswith("error: "), err
