"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = (
    "discriminate.em_fit.iterations",
    "qhi.fit_channel.alternations",
    "cli.simulate.bytes_written",
    "cli.tomo.bytes_read",
    "cli.discriminate.bytes_read",
    "cli.discriminate.bytes_written",
    "cli.plot_iq.bytes_written",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", "7", "--seconds", "1", "--trace", str(trace), "--ops", "2", "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(result object, detail record) from a finished run."""
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail


@pytest.fixture(scope="module")
def runs() -> dict:
    return {w: [parse(bench(w, trace)) for trace in (0, 1, 1)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(runs, workload):
    for (result, _), specs in zip(runs[workload], (SPEC["end_to_end"], SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in specs}
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_results_unchanged(runs, workload):
    (untraced, _), (_, traced_detail), _ = runs[workload]
    assert (
        traced_detail["traced_end_to_end"]["error_median"]["value"]
        == untraced["metrics"]["error_median"]["value"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    _, (first, _), (second, _) = runs[workload]
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
