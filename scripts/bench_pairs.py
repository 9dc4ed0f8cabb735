#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --parent <rev> --out BENCH_<n>.json

The parent side is ``git archive <rev> src perfbench`` unpacked into a
temporary directory; the change side is a copy of this checkout's ``src``
and ``perfbench``.  Both run ``perfbench/run.py`` in their own directory,
one workload per process for ``BENCHMARK.json``'s ``run_seconds``, with the
standard library only on this side.

* Pairs: ten of them; pair k runs the parent first for odd k and the change
  first for even k; within a pair both sides run one workload back to back,
  the workloads in ``BENCHMARK.json``'s order.
* Confirmation (``--confirm-seed``): the same pairs on the claimed workload
  only, at a seed the pairs do not use; an error when nothing is claimed.
* Trace (``--trace-seed``): one ``--all --trace 1`` run per side; every
  per-layer ``busy_s`` the parent spends time in, and the ``bench.*`` rows,
  are listed with their change/parent ratio under ``trace_highlights``.

For each end-to-end metric the file gives both sides' runs, their
quartiles (inclusive method), how many pairs the change wins, the median
ratio, the relative worsening of the median, the parent's relative
interquartile range and whether the worsening is within the metric's
bound in ``BENCHMARK.json``.  ``resolved`` means both sides' relative
interquartile ranges lie within that bound.  ``CLAIM`` names the
(workload, end-to-end metric) a change claims to improve, or is None for a
change that claims nothing: the file then records ``"claim": null`` and no
``claim_holds``.  A claim holds when the change wins at least 9 of the 10
pairs and the medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}
SIDES = ("parent", "change")
PAIRS = 10
CLAIM = None  # (workload, end-to-end metric) the change claims to improve, or None


def _checkout_parent(rev: str, dest: Path) -> str:
    """Unpack ``src`` and ``perfbench`` of ``rev`` into ``dest``; returns the full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", commit, "src", "perfbench"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _copy_change(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _run(side_dir: Path, argv: list[str], seconds: float = SECONDS) -> dict:
    """One ``perfbench/run.py`` process in ``side_dir``; its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=side_dir, env=env, capture_output=True, text=True, timeout=8 * seconds + 600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"perfbench/run.py {' '.join(argv)} in {side_dir} exited {done.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def _summary(parent: list[float], change: list[float], unit: str, better: str, bound: float) -> dict:
    """BENCH comparison of one metric over paired runs."""
    higher = better == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = _quartiles(parent), _quartiles(change)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    worsening = (1.0 - ratio) if higher else (ratio - 1.0)
    parent_iqr = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
    change_iqr = (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0
    separated = min(change) > max(parent) if higher else max(change) < min(parent)
    return {
        "unit": unit,
        "better": better,
        "parent": parent,
        "change": change,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "change_wins": wins,
        "ties": ties,
        "median_ratio_change_over_parent": ratio,
        "relative_worsening_of_median": worsening,
        "parent_relative_iqr": parent_iqr,
        "bound": bound,
        "within_bound": worsening <= bound,
        "all_change_runs_better": separated,
        "resolved": parent_iqr <= bound and change_iqr <= bound,
    }


def _pairs(dirs: dict, workloads: tuple, seed: int) -> dict:
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for k in range(1, PAIRS + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
                result = _run(dirs[side], argv)
                runs[workload][side].append(result)
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"pair {k}/{PAIRS} {workload} {side}: {ops:.2f} ops/s", file=sys.stderr, flush=True)
    out = {}
    for workload, sides in runs.items():
        metrics = {}
        for name, (unit, better, bound) in BOUNDS.items():
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            metrics[name] = _summary(parent, change, unit, better, bound)
        out[workload] = {
            "attempted": {side: [r["attempted"] for r in sides[side]] for side in SIDES},
            "failed": {side: sum(r["failed"] for r in sides[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in sides[side]) for side in SIDES},
            "metrics": metrics,
        }
    return out


def _claim_holds(pairs: dict) -> bool:
    workload, metric = CLAIM
    summary = pairs[workload]["metrics"][metric]
    pq, cq = summary["parent_quartiles"], summary["change_quartiles"]
    return summary["change_wins"] >= 9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]


def _highlights(parent: dict, change: dict) -> dict:
    out = {}
    for workload, run in parent.items():
        rows = {}
        for name, row in run["metrics"].items():
            if not (name.startswith("bench.") or (name.endswith(".busy_s") and row["value"] > 0)):
                continue
            before, after = row["value"], change[workload]["metrics"][name]["value"]
            rows[name] = {"parent": before, "change": after, "ratio": after / before if before else None}
        out[workload] = rows
    return out


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"arch": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(), "os": f"{platform.system()} {platform.release()}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="path of the BENCH JSON file to write")
    parser.add_argument("--seed", type=int, default=1010, help="seed of the pairs")
    parser.add_argument("--confirm-seed", type=int, help="seed of the confirmation pairs on the claimed workload")
    parser.add_argument("--trace-seed", type=int, help="seed of one traced --all run per side")
    args = parser.parse_args(argv)
    if CLAIM is None and args.confirm_seed is not None:
        parser.error("argument --confirm-seed: CLAIM is None, so there is no claim to confirm")

    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip()
    run_cmd = f"python3 perfbench/run.py --workload {{}} --seed {{}} --seconds {SECONDS} --trace 0"
    claim_text = None if CLAIM is None else (
        f"{CLAIM[0]} {CLAIM[1]}: change wins >= 9 of {PAIRS} pairs and the difference "
        "of medians exceeds the parent's interquartile range"
    )
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for path in dirs.values():
            path.mkdir()
        commit = _checkout_parent(args.parent, dirs["parent"])
        _copy_change(dirs["change"])
        record = {
            "command": run_cmd.format("<name>", args.seed),
            "parent_commit": commit,
            "machine": _machine(),
            "python": platform.python_version(),
            "numpy": numpy_version,
        }
        pairs = _pairs(dirs, WORKLOADS, args.seed)
        record["pairs"] = {
            "count": PAIRS,
            "order": "pair k runs the parent first for odd k and the change first for even k; "
            "within a pair both sides run one workload back to back, workloads in the order "
            + ", ".join(WORKLOADS),
            "claim": claim_text,
            **({"claim_holds": _claim_holds(pairs)} if CLAIM else {}),
            "workloads": pairs,
        }
        if args.confirm_seed is not None:
            record["confirmation_command"] = run_cmd.format(CLAIM[0], args.confirm_seed)
            confirm = _pairs(dirs, (CLAIM[0],), args.confirm_seed)
            record["confirmation"] = {
                "seed": args.confirm_seed,
                "count": PAIRS,
                "order": f"as above, {CLAIM[0]} only",
                "claim_holds": _claim_holds(confirm),
                "workloads": confirm,
            }
        if args.trace_seed is not None:
            trace_argv = ["--all", "--seed", str(args.trace_seed), "--seconds", str(SECONDS), "--trace", "1"]
            record["traced_command"] = "python3 perfbench/run.py " + " ".join(trace_argv)
            traced = {side: _run(dirs[side], trace_argv, len(WORKLOADS) * SECONDS) for side in SIDES}
            record["runs"] = {side: {"trace_1": traced[side]} for side in SIDES}
            record["trace_highlights"] = _highlights(traced["parent"], traced["change"])
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
