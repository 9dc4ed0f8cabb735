"""Closed-loop measurement of one workload, and the metrics it reports.

One client runs ops back to back, so there is no queue and waiting time
is zero by construction.  Each op is timed from outside; inputs made
before an op and the checks after it run outside the timed region.

Every reported time is scaled to a fixed machine speed.  On the shared host
this benchmark was defined on, the CPU speed of every process drifts by
15-25 % over minutes, so raw times of identical work spread past the
regression bounds from run to run.  A fixed reference kernel that does not
touch iqtomo is timed next to the ops, outside the timed region, and each
time is multiplied by ``REFERENCE_MS`` over the median of the kernel's
latest times.  The raw times stay in the detail record.  The process, and
the interpreters it starts to time the import, are pinned to one CPU: the
two vCPUs of such a host drift apart, and the kernel can only stand for the
CPU it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import iqtomo
from tracing import Tracer, op_descendants, self_times
from workloads import WORKLOADS, bind_api

SETUP_REPEATS = 9
# the reference kernel's median time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
REFERENCE_MS = 14.0
# timed op time between two reference measurements; ops longer than this get one each
REFERENCE_EVERY_S = 0.1
# a time is scaled by the median of this many latest kernel times: they span
# 0.5 s or more of ops, which follows the drift over minutes while keeping
# the kernel's own sub-second jitter out of single ops
REFERENCE_WINDOW = 5
# op latency is reported at a fixed percentile per workload, so runs with
# more or fewer ops stay comparable; each is chosen so an untraced 25 s run
# has more than ten samples beyond it on a 2-CPU Xeon
TAIL_PERCENTILE = {"tomo_sweep": 80.0, "qhi_sampled": 75.0, "channel_fit": 95.0, "dataset_files": 60.0}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_tail_ms": "ms",
    "error_median": "1",
    "peak_rss_mb": "MB",
}
# the per-layer calls and counts the traced run reports
LAYER_CALLS = (
    "readout.sample_outcomes",
    "readout.synthesize_iq",
    "discriminate.em_fit",
    "discriminate.memberships_for.hard",
    "discriminate.b_from_memberships",
    "qst.qst_closed_form",
    "qst.bilevel_qst",
    "qhi.simulate_trajectory",
    "qhi.observe_trajectory",
    "qhi.fit_channel",
    "cli.simulate",
    "cli.tomo",
    "cli.discriminate",
    "cli.plot_iq",
)
# (span name, count key, unit): counts reported as a mean per call
LAYER_COUNTS = (
    ("readout.synthesize_iq", "shots", "count/call"),
    ("discriminate.em_fit", "iterations", "count/call"),
    ("qhi.observe_trajectory", "shots", "count/call"),
    ("qhi.fit_channel", "alternations", "count/call"),
    ("qhi.fit_channel", "pairs", "count/call"),
    ("cli.simulate", "bytes_written", "B/call"),
    ("cli.tomo", "bytes_read", "B/call"),
    ("cli.discriminate", "bytes_read", "B/call"),
    ("cli.discriminate", "bytes_written", "B/call"),
    ("cli.plot_iq", "bytes_written", "B/call"),
)


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    references: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def reference_seconds() -> float:
    """Time of a fixed kernel: small numpy array ops, then an interpreter loop.

    These are the two kinds of work the ops do; the kernel's inputs are
    constant, so its time changes only with the speed of the machine.
    """
    start = time.perf_counter()
    x = np.random.default_rng(0).normal(size=(4000, 2))
    inv = np.linalg.inv(np.array([[1.0, 0.2], [0.2, 1.0]]))
    acc = 0.0
    for k in range(40):
        d = x - np.array([0.01 * k, 0.0])
        acc += float(np.exp(-0.5 * np.einsum("ij,jk,ik->i", d, inv, d)).sum())
    total = 0
    for k in range(20_000):
        total += k * k % 7
    return time.perf_counter() - start


def scale(seconds: float, references: list) -> float:
    """``seconds`` at the speed where the reference kernel takes ``REFERENCE_MS``."""
    return seconds * REFERENCE_MS / (statistics.median(references[-REFERENCE_WINDOW:]) * 1e3)


def run_pass(
    name: str,
    tracer: Optional[Tracer],
    tiny: bool,
    workdir: str,
    base_seed: int,
    seconds: float,
    ops: Optional[int],
) -> PassResult:
    """Run ops until their timed total reaches ``seconds`` (or exactly ``ops`` ops)."""
    workload = WORKLOADS[name](bind_api(tracer), tiny, workdir)
    workload.prepare()
    out = PassResult()
    since_reference = REFERENCE_EVERY_S
    try:
        while ops is None or out.attempted < ops:
            seed = base_seed + out.attempted
            if tracer is not None:
                tracer.op = out.attempted
            out.attempted += 1
            workload.before(seed)
            if since_reference >= REFERENCE_EVERY_S:
                out.references.append(reference_seconds())
                since_reference = 0.0
            span = tracer.open("bench.op") if tracer is not None else None
            start = time.perf_counter()
            try:
                result = workload.op(seed)
                raised = None
            except Exception:  # an op that raises is counted as failed, not fatal
                raised = traceback.format_exc(limit=4)
            latency = time.perf_counter() - start
            out.latencies.append(latency)
            out.scaled.append(scale(latency, out.references))
            since_reference += latency
            if span is not None:
                tracer.close(span, failed=raised is not None)
            if raised is None:
                span = tracer.open("bench.check") if tracer is not None else None
                error, problem = workload.check(seed, result)
                if span is not None:
                    tracer.close(span)
                out.errors.append(error)
            else:
                problem = f"op raised:\n{raised}"
            if problem is not None:
                out.failed += 1
                out.problems.append(f"seed {seed}: {problem}")
            if ops is None and sum(out.latencies) >= seconds:
                break
        run_problem = workload.finish(out.errors) if out.errors else "no op succeeded"
        if run_problem is not None:
            out.problems.append(f"run: {run_problem}")
    finally:
        workload.close()
        if tracer is not None:
            tracer.op = None
    return out


def import_seconds(src: str) -> float:
    """Wall time of importing the package in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import iqtomo, iqtomo.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(name: str, src: str, tiny: bool, workdir: str) -> tuple[list, list]:
    """Scaled and raw times of (package import + workload prepare), one per repeat."""
    scaled, totals, references = [], [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        imported = import_seconds(src)
        start = time.perf_counter()
        workload = WORKLOADS[name](bind_api(None), tiny, workdir)
        workload.prepare()
        workload.close()
        totals.append(imported + time.perf_counter() - start)
        scaled.append(scale(totals[-1], references))
    return scaled, totals


def end_to_end(name: str, run: PassResult, latencies: list, setup: list) -> tuple[dict, dict]:
    """The end-to-end metrics from the given op and setup times, plus how the tail was taken."""
    lat_ms = np.asarray(latencies) * 1e3
    percentile = TAIL_PERCENTILE[name]
    beyond = int(np.count_nonzero(lat_ms > np.percentile(lat_ms, percentile)))
    completed = run.attempted - run.failed
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": completed / (lat_ms.sum() / 1e3),
        "op_latency_p50_ms": float(np.median(lat_ms)),
        "op_latency_tail_ms": float(np.percentile(lat_ms, percentile)),
        "error_median": float(np.median(run.errors)) if run.errors else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"percentile": percentile, "samples": len(lat_ms), "samples_beyond": beyond}
    return values, tail


def call_table(spans: list, own: list, root: str) -> dict:
    """Totals per span name over the spans that sit under spans named ``root``."""
    table: dict = {}
    for span, is_inside, self_s in zip(spans, op_descendants(spans, root), own):
        if not is_inside:
            continue
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "counts": {}})
        row["calls"] += 1
        row["busy_s"] += span.end - span.start
        row["self_s"] += self_s
        row["failed"] += span.failed
        for key, value in span.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
            if key == "iterations":
                row["iterations_max"] = max(row.get("iterations_max", 0), value)
    return table


def per_layer(tracer: Tracer, run: PassResult) -> tuple[dict, dict, dict]:
    """Per-layer metrics, plus the full call tables of the ops and of the checks."""
    spans = tracer.spans
    own = self_times(spans)
    ops = max(run.attempted, 1)
    table = call_table(spans, own, "bench.op")
    op_self = sum(s for span, s in zip(spans, own) if span.name == "bench.op")
    metrics = {}
    for name in LAYER_CALLS:
        row = table.get(name, {"calls": 0, "busy_s": 0.0, "failed": 0})
        metrics[f"{name}.calls"] = (row["calls"] / ops, "count/op")
        metrics[f"{name}.busy_s"] = (row["busy_s"] / ops, "s/op")
        metrics[f"{name}.failed"] = (row["failed"], "count")
    for name, key, unit in LAYER_COUNTS:
        row = table.get(name)
        value = row["counts"].get(key, 0) / row["calls"] if row else 0.0
        metrics[f"{name}.{key}"] = (value, unit)
    em = table.get("discriminate.em_fit")
    iterations = em["counts"]["iterations"] if em else 0
    metrics["discriminate.em_fit.iterations_max"] = (em["iterations_max"] if em else 0, "count")
    metrics["discriminate.em_fit.ms_per_iteration"] = (
        em["busy_s"] * 1e3 / iterations if iterations else 0.0,
        "ms",
    )
    metrics["bench.op.self_s"] = (op_self / ops, "s/op")
    return metrics, table, call_table(spans, own, "bench.check")


def environment(seed: int, pinned_cpu: int) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "iqtomo": iqtomo.__version__,
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def summary_ms(references: list) -> dict:
    ms = np.asarray(references) * 1e3
    return {"median": float(np.median(ms)), "min": float(ms.min()), "max": float(ms.max()), "count": len(ms)}


def emit(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def run(
    name: str,
    root: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    ops: Optional[int] = None,
) -> dict:
    """Measure one workload; print the report and return the result object."""
    for category in (iqtomo.FitWarning, iqtomo.ProjectionWarning):
        warnings.simplefilter("error", category)  # a fit the inputs cannot identify is a failure
    pinned_cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned_cpu})  # children inherit it
    reference_seconds()  # the first call pays numpy's lazy set-up
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        setup_scaled, setup_raw = measure_setup(name, os.path.join(root, "src"), tiny, workdir)
        # a traced run first repeats the untraced loop over the same seeds,
        # so the tracing overhead compares the same ops
        untraced = run_pass(name, None, tiny, workdir, seed, seconds / 2 if trace else seconds, ops)
        tracer = Tracer() if trace else None
        traced = run_pass(name, tracer, tiny, workdir, seed, seconds / 2, ops) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, tail = end_to_end(name, untraced, untraced.scaled, setup_scaled)
    raw_values, _ = end_to_end(name, untraced, untraced.latencies, setup_raw)
    detail: dict = {
        "workload": name,
        "seconds": seconds,
        "tiny": tiny,
        "ops_limit": ops,
        "environment": environment(seed, pinned_cpu),
        "loop": "closed loop, one client, no queue: waiting time is zero by construction",
        "tail": tail,
        "setup_repeats_s": {"scaled": setup_scaled, "raw": setup_raw},
        "failed_ratio": untraced.failed / untraced.attempted,
        "end_to_end": emit(values, END_TO_END_UNITS),
        "time_scale": {
            "reference_ms": REFERENCE_MS,
            "measured_ms": summary_ms(untraced.references),
            "note": "end_to_end times are scaled to the reference speed; raw_end_to_end holds them unscaled",
        },
        "raw_end_to_end": emit(raw_values, END_TO_END_UNITS),
    }
    runs = [untraced]
    if traced is not None:
        runs.append(traced)
        traced_values, _ = end_to_end(name, traced, traced.scaled, setup_scaled)
        detail["traced_end_to_end"] = emit(traced_values, END_TO_END_UNITS)
        common = min(len(untraced.scaled), len(traced.scaled))
        overhead = common / sum(untraced.scaled[:common]) - common / sum(traced.scaled[:common])
        layers, table, check_table = per_layer(tracer, traced)
        layers["bench.trace_overhead_ops_per_s"] = (overhead, "1/s")
        layers["bench.reference_kernel_ms"] = (summary_ms(traced.references)["median"], "ms")
        detail["tracing_overhead"] = {
            "ops_compared": common,
            "untraced_minus_traced_ops_per_s": overhead,
            "ratio": overhead * sum(untraced.scaled[:common]) / common,
        }
        detail["per_call_table"] = table
        detail["check_call_table"] = check_table
        detail["byte_counts"] = "computed from file sizes"
        trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
        tracer.write(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, root)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = detail["end_to_end"]

    problems = [p for r in runs for p in r.problems]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail["problems"] = problems
    print_report(detail, metrics)
    print(json.dumps({"detail": detail}))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_report(detail: dict, metrics: dict) -> None:
    env = detail["environment"]
    print(
        f"workload {detail['workload']}  seed {env['seed']}  {detail['loop']}\n"
        f"  nproc {env['nproc']}, {env['cpu_model']}, Python {env['python']}, numpy {env['numpy']}"
    )
    tail = detail["tail"]
    print(
        f"  tail latency at p{tail['percentile']:g} of {tail['samples']} ops "
        f"({tail['samples_beyond']} beyond); failed_ratio {detail['failed_ratio']:.4g}"
    )
    ref = detail["time_scale"]
    print(
        f"  end-to-end times scaled to a {ref['reference_ms']:g} ms reference kernel "
        f"(measured median {ref['measured_ms']['median']:.4g} ms over {ref['measured_ms']['count']})"
    )
    if "tracing_overhead" in detail:
        over = detail["tracing_overhead"]
        print(
            f"  tracing overhead {over['untraced_minus_traced_ops_per_s']:.4g} ops/s "
            f"({100 * over['ratio']:.2f} %) over {over['ops_compared']} ops"
        )
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")
