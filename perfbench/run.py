#!/usr/bin/env python3
"""melnlab benchmark: seeded workloads through the CLI and the library.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every sample is a fresh single-threaded process (``worker.py``) that sets up
the workload's inputs, runs it once and checks every output.  Samples run
one after another, a closed loop, for about ``--seconds``; at least
``MIN_SETUPS`` set-ups are timed in each run.  The process that measures is
not the one measured, so the harness adds nothing to the timed region.

With ``--trace 0`` the run reports the end-to-end metrics, medians over the
samples: ``setup_s`` (CPU time from process start until the inputs are
ready), ``ref_cpu_s`` (CPU time of the run) and ``peak_rss_mb``.  The two
times are scaled to a reference machine speed: each sample times a short
fixed loop every 0.2 s of CPU time through its run (``worker.SpeedProbe``),
and its run time is multiplied by ``PROBE_REF_S`` over the mean probe time;
set-up is probed and scaled the same way.  The
unscaled CPU and wall-clock times and the error rate are printed too.  With ``--trace 1`` the
run alternates untraced and traced samples and reports the per-layer
metrics of the traced ones, plus ``trace.overhead_s``, the traced minus the
untraced median CPU time, scaled the same way.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs go to a temporary directory under ``.perfbench_tmp``
in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5
TMP_DIR = ".perfbench_tmp"
SAMPLE_TIMEOUT_S = 100.0     # keeps a run with one hung sample under 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DIGITS = {"oracle_digits": "table", "closed_form_digits": "deep"}
# CPU time of one worker.probe() on the reference machine (the one in the
# README's baseline) when its host is not contended
PROBE_REF_S = 0.0034


@dataclass
class Sample:
    mode: str
    setup_wall_s: float | None = None     # spawn until the inputs are ready
    result: dict | None = None
    error: str | None = None


def _env(scratch: Path) -> dict:
    env = dict(os.environ)
    env.pop("MELNLAB_WORKERS", None)
    env.update({name: "1" for name in PINNED_THREADS})
    env.update(TMPDIR=str(scratch), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _sample(workload: str, seed: int, mode: str, base: Path, small: bool) -> Sample:
    scratch = Path(tempfile.mkdtemp(dir=base))
    result_path, log_path = scratch / "result.json", scratch / "log.txt"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
            str(scratch), str(result_path)] + (["--small"] if small else [])
    sample = Sample(mode)
    try:
        with log_path.open("w") as log:
            spawned = perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=scratch, env=_env(scratch))
            try:
                code = proc.wait(timeout=SAMPLE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        if code == 0 and result_path.exists():
            sample.result = json.loads(result_path.read_text())
            sample.setup_wall_s = sample.result["ready"] - spawned
        else:
            tail = log_path.read_text()[-2000:]
            sample.error = f"{mode} sample exited {code}:\n{tail}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return sample


def measure(workload: str, seed: int, seconds: float, trace: bool, base: Path,
            small: bool = False) -> list[Sample]:
    """Samples for about ``seconds``: stop where the next would end further past.

    With tracing, untraced and traced samples alternate, at least one of each.
    Set-up-only samples follow until ``MIN_SETUPS`` set-ups have been timed.
    """
    samples: list[Sample] = []
    start = perf_counter()
    while True:
        mode = "trace" if trace and len(samples) % 2 == 1 else "run"
        samples.append(_sample(workload, seed, mode, base, small))
        elapsed = perf_counter() - start
        full = elapsed + 0.5 * elapsed / len(samples) > seconds
        if full and (not trace or {s.mode for s in samples} == {"run", "trace"}):
            break
    while sum(s.result is not None for s in samples) < MIN_SETUPS:
        samples.append(_sample(workload, seed, "setup", base, small))
        if samples[-1].error:
            break
    return samples


def probe_time(probes: list[float]) -> float:
    """Mean probe time, leaving out probes the host stalled (more than twice
    the median, which a slow phase alone never reaches)."""
    limit = 2.0 * statistics.median(probes)
    return statistics.fmean(t for t in probes if t <= limit)


def scaled_cpu(result: dict) -> float:
    """A sample's run CPU time at the reference speed of the probe loop."""
    return result["cpu_s"] * PROBE_REF_S / probe_time(result["probe_s"])


def scaled_setup(result: dict) -> float:
    """A sample's set-up CPU time at the reference speed of the probe loop."""
    return result["setup_cpu_s"] * PROBE_REF_S / probe_time(result["setup_probe_s"])


def summarize(samples: list[Sample], trace: bool) -> tuple[dict, dict]:
    """Operation counts over all samples and the median of every metric."""
    measured = [s for s in samples if s.mode != "setup"]
    attempted = sum(s.result["attempted"] if s.result else 1 for s in measured)
    failed = sum(s.result["failed"] if s.result else 1 for s in measured)
    failed += sum(1 for s in samples if s.mode == "setup" and s.error)
    runs = [s.result for s in samples if s.mode == "run" and s.result]
    traces = [s.result for s in samples if s.mode == "trace" and s.result]
    metrics = {}
    if trace and runs and traces:
        # median_low: counts repeat exactly, so they stay whole numbers
        metrics = {key: statistics.median_low(t["layers"][key] for t in traces)
                   for key in traces[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(map(scaled_cpu, traces))
                                       - statistics.median(map(scaled_cpu, runs)))
    elif not trace and runs:
        setups = [scaled_setup(s.result) for s in samples if s.result]
        metrics = {"setup_s": statistics.median(setups),
                   "ref_cpu_s": statistics.median(map(scaled_cpu, runs)),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    counts = {"attempted": attempted, "failed": failed}
    return counts, metrics


def result_line(counts: dict, metrics: dict, declared: dict) -> dict:
    """The final JSON object; every declared metric, with its declared unit."""
    correct = counts["failed"] == 0 and set(metrics) == set(declared)
    return {"correct": correct, **counts,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items() if name in metrics}}


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import importlib.metadata as md

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            info[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            info[pkg] = "missing"
    return info


def report(workload: str, seed: int, samples: list[Sample], counts: dict,
           metrics: dict, declared: dict) -> None:
    kinds = {mode: sum(s.mode == mode for s in samples) for mode in ("run", "trace", "setup")}
    print(f"== {workload} (seed {seed}): {kinds['run']} untraced, {kinds['trace']} traced,"
          f" {kinds['setup']} set-up-only samples")
    n = {"setup_s": sum(s.result is not None for s in samples),
         "ref_cpu_s": sum(s.mode == "run" and s.result is not None for s in samples)}
    n["peak_rss_mb"] = n["ref_cpu_s"]
    for name, value in metrics.items():
        note = f"  (median of {n[name]})" if name in n else ""
        print(f"  {name:<32} {value!r:>24} {declared.get(name, '?')}{note}")
    runs = [s.result for s in samples if s.mode == "run" and s.result]
    if runs:
        cpus, walls = [r["cpu_s"] for r in runs], [r["wall_s"] for r in runs]
        setups = [s.result["setup_cpu_s"] for s in samples if s.result]
        spawns = [s.setup_wall_s for s in samples if s.setup_wall_s is not None]
        for name, values, what in (
                ("cpu_s", cpus, "CPU time of the run, not scaled"),
                ("wall_s", walls, "wall clock of the run"),
                ("setup_cpu_s", setups, "CPU time of set-up, not scaled"),
                ("setup_wall_s", spawns, "wall clock from spawn to inputs ready")):
            print(f"  {name:<32} {statistics.median(values)!r:>24} s  ({what}; median of"
                  f" {len(values)}, {min(values):.3f} to {max(values):.3f})")
        scales = [PROBE_REF_S / probe_time(r["probe_s"]) for r in runs]
        print(f"  {'speed scale':<32} {statistics.median(scales)!r:>24}  (reference"
              f" {PROBE_REF_S} s over the mean probe time; median of {len(scales)})")
    attempted, failed = counts["attempted"], counts["failed"]
    print(f"  {'error_rate':<32} {failed / attempted!r:>24} ratio"
          f"  ({failed} failed / {attempted} attempted)")
    for name, owner in DIGITS.items():
        values = [s.result["digits"][name] for s in samples
                  if s.result and name in s.result.get("digits", {})]
        shown = repr(min(values)) if values else f"n/a (only {owner})"
        print(f"  {name:<32} {shown:>24} digits")
    for s in samples:
        for reason in (s.result or {}).get("reasons", []):
            print(f"  FAILED {reason}")
        if s.error:
            print(f"  FAILED {s.error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "melnlab" / "__init__.py").is_file():
        print(f"perfbench: no melnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    (ROOT / TMP_DIR).mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=ROOT / TMP_DIR))
    print("env " + json.dumps(environment()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            samples = measure(name, args.seed, args.seconds, bool(args.trace), base)
            counts, metrics = summarize(samples, bool(args.trace))
            report(name, args.seed, samples, counts, metrics, declared)
            print(json.dumps(result_line(counts, metrics, declared)), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (ROOT / TMP_DIR).rmdir()
        except OSError:  # another run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
