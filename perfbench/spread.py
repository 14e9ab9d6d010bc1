#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--trace 0|1]
                                [--record perfbench/baseline.json]

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median; for an end-to-end metric it is compared with a third of the
metric's bound in BENCHMARK.json.  ``--record`` stores the medians and
quartiles under the workload's entry of a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = (int(p) for p in text.split("-"))
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range A-B")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: m["value"] for k, m in result["metrics"].items()
                                 if k in bounds}})
        print(json.dumps(runs[-1]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        verdict = ""
        if name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else f"ABOVE a third of bound {bounds[name]}"
        print(f"{args.workload} {name:<32} median {median!r:<22} spread {spread:.4f} {verdict}")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        entry = record.setdefault("workloads", {}).setdefault(args.workload, {})
        entry["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "runs": runs, "metrics": summary}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] and r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
