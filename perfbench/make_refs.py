#!/usr/bin/env python3
"""Regenerate references.json: the M_i values (and oracle gaps) per input set.

The stored values are the program's own outputs on every input set of the
``table`` and ``deep`` workloads.  They were written at the commit that added
the benchmark; regenerate them only on purpose, for a change that is meant to
move M_i, and say so in its description.

Usage (from the repository root): python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def table_refs(seed: int, scratch: Path) -> dict:
    job = wl.prepare_table(seed, scratch, small=False)
    job.run()
    if job.rc != 0:
        raise SystemExit(f"table input set {seed}: melnlab exited {job.rc}")
    ref = {}
    for i in wl.TABLE_ORDERS:
        rows = wl.read_rows(scratch / "out" / f"melnikov_order{i}.csv")
        ref[f"M{i}"] = [float(r[f"M{i}"]) for r in rows]
        ref[f"gap{i}"] = [float(r["relative_gap"]) for r in rows]
    return ref


def deep_refs(seed: int) -> list:
    job = wl.prepare_deep(seed, None, small=False)
    job.run()
    return [[job.values[(c, x)] for x in job.xs] for c in range(len(job.configs))]


def main() -> int:
    refs = {"table": {}, "deep": {}}
    base = HERE.parent / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        for seed in range(wl.BANK):
            scratch = Path(tmp) / f"table{seed}"
            scratch.mkdir()
            refs["table"][str(seed)] = table_refs(seed, scratch)
            refs["deep"][str(seed)] = deep_refs(seed)
            print(f"input set {seed} done", flush=True)
    (HERE / "references.json").write_text(json.dumps(refs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
