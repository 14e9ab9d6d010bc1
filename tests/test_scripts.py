"""The scripts under ``scripts/`` run end to end, each in its own interpreter."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
                          capture_output=True, text=True, timeout=300)


def test_reproduce_all_passes_every_case(tmp_path):
    done = _run("reproduce_all.py", tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("all cases PASS")


def test_melnikov_demo_writes_its_tables(tmp_path):
    done = _run("melnikov_demo.py", tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert {"demo_config.json", "melnikov_order1.csv", "melnikov_order2.csv"} <= \
        {path.name for path in tmp_path.iterdir()}


def test_certify_families_prints_the_verdict_table(tmp_path):
    done = _run("certify_families.py", tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    table = {}
    for path in tmp_path.glob("*.json"):
        verdict = json.loads(path.read_text())
        table[verdict["family"]] = (verdict["classification"], verdict["zero_bound"],
                                    verdict["nu"])
    assert table == {
        "F1^1": ("ET-accuracy-1", 3, [0, 0, 1]),
        "F1^2": ("ET-accuracy-1", 3, [0, 0, 1]),
        "F2^1": ("ECT", 3, [0] * 4),
        "F2^2": ("ET-accuracy-1", 4, [0, 0, 0, 1]),
        "F3^1": ("ECT", 4, [0] * 5),
        "F4^2": ("ECT", 5, [0] * 6),
        "F5^1": ("ECT", 7, [0] * 8),
        "F5^2": ("ECT", 7, [0] * 8),
        "F6^2": ("ET-accuracy-1", 7, [0] * 6 + [1]),
    }
