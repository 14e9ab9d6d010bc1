"""The scripts under ``scripts/`` run end to end, each in its own interpreter."""

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
