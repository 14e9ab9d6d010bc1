import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.2 s and 22 MB at start-up; melnlab
    # carries its own Brent root finder and Levenberg-Marquardt solver instead
    code = ("import sys; import melnlab, melnlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
