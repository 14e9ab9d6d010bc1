import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from melnlab.basis import BasisFunction
from melnlab.certify import AccuracyVerdict, Prop5Result, ZeroRecord, ZeroReport
from melnlab.closedforms import SpanFit
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.simulate import CycleSearch, LimitCycle, MelnikovEstimate, PoincareResult

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# the README's example parameter file
README_CONFIG = """{"n": 3, "k": 2, "orders": [
  {"i": 1, "a": [0.3, -0.2, 0.5], "b": [0.1, 0.4, -0.6],
   "alpha": [-0.7, 0.2, 0.1], "beta": [0.9, -0.3, 0.2]},
  {"i": 2, "a": [0.2, -0.1, 0.3]}
]}"""

# `python -m melnlab` with every scipy* import failing
WITHOUT_SCIPY = """
import runpy
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
runpy.run_module("melnlab", run_name="__main__", alter_sys=True)
"""


def test_import_loads_no_scipy():
    # scipy cost about 0.2 s and 25 MB at start-up; melnlab carries its own
    # Brent root finder, Levenberg-Marquardt solver and DCT-II instead
    code = ("import sys; import melnlab, melnlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=ENV)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy_polynomial():
    # only the Prop. 5 witness needs it, and loads it on first use: at import
    # it would add to the start-up of every command
    code = ("import sys; import melnlab, melnlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=ENV)
    assert out.stdout.strip() == "[]"


# the package's stdlib start-up cost: which of fractions and decimal are
# loaded, and which melnlab classes carry dataclass fields
START_UP = """
import sys
import melnlab, melnlab.cli

print(sorted(m for m in ("fractions", "decimal") if m in sys.modules))
print(sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
             if name.startswith("melnlab") for attr, obj in vars(module).items()
             if isinstance(obj, type) and "__dataclass_fields__" in vars(obj)))
"""


def test_import_runs_no_dataclass_code_and_loads_no_fractions():
    # a frozen dataclass generates its methods as source and compiles each
    # with exec on every import, about 1 ms a class, and fractions (with the
    # decimal it loads) about 2 ms: start-up that every command paid
    out = subprocess.run([sys.executable, "-c", START_UP], capture_output=True, text=True,
                         check=True, env=ENV)
    assert out.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("cls", [ZeroRecord, ZeroReport, AccuracyVerdict, Prop5Result, SpanFit,
                                 PoincareResult, LimitCycle, MelnikovEstimate, CycleSearch,
                                 BasisFunction, OrderCoefficients, SystemConfig],
                         ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = cls._make([None] * len(cls._fields))
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("argv", [
    ["melnikov", "--config", "{config}", "--orders", "1,2", "--grid", "4"],
    ["cheb", "--family", "F5", "--k", "1"],
], ids=["melnikov", "cheb"])
def test_cli_runs_without_scipy(tmp_path, argv):
    config = tmp_path / "cfg.json"
    config.write_text(README_CONFIG)
    argv = [a.format(config=config) for a in argv] + ["--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-W", "error", "-c", WITHOUT_SCIPY, *argv],
                         capture_output=True, text=True, env=ENV)
    assert run.returncode == 0, run.stderr


def test_zero_isolation_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 8 ms and 1 MB of
    # every run whose zero isolation refines a cell
    code = ("import sys; from melnlab.certify import isolate_zeros; "
            "rep = isolate_zeros(lambda x: (x - 1.0) ** 2, 0.5, 2.0); "
            "print(len(rep.grid_rounds) > 1, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=ENV)
    assert out.stdout.strip() == "True False"


def test_console_scripts_resolve_to_callables():
    # each [project.scripts] entry, "module:function", is what an install runs
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["melnlab"] == "melnlab.cli:main"
    for target in scripts.values():
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))
