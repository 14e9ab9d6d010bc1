import argparse
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import random_block
from melnlab.basis import family, family_G, family_H8, family_H_pencil, family_J0
from melnlab.cli import CASES, FAMILIES, build_parser, main
from melnlab.closedforms import v_zero_coefficients
from melnlab.config import OrderCoefficients, SystemConfig, dump_config
from melnlab.recursion import melnikov
from melnlab.reports import dumps_json, format_float, write_csv
from melnlab.simulate import ORACLE_TOL


@pytest.fixture
def demo_config(tmp_path):
    cfg = SystemConfig(n=2, k=2, orders=(
        OrderCoefficients(a=(0.3, -0.2, 0.5), b=(0.1, 0.4, -0.6),
                          alpha=(-0.7, 0.2, 0.1), beta=(0.9, -0.3, 0.2)),
        OrderCoefficients(a=(0.2, 0.1, -0.4)),
    ))
    path = tmp_path / "demo.json"
    dump_config(cfg, path)
    return path


def test_float_formatting():
    assert format_float(1.0) == "1"
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert "e" in format_float(1.5e-13)


def test_dumps_json_deterministic():
    obj = {"a": [1.0 / 3.0, 2], "b": {"c": float("nan")}}
    assert dumps_json(obj) == dumps_json(obj)
    assert '"NaN"' in dumps_json(obj)


def test_csv_table_format_equals_the_per_value_format(tmp_path):
    # an all-finite float table takes one %-format, a table with an int column
    # the per-value path; both give format_float's bytes, at the extremes too
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 1.0 / 3.0, -1.5e-13, 123456789.0]
    rows = [(x, -x) for x in edges]
    want = "a,b\n" + "".join(f"{format_float(x)},{format_float(-x)}\n" for x in edges)
    assert write_csv(tmp_path / "floats.csv", ["a", "b"], rows).read_text() == want
    flagged = write_csv(tmp_path / "flagged.csv", ["a", "b", "flag"],
                        [row + (0,) for row in rows]).read_text().splitlines()
    assert flagged == ["a,b,flag"] + [line + ",0" for line in want.splitlines()[1:]]
    nan = write_csv(tmp_path / "nan.csv", ["a", "b"], rows + [(1.0, float("nan"))])
    assert nan.read_text() == want + "1,NaN\n"


def test_melnikov_command(tmp_path, demo_config):
    out = tmp_path / "out"
    code = main(["melnikov", "--config", str(demo_config), "--orders", "1",
                 "--interval", "0.6:1.4", "--grid", "5log", "--out", str(out),
                 "--seed", "3"])
    assert code == 0
    table = (out / "melnikov_order1.csv").read_text().splitlines()
    assert table[0].startswith("x,M1,oracle_simulation,relative_gap")
    assert table[0].endswith(",closed_form,oracle_flagged")
    assert len(table) == 6
    gaps = [float(line.split(",")[3]) for line in table[1:]]
    assert max(gaps) <= ORACLE_TOL
    assert [line.split(",")[-1] for line in table[1:]] == ["0"] * 5
    assert (out / "manifest.json").exists()
    assert (out / "plot.gp").exists()


def test_melnikov_command_deterministic(tmp_path, demo_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["melnikov", "--config", str(demo_config), "--orders", "1",
                     "--interval", "0.8:1.2", "--grid", "3log", "--out", str(out),
                     "--seed", "3"]) == 0
    csv1 = (out1 / "melnikov_order1.csv").read_bytes()
    csv2 = (out2 / "melnikov_order1.csv").read_bytes()
    assert csv1 == csv2


def test_cheb_command(tmp_path):
    out = tmp_path / "cheb"
    code = main(["cheb", "--family", "F1", "--k", "1", "--interval", "0.1:10",
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["classification"] == "ET-accuracy-1"
    assert verdict["nu"] == [0, 0, 1]
    assert len(verdict["fallbacks"]) == 3
    assert (out / "wronskian_2.csv").exists()


def test_cheb_command_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["cheb", "--family", "F5", "--k", "1", "--interval", "0.1:10",
                     "--out", str(out)]) == 0
    names = ["verdict.json"] + [f"wronskian_{s}.csv" for s in range(8)]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cheb_singular_family_is_inconclusive(tmp_path, capsys):
    # u4 = u6 = x^2 at k=1, so every Wronskian from W_2 on vanishes identically
    out = tmp_path / "singular"
    code = main(["cheb", "--family", "F4", "--k", "1", "--interval", "0.5:2",
                 "--out", str(out)])
    assert code == 2
    assert "u4^1 and u6^1 are both x^2" in capsys.readouterr().err
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["classification"] == "inconclusive"
    assert verdict["zero_bound"] is None


def test_configuration_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "k": 1, "oops": []}')
    code = main(["melnikov", "--config", str(bad), "--orders", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    code = main(["melnikov", "--config", str(tmp_path / "missing.json"),
                 "--orders", "1", "--out", str(tmp_path / "o2")])
    assert code == 3
    code = main(["reproduce", "--case", "not_a_case", "--out", str(tmp_path / "o3")])
    assert code == 3
    # JSON's true would pass as the integer 1
    boolean = tmp_path / "bool.json"
    boolean.write_text('{"n": true, "k": 1, "orders": [{"i": 1}]}')
    code = main(["melnikov", "--config", str(boolean), "--orders", "1",
                 "--out", str(tmp_path / "o4")])
    assert code == 3


def test_reproduce_m1_n1(tmp_path):
    out = tmp_path / "rep"
    code = main(["reproduce", "--case", "m1_n1", "--out", str(out), "--seed", "1"])
    assert code == 0
    report = json.loads((out / "m1_n1.json").read_text())
    assert report["status"] == "PASS"
    assert len(report["artifacts"]["n1_realization"]["zeros"]) == 1


def _options(command):
    """Destinations of every option the parser accepts for ``command``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_manifest_holds_every_option(tmp_path, demo_config, monkeypatch):
    monkeypatch.setitem(CASES, "m1_n1", lambda seed: (True, [], {}))
    runs = {
        "melnikov": ["--config", str(demo_config), "--orders", "2,1", "--grid", "3"],
        "cheb": ["--family", "F1", "--interval", "0.5:2"],
        "reproduce": ["--case", "m1_n1"],
    }
    manifests = {}
    for command, argv in runs.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        manifests[command] = json.loads((out / "manifest.json").read_text())
        assert manifests[command]["command"] == command
        assert _options(command) <= set(manifests[command])
    # the interval and orders as parsed, not as typed
    assert manifests["melnikov"]["interval"] == [0.5, 2.0]
    assert manifests["melnikov"]["orders"] == [2, 1]
    assert manifests["cheb"]["interval"] == [0.5, 2.0]


def test_cheb_manifests_differ_by_family(tmp_path):
    manifests = []
    for name in ("F1", "F2"):
        out = tmp_path / name
        main(["cheb", "--family", name, "--interval", "0.5:2", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifests.append({**manifest, "out": None, "out_dir": None})
    assert manifests[0] != manifests[1]


@pytest.mark.parametrize("seed", range(5))
def test_m1_n1_realizes_one_simple_zero(seed):
    ok, lines, artifacts = CASES["m1_n1"](seed)
    assert ok and lines[0].startswith("n=1: 1 simple zero realized at ")
    assert len(artifacts["n1_realization"]["zeros"]) == 1


# the options each family reads, its member count, its members and its label
FAMILY_BUILDS = {
    **{f"F{i}": (["--k", "2"], size, lambda name=f"F{i}": family(name, 2), f"F{i}^2")
       for i, size in zip(range(1, 7), (3, 4, 5, 6, 8, 7))},
    "F7": (["--k", "2", "--lam", "1.5"], 7, lambda: family("F7", 2, lam=1.5), "F7^2,1.5"),
    "G": (["--k", "2"], 6, lambda: family_G(2), "G^2"),
    "H8": (["--k", "2"], 6, lambda: family_H8(2), "H8^2"),
    "J0": ([], 6, family_J0, "J0"),
    "H": (["--k", "2", "--alpha", "0.5", "--beta", "-0.25"], 5,
          lambda: family_H_pencil(2, 0.5, -0.25), "H^2_0.5,-0.25"),
}


def _cheb_built(tmp_path, monkeypatch, argv):
    """The members and label ``cheb`` hands to the certification for ``argv``."""
    from melnlab import cli

    certify = mock.Mock(return_value=SimpleNamespace(classification="ECT", zero_bound=0,
                                                     nu=(), to_dict=dict))
    monkeypatch.setattr(cli, "certify_family", certify)
    monkeypatch.setattr(cli, "scaled_wronskians", lambda fams, xs: [0.0 * xs] * len(fams))
    assert main(["cheb", *argv, "--out", str(tmp_path / "o")]) == 0
    [((fams, *_), kwargs)] = certify.call_args_list
    return fams, kwargs["name"]


@pytest.mark.parametrize("name", FAMILIES)
def test_cheb_builds_each_family_of_the_table(tmp_path, monkeypatch, name):
    options, count, want, label = FAMILY_BUILDS[name]
    fams, built = _cheb_built(tmp_path, monkeypatch, ["--family", name, *options])
    assert len(fams) == count
    assert [f.label for f in fams] == [f.label for f in want()]
    assert built == label


def test_cheb_labels_the_pencil_with_the_defaults_it_used(tmp_path, monkeypatch):
    fams, built = _cheb_built(tmp_path, monkeypatch, ["--family", "H", "--k", "2"])
    assert [f.label for f in fams] == [f.label for f in family_H_pencil(2, 0.0, 0.0)]
    assert built == "H^2_0.0,0.0"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["--family", "F1", "--lam", "1.5"],
    ["--family", "F5", "--alpha", "0.5"],
    ["--family", "G", "--beta", "-0.25"],
    ["--family", "F7", "--lam", "1", "--alpha", "0.5"],
    ["--family", "H", "--lam", "1"],
    ["--family", "F7", "--lam", "inf"],
    ["--family", "F7", "--lam", "nan"],
    ["--family", "H", "--alpha", "nan"],
    ["--family", "H", "--beta=-inf"],
], ids=["lam-for-F1", "alpha-for-F5", "beta-for-G", "alpha-for-F7", "lam-for-H",
        "infinite-lam", "nan-lam", "nan-alpha", "infinite-beta"])
def test_cheb_rejects_a_misplaced_or_non_finite_parameter(tmp_path, argv):
    assert main(["cheb", *argv, "--k", "2", "--out", str(tmp_path / "o")]) == 3
    # rejected before anything is written
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_reproduce_m2_n3_structure(tmp_path, seed):
    # the exit code and the JSON at the seeds the benchmark runs; the
    # residual at every seed up to 60 is the sweep's below
    out = tmp_path / "rep"
    code = main(["reproduce", "--case", "m2_n3_structure", "--out", str(out), "--seed", str(seed)])
    assert code == 0
    report = json.loads((out / "m2_n3_structure.json").read_text())
    assert report["status"] == "PASS"
    assert report["artifacts"]["fit"]["residual"] <= 1e-6


SEEDED_CASES = ("m1_n1", "m1_n2", "m1_odd", "m1_even", "m2_n3_structure", "cycles_n2_l1")


def test_every_seeded_case_passes_at_seeds_1_to_60():
    # every case that reads the seed, each under its own gate
    failed = [(case, seed) for case in SEEDED_CASES for seed in range(1, 61)
              if not CASES[case](seed)[0]]
    assert failed == []


@pytest.mark.parametrize("argv", [
    ["melnikov", "--orders", "1,,2"],
    ["melnikov", "--orders", "2,2"],
    ["cheb", "--family", "F7", "--k", "0", "--lam", "1"],
    ["cheb", "--family", "F8"],
    ["cheb", "--family", "F7"],
    ["cheb", "--family", "F2", "--k", "-1"],
    ["melnikov", "--seed", "-1"],
    ["cheb", "--family", "F5", "--seed", "-1"],
    ["reproduce", "--case", "m1_n1", "--seed", "-1"],
    ["melnikov", "--grid", "4(log"],
    ["melnikov", "--grid", "16)"],
    ["melnikov", "--grid", "16("],
    ["melnikov", "--grid", "16(log)"],
    ["melnikov", "--interval", "0.5:inf"],
    # F1^1 has a W_2 zero in [0.1, 10], so an ECT verdict on [0.1, inf) is wrong
    ["cheb", "--family", "F1", "--interval", "0.1:inf"],
    ["cheb", "--family", "F1", "--interval", "0.1:nan"],
    ["melnikov", "--interval", "0.5-2"],
    ["cheb", "--family", "F1", "--interval", "0.1:1:10"],
    ["melnikov", "--grid", "1log"],
    ["melnikov", "--orders", "0"],
    ["melnikov", "--orders", "1,3"],
], ids=["empty-order", "repeated-order", "F7-k0", "unknown-family", "F7-without-lam",
        "F2-negative-k", "melnikov-negative-seed", "cheb-negative-seed", "reproduce-negative-seed", "grid-open-paren",
        "grid-close-paren", "grid-trailing-paren", "grid-parenthesized-kind",
        "melnikov-infinite-end", "cheb-infinite-end", "cheb-nan-end", "interval-without-colon",
        "interval-with-three-ends", "grid-of-one-point", "order-zero", "order-above-k"])
def test_bad_input_is_a_configuration_error(tmp_path, demo_config, argv):
    if argv[0] == "melnikov":
        argv = argv + ["--config", str(demo_config)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    # rejected before anything is written
    assert not (tmp_path / "o").exists()


def test_start_outside_the_annulus_is_a_configuration_error(tmp_path, demo_config):
    # the orbit from x0 = 1e-5 starts inside r < 1e-4, so it never left the annulus
    assert main(["melnikov", "--config", str(demo_config), "--interval", "1e-5:1e-4",
                 "--grid", "2", "--out", str(tmp_path / "o")]) == 3


def test_non_finite_melnikov_value_exits_2(tmp_path, capsys):
    # the README example config at n = 1100: M_2 at x = 2 comes out NaN
    cfg = SystemConfig(n=1100, k=2, orders=(
        OrderCoefficients(a=(0.3, -0.2, 0.5), b=(0.1, 0.4, -0.6),
                          alpha=(-0.7, 0.2, 0.1), beta=(0.9, -0.3, 0.2)),
        OrderCoefficients(a=(0.2, -0.1, 0.3)),
    ))
    dump_config(cfg, tmp_path / "cfg.json")
    assert main(["melnikov", "--config", str(tmp_path / "cfg.json"), "--orders", "1,2",
                 "--interval", "1.5:2", "--grid", "4", "--out", str(tmp_path / "o")]) == 2
    assert "M_2 is not finite at x = 2.0" in capsys.readouterr().err


def test_oracle_gate_fails_on_a_non_finite_gap(tmp_path, demo_config, monkeypatch):
    # max() skips a NaN gap; the gate must not
    from melnlab import cli

    monkeypatch.setattr(cli, "melnikov_all",
                        lambda config, xs, upto: np.full((upto, len(xs)), np.nan))
    assert main(["melnikov", "--config", str(demo_config), "--interval", "0.8:1.2",
                 "--grid", "3", "--out", str(tmp_path / "o")]) == 2


def test_an_all_zero_config_passes_the_oracle_gate(tmp_path):
    # every order vanishes, and recursion and oracle agree on it exactly
    config = tmp_path / "zero.json"
    config.write_text('{"n": 3, "k": 2, "orders": []}')
    out = tmp_path / "o"
    assert main(["melnikov", "--config", str(config), "--orders", "1,2", "--grid", "5",
                 "--out", str(out)]) == 0
    for i in (1, 2):
        table = (out / f"melnikov_order{i}.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in table[1:]] == ["0"] * 5


def test_cheb_inconclusive_verdict_without_note_exits_2(tmp_path, monkeypatch, capsys):
    from melnlab import cli
    from melnlab.certify import AccuracyVerdict

    verdict = AccuracyVerdict(family_name="F1^1", interval=(0.5, 2.0), nu=(0, 1, 0),
                              classification="inconclusive", zero_bound=None,
                              exhaustive=False)
    monkeypatch.setattr(cli, "certify_family", lambda fams, a, b, name: verdict)
    out = tmp_path / "o"
    assert main(["cheb", "--family", "F1", "--k", "1", "--interval", "0.5:2",
                 "--out", str(out)]) == 2
    assert "inconclusive (nu=[0, 1, 0])" in capsys.readouterr().err
    record = json.loads((out / "verdict.json").read_text())
    assert record["zero_bound"] is None and "note" not in record


@pytest.mark.parametrize("grid", ["5", "5log", "5lin"])
def test_documented_grid_forms(tmp_path, demo_config, grid):
    out = tmp_path / "o"
    assert main(["melnikov", "--config", str(demo_config), "--interval", "0.8:1.2",
                 "--grid", grid, "--out", str(out)]) == 0
    xs = [float(line.split(",")[0])
          for line in (out / "melnikov_order1.csv").read_text().splitlines()[1:]]
    want = (np.linspace if grid.endswith("lin") else np.geomspace)(0.8, 1.2, 5)
    assert xs == want.tolist()


def test_cheb_simplicity_probe_stays_in_the_domain(tmp_path):
    # towards x = 1e-300 the derivative matrices of F5^1 hold subnormal
    # entries, whose cells would give W_3..W_6 noise zeros near 1e-108 with
    # slope probes below x = 0 (tests/test_certify.py covers the probe).
    # Such cells are unknown, not zeros of W_s, so no Wronskian counts a
    # zero, some report is not exhaustive and no verdict is given
    out = tmp_path / "o"
    code = main(["cheb", "--family", "F5", "--k", "1", "--interval", "1e-300:1",
                 "--out", str(out)])
    assert code == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["classification"] == "inconclusive"
    assert verdict["nu"] == [0] * 8


@pytest.mark.parametrize("points", [3, 7])
def test_melnikov_one_table_and_one_pass_per_run(tmp_path, demo_config, monkeypatch, points):
    # orders 1 and 2 share one recursion table over the whole grid, and one
    # eps-jet pass of order 2 over the whole grid, seeded by one eps = 0
    # grid pass that makes no per-point return, gives every oracle value
    from melnlab import recursion, simulate

    builds = mock.Mock(wraps=recursion.ZTable)
    returns = mock.Mock(wraps=simulate.integrate_return)
    passes = mock.Mock(wraps=simulate._return_jet)
    monkeypatch.setattr(recursion, "ZTable", builds)
    monkeypatch.setattr(simulate, "integrate_return", returns)
    monkeypatch.setattr(simulate, "_return_jet", passes)
    assert main(["melnikov", "--config", str(demo_config), "--orders", "1,2",
                 "--interval", "0.7:1.3", "--grid", f"{points}log",
                 "--out", str(tmp_path / "o")]) == 0
    assert (builds.call_count, returns.call_count, passes.call_count) == (1, 0, 1)
    assert builds.call_args.args[1].shape == (points,)


@pytest.mark.parametrize("lower_vanishes", [False, True])
def test_span_fit_only_when_every_lower_order_vanishes(tmp_path, rng, lower_vanishes):
    # M_1 is checked even though only order 2 is requested
    first = v_zero_coefficients(3, rng) if lower_vanishes else random_block(rng)
    cfg = SystemConfig(n=3, k=2, orders=(first, random_block(rng)))
    assert (abs(melnikov(cfg, 1, 1.0)) < 1e-10) == lower_vanishes
    dump_config(cfg, tmp_path / "cfg.json")
    assert main(["melnikov", "--config", str(tmp_path / "cfg.json"), "--orders", "2",
                 "--interval", "0.5:2", "--grid", "24log", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spanfit_order2.json").exists() == lower_vanishes
