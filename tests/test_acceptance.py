"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here, not deferred to fixtures or configuration.
"""

import mpmath
import numpy as np
import pytest

from conftest import random_config
from melnlab.basis import family, u
from melnlab.certify import certify_family, theorem3_bound
from melnlab.closedforms import (ZERO_WINDOW, cov_r_of_x, fit_to_span, m1_closed,
                                 structural_span, table3_structure_config,
                                 v_zero_coefficients, vanishing_order_config)
from melnlab.combinatorics import partitions
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.recursion import melnikov
from melnlab.simulate import center_event_times, extract_melnikov, integrate_return
from test_recursion import second_order_quadrature, melfun_quadrature


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[AC{number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"AC{number}: {detail}"


def test_ac01_closed_form_fidelity(rng):
    """m1_closed vs the three-piece quadrature, |diff| <= 1e-10."""
    worst = 0.0
    rs = np.geomspace(0.4, 2.5, 50)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            cfg = random_config(rng, n, 1)
            for r in rs:
                diff = abs(m1_closed(cfg, float(r)) - melfun_quadrature(cfg, float(r)))
                worst = max(worst, diff)
    report(1, worst <= 1e-10,
           f"closed form vs quadrature over n=1..5, 20 configs, 50 r-points: "
           f"max |diff| = {worst:.3e} (tol 1e-10)")


def test_ac02_recursion_orders_1_2(rng):
    """melnikov(1,.) and melnikov(2,.) against the order-2 quadrature oracle."""
    worst1 = worst2 = 0.0
    for n in (2, 3):
        for _ in range(5):
            cfg = random_config(rng, n, 2)
            for x in (0.6, 0.9, 1.3, 1.7):
                worst1 = max(worst1, abs(melnikov(cfg, 1, x) - melfun_quadrature(cfg, x)))
                worst2 = max(worst2, abs(melnikov(cfg, 2, x) - second_order_quadrature(cfg, x)))
    ok = worst1 <= 1e-8 and worst2 <= 1e-6
    report(2, ok, f"10 random configs, n in {{2,3}}: order-1 max diff {worst1:.3e} "
                  f"(tol 1e-8), order-2 max diff {worst2:.3e} (tol 1e-6)")


def test_ac03_simulation_cross_check(rng):
    """extract_melnikov vs melnikov at every order i = 1..6, within 1e-12.  M_1..M_{i-1}
    vanish for i <= 4 only: cfg5 has M_4 != 0 and cfg6 has M_3 != 0."""
    zero = OrderCoefficients()
    grid = np.geomspace(0.7, 1.5, 5)
    cases = {
        1: vanishing_order_config(3, 1, seed=11),
        2: vanishing_order_config(3, 2, seed=11),
        3: vanishing_order_config(3, 3, seed=2024),
        4: vanishing_order_config(2, 4, seed=11),
    }
    lines = []
    ok = True
    def worst_gap(i, cfg):
        # one eps-jet pass and one recursion pass over the grid
        est = extract_melnikov(grid, i, cfg, center_event_times(grid, cfg.n))
        worst = 0.0
        for value, want in zip(est.value.tolist(), melnikov(cfg, i, grid).tolist()):
            worst = max(worst, abs(value - want) / max(1.0, abs(want)))
        return worst

    for i, cfg in cases.items():
        worst = worst_gap(i, cfg)
        ok = ok and worst <= 1e-12
        lines.append(f"i={i}: {worst:.2e}")

    rng5 = np.random.default_rng(5)
    c2 = v_zero_coefficients(3, rng5)
    c3 = v_zero_coefficients(3, rng5)
    cfg5 = SystemConfig(n=3, k=5, orders=(zero, c2, c3, zero, zero))
    cfg6 = SystemConfig(n=3, k=6, orders=(
        zero, zero,
        OrderCoefficients(a=(0.3, 0.4, -0.2), b=(0.1, -0.6, 0.5),
                          alpha=(-0.4, 0.2, 0.7), beta=(0.6, -0.1, 0.3)),
        zero, zero, zero))
    for i, cfg in ((5, cfg5), (6, cfg6)):
        worst = worst_gap(i, cfg)
        ok = ok and worst <= 1e-12
        lines.append(f"i={i}: {worst:.2e}")
    report(3, ok, "relative gaps at 5 grid points, lower orders vanishing for i <= 4 - "
           + "; ".join(lines) + " (tol 1e-12)")


def test_ac04_theorem_a_realizations():
    """Per n = 1..5, the m1 case's realized simple zeros (seed 1) against the
    Wronskian certificate of the first-order span, in span member order, on the
    window sign_pattern_search counts zeros on: realized and certified agree."""
    from melnlab.cli import CASES

    cases = {1: "m1_n1", 2: "m1_n2", 3: "m1_odd", 4: "m1_even", 5: "m1_odd"}
    runs = {case: CASES[case](1) for case in set(cases.values())}
    lo, hi = ZERO_WINDOW
    ok, lines = True, []
    for n, case in cases.items():
        run_ok, _, artifacts = runs[case]
        zeros = artifacts.get(f"n{n}_realization", {}).get("zeros", [])
        name, fams, _ = structural_span(n, 1)
        if n == 1:  # F1^0 holds x^0 twice
            name, fams = "[u1^0, u12^0]", [u(1, 0), u(12, 0)]
        verdict = certify_family(fams, lo, hi, name=name)
        ok = (ok and run_ok and verdict.classification != "inconclusive"
              and verdict.zero_bound == len(zeros) and all(lo <= z <= hi for z in zeros))
        lines.append(f"n={n}: {len(zeros)} realized at "
                     + ", ".join(f"{z:.6g}" for z in zeros)
                     + f"; {name} {verdict.classification}, bound {verdict.zero_bound}")
    report(4, ok, f"the most simple zeros a first-order function has on [{lo:g}, {hi:g}], "
                  "realized at seed 1 and certified as the span's zero bound - "
                  + " | ".join(lines))


def test_ac05_limit_cycles():
    from melnlab.cli import _case_cycles

    ok, lines, artifacts = _case_cycles(1)
    cycles = artifacts.get("cycles", [])
    gaps = [abs(c["x_star"] - c["melnikov_zero"]) for c in cycles]
    report(5, ok, f"n=2 three-zero config at eps=1e-4: {len(cycles)} cycles, "
                  f"|x*-zero| = {', '.join(f'{g:.2e}' for g in gaps)} (tol 5e-4)")


def test_ac06_prop4_witness():
    from melnlab.cli import _case_prop4

    ok, lines, artifacts = _case_prop4()
    report(6, ok, f"printed coefficients give {len(artifacts['zeros'])} simple zeros on (0, 50)")


def test_ac07_prop5_staging():
    from melnlab.cli import _case_prop5

    ok, lines, artifacts = _case_prop5()
    report(7, ok, " | ".join(lines))


def test_ac08_wronskian_battery():
    from test_certify import BATTERY, printed_wronskians
    from melnlab.certify import wronskian

    xs = np.geomspace(0.1, 10.0, 50)
    worst = 0.0
    for name, k in BATTERY:
        fams = family(name, k)
        for s, formula in enumerate(printed_wronskians(name, k)):
            for x in xs:
                det, _ = wronskian(fams, float(x), s)
                want = formula(float(x))
                rel = abs(det - want) / max(abs(want), 1e-12)
                worst = max(worst, rel)
    report(8, worst <= 1e-9,
           f"11 printed families, 50 log-spaced points each: max relative "
           f"deviation {worst:.3e} (tol 1e-9)")


def test_ac09_property_suite(rng):
    counts = [len(partitions(l)) for l in range(1, 7)]
    ok_counts = counts == [1, 2, 3, 5, 7, 11]

    # jets vs mpmath.diff on the values at 40 digits, orders <= 4
    worst_fd = 0.0
    with mpmath.workdps(40):
        for ident in range(1, 24):
            bf = u(ident, 2)
            for x0 in np.geomspace(0.3, 3.0, 20):
                jet = bf.jet(float(x0), 4)
                for m in range(1, 5):
                    oracle = float(mpmath.diff(bf, mpmath.mpf(float(x0)), m))
                    scale = max(1.0, abs(oracle))
                    worst_fd = max(worst_fd, abs(jet.derivative(m) - oracle) / scale)
    ok_fd = worst_fd <= 1e-13

    worst_eps0 = 0.0
    for n in (2, 3):
        cfg = random_config(rng, n, 1)
        for x0 in (0.7, 1.2, 1.9):
            worst_eps0 = max(worst_eps0, abs(integrate_return(x0, 0.0, cfg).displacement))
    ok_eps0 = worst_eps0 <= 1e-12

    nu = [1, 0, 2, 0, 1, 1]
    expected = 5 + 1 + 1 + 2 * 3 + min(2, 1) + min(0, 1)
    ok_bound = (theorem3_bound(nu) == expected == 14
                and theorem3_bound([0, 0, 0, 0]) == 3
                and theorem3_bound([0, 0, 0, 1]) == 4)

    ok = ok_counts and ok_fd and ok_eps0 and ok_bound
    report(9, ok, f"partition counts {counts}; jet-vs-oracle max rel {worst_fd:.2e} "
                  f"(tol 1e-13); eps=0 displacement max {worst_eps0:.2e} (tol 1e-12); "
                  f"zero-count bound formula unit checks {'ok' if ok_bound else 'BAD'}")


def test_ac10_structure_and_ceilings():
    lines = []
    ok = True
    for n in (3, 2):
        cfg = table3_structure_config(n, seed=7)
        xs = np.geomspace(0.3, 2.2, 40).tolist()
        rs = np.array([cov_r_of_x(x, n) for x in xs])
        samples = list(zip(xs, melnikov(cfg, 2, rs).tolist()))
        fit = fit_to_span(samples, n, 2)
        ok = ok and fit.residual <= 1e-6
        lines.append(f"n={n} order-2 numerator onto {fit.family_name}: residual "
                     f"{fit.residual:.2e}")
    verdicts = {
        "F3^1": (certify_family(family("F3", 1), 0.1, 10.0, name="F3^1"), "ECT", 4),
        "F5^1": (certify_family(family("F5", 1), 0.1, 10.0, name="F5^1"), "ECT", 7),
        "F1^1": (certify_family(family("F1", 1), 0.1, 10.0, name="F1^1"),
                 "ET-accuracy-1", 3),
        "F2^1": (certify_family(family("F2", 1), 0.1, 10.0, name="F2^1"), "ECT", 3),
    }
    for name, (verdict, want_cls, want_bound) in verdicts.items():
        good = verdict.classification == want_cls and verdict.zero_bound == want_bound
        ok = ok and good
        lines.append(f"{name}: {verdict.classification} (bound {verdict.zero_bound})")
    report(10, ok, "; ".join(lines) + " (residual tol 1e-6; ceilings from verdicts)")
