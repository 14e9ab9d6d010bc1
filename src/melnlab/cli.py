"""Batch command-line front end: tables, certifications, reproductions.

Commands
--------
melnikov   Tabulate Melnikov orders on a grid with a simulation oracle column.
cheb       Certify an ordered family on an interval; dump Wronskian curves.
reproduce  Run a scripted scenario and report PASS/FAIL with artifacts.

Exit codes: 0 success, 2 numerical-quality failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import family, family_G, family_H_pencil, family_H8, family_J0
from .certify import (PROP4_COEFFS, certify_family, prop4_witness, prop5_witness,
                      scaled_wronskians)
from .closedforms import (STRUCTURE_WINDOW, config_from_v, cov_r_of_x, fit_to_span,
                          m1_closed, q_basis, sign_pattern_search, structural_span,
                          table3_structure_config)
from .config import config_to_dict, load_config
from .errors import ConfigurationError, DomainError, MelnlabError, NumericalError
from .geometry import crossing_abscissa
from .recursion import melnikov, melnikov_all
from .reports import format_float, write_csv, write_gnuplot, write_json
from .simulate import ORACLE_TOL, center_event_times, extract_melnikov, find_limit_cycles

# random reduced coefficients drawn by each zero-count ceiling scan
CEILING_TRIALS = 1000
# trials per block: a (32, 2048) block of float64 values is 512 KB, which
# stays in a 2 MB L2 cache share, and a 32-row matmul keeps OpenBLAS on one
# thread, where 125 rows start a second whose spinning costs CPU time later
CEILING_BLOCK = 32


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        a, b = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"interval must look like A:B, got {text!r}") from exc
    if not (0 < a < b < math.inf):
        raise ConfigurationError(f"interval must satisfy 0 < A < B < inf, got {text!r}")
    return a, b


def _grid_points(text: str, interval) -> list[float]:
    m = re.fullmatch(r"(\d+)(log|lin)?", text)
    if not m:
        raise ConfigurationError(f"grid must look like N, Nlog or Nlin, got {text!r}")
    count = int(m.group(1))
    if count < 2:
        raise ConfigurationError("grid needs at least 2 points")
    space = np.linspace if m.group(2) == "lin" else np.geomspace
    return [float(x) for x in space(*interval, count)]


def cmd_melnikov(args) -> int:
    config = load_config(args.config)
    interval = _parse_interval(args.interval)
    xs = _grid_points(args.grid, interval)
    try:
        orders = tuple(int(p) for p in args.orders.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"orders must look like 1,2, got {args.orders!r}") from exc
    for i in orders:
        if not 1 <= i <= config.k:
            raise ConfigurationError(f"order {i} outside the config's 1..{config.k}")
    if len(set(orders)) < len(orders):
        raise ConfigurationError(f"orders must not repeat, got {args.orders!r}")
    out = Path(args.out)
    _write_manifest(out, args, interval=interval, orders=orders)

    # one recursion pass and one oracle eps-jet pass over the grid, both of
    # the highest order, serve every requested order
    top = max(orders)
    values = melnikov_all(config, np.array(xs), top)
    est = extract_melnikov(xs, top, config, center_event_times(xs, config.n))
    errors = est.error_estimate.tolist()
    worst_gap = 0.0
    curves = []
    for i in orders:
        # order one also carries the closed form
        rows = [(x, val, oracle, abs(val - oracle) / max(1.0, abs(val)), err)
                + ((m1_closed(config, x),) if i == 1 else ()) + (int(flag),)
                for x, val, oracle, err, flag in zip(xs, values[i - 1].tolist(),
                                                     est.values[i - 1].tolist(), errors,
                                                     est.flagged_at(i).tolist())]
        name = f"melnikov_order{i}.csv"
        header = ["x", f"M{i}", "oracle_simulation", "relative_gap", "oracle_error_estimate",
                  *(["closed_form"] if i == 1 else []), "oracle_flagged"]
        write_csv(out / name, header, rows)
        curves.append((name, 1, 2, f"M{i}"))
        # np.max, not max: a NaN gap must reach the gate below
        worst_gap = float(np.max([worst_gap] + [r[3] for r in rows]))
    write_gnuplot(out / "plot.gp", "Melnikov orders", curves)
    _append_span_fits(out, config, orders, xs, values)
    print(f"wrote {len(orders)} order tables to {out} (worst oracle gap {format_float(worst_gap)})")
    if not math.isfinite(worst_gap) or worst_gap > ORACLE_TOL:
        raise NumericalError(f"simulation oracle disagrees beyond {ORACLE_TOL} "
                             f"(worst gap {format_float(worst_gap)})")
    return 0


def _append_span_fits(out: Path, config, orders, xs, values) -> None:
    """Sidecar span fit for a requested order whose lower orders all vanish.

    ``values[i-1]`` holds M_i over ``xs`` for i = 1..max, so every lower order
    is checked, requested or not.  Emits spanfit_order{i}.json plus a CSV of
    (x, M_i, fitted, residual) rows; skipped silently when a lower order is
    nonzero (no structure claim then) or when the sample set is too small.
    """
    for i in sorted(set(orders)):
        if i < 2 or np.max(np.abs(values[:i - 1])) >= 1e-10:
            continue
        if np.max(np.abs(values[i - 1])) < 1e-12:
            continue
        samples = [(crossing_abscissa(x, config.n), v)
                   for x, v in zip(xs, values[i - 1].tolist())]
        fam = structural_span(config.n, i)[1]
        if len(samples) < 3 * len(fam):
            continue
        fit = fit_to_span(samples, config.n, i)
        write_csv(out / f"spanfit_order{i}.csv",
                  ["x_transformed", f"M{i}", "fitted", "residual"],
                  [(s[0], s[1], fv, s[1] - fv) for s, fv in zip(samples, fit.fitted)])
        write_json(out / f"spanfit_order{i}.json", {
            "order": i, "family": fit.family_name, "residual": fit.residual,
            "coefficients": list(fit.coefficients),
            "condition_number": fit.condition_number})
        print(f"order {i}: leading order; span fit onto {fit.family_name} "
              f"residual {format_float(fit.residual)}")


# family name -> builder of its ordered members from the parsed arguments
FAMILIES = {
    **{f"F{i}": lambda args, name=f"F{i}": family(name, args.k, lam=args.lam)
       for i in range(1, 8)},
    "G": lambda args: family_G(args.k),
    "H8": lambda args: family_H8(args.k),
    "J0": lambda args: family_J0(),
    "H": lambda args: family_H_pencil(args.k, args.alpha or 0.0, args.beta or 0.0),
}


def cmd_cheb(args) -> int:
    if args.family not in FAMILIES:
        raise ConfigurationError(
            f"unknown family {args.family!r}; choose from {list(FAMILIES)}")
    interval = _parse_interval(args.interval)
    fams = FAMILIES[args.family](args)
    name = (f"H^{args.k}_{args.alpha},{args.beta}" if args.family == "H" else
            f"{args.family}^{args.k}" + (f",{args.lam}" if args.lam is not None else ""))
    out = Path(args.out)
    _write_manifest(out, args, interval=interval)

    verdict = certify_family(fams, interval[0], interval[1], name=name)
    record = verdict.to_dict()
    write_json(out / "verdict.json", record)
    if "note" in record:
        raise NumericalError(f"family certification inconclusive: {record['note']}")
    xs = np.geomspace(interval[0], interval[1], 400)
    for s, ws in enumerate(scaled_wronskians(fams, xs)):
        rows = list(zip(xs.tolist(), ws.tolist()))
        write_csv(out / f"wronskian_{s}.csv", ["x", f"W{s}_scaled"], rows)
    write_gnuplot(out / "plot.gp", f"scaled Wronskians of {name}",
                  [(f"wronskian_{s}.csv", 1, 2, f"W{s}") for s in range(len(fams))])
    print(f"{name} on [{interval[0]}, {interval[1]}]: {verdict.classification}"
          f" (zero bound {verdict.zero_bound}, nu={list(verdict.nu)})")
    if verdict.classification == "inconclusive":
        raise NumericalError(f"family certification inconclusive (nu={list(verdict.nu)})")
    return 0


# -- reproduction scenarios ------------------------------------------------------


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Strict sign changes between neighbours along the last axis; zeros change nothing."""
    neg, pos = vals < 0, vals > 0
    change = (neg[..., :-1] & pos[..., 1:]) | (pos[..., :-1] & neg[..., 1:])
    return np.sum(change.view(np.int8), axis=-1, dtype=np.int32)


def _ceiling_scan(n: int, ceiling: int, rng):
    """Zero-count ceiling over random reduced coefficients, batched."""
    xs = np.geomspace(1e-3, 1e3, 2048)
    design = np.column_stack([g(xs) for g in q_basis(n)])
    dim = design.shape[1]
    vs = rng.uniform(-1.0, 1.0, size=(CEILING_TRIALS, dim))
    # a block of trials at a time bounds the (trials, grid) temporaries
    worst = max(int(np.max(_sign_changes(vs[lo:lo + CEILING_BLOCK] @ design.T)))
                for lo in range(0, CEILING_TRIALS, CEILING_BLOCK))
    return worst, worst <= ceiling


def _case_m1_counts(seed, targets):
    """First-order realizations and ceilings; ``targets`` maps n to its zero count."""
    rng = np.random.default_rng(seed)
    ok, lines, artifacts = True, [], {}
    for n, target in targets.items():
        found = sign_pattern_search(n, target, seed=seed)
        if found is None:
            ok = False
            lines.append(f"n={n}: FAILED to realize {target} simple zeros")
            continue
        v, zeros = found
        artifacts[f"n{n}_realization"] = {"v": list(v), "zeros": list(zeros)}
        lines.append(f"n={n}: {len(zeros)} simple zero{'s' if len(zeros) > 1 else ''} "
                     "realized at " + ", ".join(f"{z:.6g}" for z in zeros))
        worst, inside = _ceiling_scan(n, target, rng)
        lines.append(f"n={n}: ceiling {target} respected over {CEILING_TRIALS} random configs"
                     f" (max seen {worst})" if inside else
                     f"n={n}: CEILING {target} EXCEEDED (saw {worst})")
        ok = ok and inside
    return ok, lines, artifacts


def _case_m2_n3_structure(seed):
    cfg = table3_structure_config(3, seed=seed)
    xs = np.geomspace(*STRUCTURE_WINDOW, 40).tolist()
    samples = list(zip(xs, melnikov(cfg, 2, np.array([cov_r_of_x(x, 3) for x in xs])).tolist()))
    fit = fit_to_span(samples, 3, 2)
    ok = fit.residual <= 1e-6
    lines = [f"M2 numerator fits Span(F5^1) with relative residual {fit.residual:.3e}"
             f" (threshold 1e-6, independent verification grid): {'PASS' if ok else 'FAIL'}"]
    artifacts = {"fit": {"family": fit.family_name, "coefficients": list(fit.coefficients),
                         "residual": fit.residual, "condition_number": fit.condition_number},
                 "config": config_to_dict(cfg)}
    return ok, lines, artifacts


def _case_prop4():
    report = prop4_witness()
    count = report.simple_count
    ok = count == 8
    lines = [f"{count} simple zeros on (0, 50); expected 8: {'PASS' if ok else 'FAIL'}"]
    artifacts = {"coefficients": list(PROP4_COEFFS),
                 "zeros": [z.location for z in report.zeros],
                 "report": report.to_dict()}
    return ok, lines, artifacts


def _case_prop5():
    res = prop5_witness(2)
    ladder = res.sign_ladder
    ladder_ok = (ladder["g(0)"] > 0 and ladder["g(1/2)"] < 0
                 and abs(ladder["g(1)"]) < 1e-6 and ladder["gprime(1)"] < 0
                 and ladder["g(2)"] > 0)
    stage1_ok = res.stage1_report.simple_count == 4
    ok = ladder_ok and stage1_ok and res.succeeded
    lines = [
        f"sign ladder g(0)>0, g(1/2)<0, g(1)=0, g'(1)<0, g(2)>0: "
        f"{'PASS' if ladder_ok else 'FAIL'} ({ {k: format_float(v) for k, v in ladder.items()} })",
        f"stage 1: {res.stage1_report.simple_count} simple zeros in (0,2); expected 4: "
        f"{'PASS' if stage1_ok else 'FAIL'}",
        f"stage 2: witness with {res.count} simple zeros: {'PASS' if res.succeeded else 'FAIL'}",
    ]
    artifacts = {"sign_ladder": ladder, "coefficients": list(res.coefficients),
                 "stage1": res.stage1_report.to_dict(), "stage2": res.report.to_dict()}
    return ok, lines, artifacts


def _case_cycles(seed):
    eps = 1e-4
    found = sign_pattern_search(2, 3, seed=seed)
    if found is None:
        return False, ["no 3-zero first-order configuration found"], {}
    v, zeros = found
    r_zeros = [cov_r_of_x(z, 2) for z in zeros]
    # The fixed point sits at distance ~ eps*|M2/M1'| from the order-1 zero;
    # zeros are invariant under coefficient scaling while that constant is
    # linear in it, so shrink the configuration until the constant is small.
    h = 1e-6
    cfg = config_from_v(v, 2, k=2)
    worst = max(abs(m2 / ((m1_closed(cfg, r + h) - m1_closed(cfg, r - h)) / (2.0 * h)))
                for r, m2 in zip(r_zeros, melnikov(cfg, 2, np.array(r_zeros)).tolist()))
    if worst > 1.0:
        v = tuple((1.0 / worst) * c for c in v)
        cfg = config_from_v(v, 2, k=2)
    search = find_limit_cycles(eps, cfg, r_zeros, melnikov_zeros=r_zeros, order=1)
    ok = len(search.cycles) == 3 and all(
        abs(c.x_star - c.melnikov_zero) <= 5.0 * eps for c in search.cycles)
    lines = [f"{len(search.cycles)} limit cycles at eps={eps}; expected 3: {'PASS' if ok else 'FAIL'}"]
    lines += [f"  x*={c.x_star:.8f} zero={c.melnikov_zero:.8f} "
              f"|x*-zero|={abs(c.x_star - c.melnikov_zero):.2e} (<=5eps={5 * eps:.0e}) "
              f"deriv={c.derivative:.6f} {'stable' if c.stable else 'unstable'}"
              for c in search.cycles]
    lines.extend(search.diagnostics)
    artifacts = {"cycles": [c.to_dict() for c in search.cycles], "v": list(v),
                 "zeros_x": list(zeros), "zeros_r": r_zeros}
    return ok, lines, artifacts


# case name -> runner taking the seed, returning (ok, report lines, artifacts)
CASES = {
    "m1_n1": lambda seed: _case_m1_counts(seed, {1: 1}),
    "m1_n2": lambda seed: _case_m1_counts(seed, {2: 3}),
    "m1_odd": lambda seed: _case_m1_counts(seed, {3: 3, 5: 3}),
    "m1_even": lambda seed: _case_m1_counts(seed, {4: 4}),
    "m2_n3_structure": _case_m2_n3_structure,
    "prop4": lambda seed: _case_prop4(),
    "prop5_k2": lambda seed: _case_prop5(),
    "cycles_n2_l1": _case_cycles,
}


def cmd_reproduce(args) -> int:
    if args.case not in CASES:
        raise ConfigurationError(f"unknown case {args.case!r}; choose from {tuple(CASES)}")
    out = Path(args.out)
    _write_manifest(out, args)
    ok, lines, artifacts = CASES[args.case](args.seed)
    status = "PASS" if ok else "FAIL"
    report = {"case": args.case, "status": status, "lines": lines,
              "seed": args.seed, "artifacts": artifacts}
    write_json(out / f"{args.case}.json", report)
    print(f"[{status}] {args.case}")
    for line in lines:
        print("  " + line)
    return 0 if ok else 2


def _write_manifest(out: Path, args, **parsed):
    """Every parsed option of the command, with ``parsed`` (the interval and
    orders as read from their text) in place of the raw strings."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {key: value for key, value in vars(args).items() if key != "func"}
    write_json(out / "manifest.json",
               {**manifest, **parsed, "out_dir": str(out), "version": __version__})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melnlab",
        description="Melnikov analysis laboratory for piecewise-linear planar systems")
    parser.add_argument("--version", action="version", version=f"melnlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")

    p = sub.add_parser("melnikov", parents=[common],
                       help="tabulate Melnikov orders with a simulation oracle")
    p.add_argument("--config", required=True, help="JSON parameter file")
    p.add_argument("--orders", default="1", help="comma list, e.g. 1,2")
    p.add_argument("--interval", default="0.5:2", help="section interval A:B")
    p.add_argument("--grid", default="16log", help="N, Nlog or Nlin")
    p.set_defaults(func=cmd_melnikov)

    p = sub.add_parser("cheb", parents=[common], help="certify an ordered family")
    p.add_argument("--family", required=True, help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="pencil parameter (family H)")
    p.add_argument("--beta", type=float, default=None, help="pencil parameter (family H)")
    p.add_argument("--interval", default="0.1:10")
    p.set_defaults(func=cmd_cheb)

    p = sub.add_parser("reproduce", parents=[common], help="run a scripted scenario")
    p.add_argument("--case", required=True, help=f"one of {', '.join(CASES)}")
    p.set_defaults(func=cmd_reproduce)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: ``reproduce`` runs ``main`` once per case."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except MelnlabError as exc:
        print(f"numerical-quality failure: {exc}", file=sys.stderr)
        return 2

