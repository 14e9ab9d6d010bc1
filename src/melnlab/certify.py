"""Wronskian evaluation, zero isolation, and Chebyshev-system verdicts.

Zero counts are certified on compact subintervals of (0, infinity) by a
sign-change scan on an adaptive log-spaced grid with Brent refinement.
A reported count is a lower bound, and it is exhaustive exactly when the
report raised no flag: every flag names a way the count may fall short.
Family classification follows the Wronskian zero pattern: a non-exhaustive
report or a non-simple zero gives no verdict, no zeros anywhere gives an ECT
verdict, a single zero of the last Wronskian gives accuracy one, anything
else falls back to the general bound

    B = n + nu_n + nu_{n-1} + 2*(nu_{n-2} + ... + nu_0) + mu_{n-1} + ... + mu_3,
    mu_i = min(2*nu_i, nu_{i-3} + ... + nu_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisFunction, family
from .errors import DomainError
from .roots import brentq_rows

__all__ = [
    "ZeroRecord", "ZeroReport", "AccuracyVerdict", "wronskian", "wronskian_scaled",
    "scaled_wronskians", "isolate_zeros", "certify_family", "theorem3_bound", "prop4_witness",
    "prop5_witness", "Prop5Result",
]

SIMPLICITY_FLOOR = 1e-9
BISECT_RTOL = 1e-12
REFINE_ROUNDS = 3
# evaluation budgets of one family's zero isolation and of each witness
CERTIFY_BUDGET = 120_000
WITNESS_BUDGET = 400_000
PRECISE_DPS = 50
# Certificate for the double-precision determinant of an equilibrated
# Wronskian matrix A: rho = CERT_C * (s+1) * u * kappa bounds its relative
# error, where kappa = sum_ij |A_ij (A^-1)_ji| is the componentwise
# condition number of det (d log det / dA_ij = (A^-1)_ji).  Each entry
# carries a few ulps from the jet recursion and from the divisions by the
# equilibration factors, and LU with partial pivoting adds a backward error
# of order (s+1)*u per entry on a row- and column-equilibrated matrix;
# CERT_C = 16 covers both (the tests measure at most a third of rho on F1-F7,
# G, the H pencil and J0).  The eighth-derivative members of H8 break the
# entry assumption: their double jets lose up to ~2e-12 relative through
# cancelling Leibniz sums, so their accepted values can miss rho (by up to
# 8e-10 on a 64-point grid, all signs correct).  A cell is taken in
# double precision only when rho <= CERT_REL_MAX, ten times below AC08's
# 1e-9 tolerance; every other cell is recomputed at PRECISE_DPS digits.
CERT_C = 16.0
CERT_REL_MAX = 1e-10
# The bound of the sign tier: a zero count reads a scan cell only for its
# sign, which any relative error below 1 keeps (see _wronskian_logs).
SIGN_REL_MAX = 1e-2
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


# -- Wronskians ---------------------------------------------------------------


def _derivative_matrices(fams: list[BasisFunction], xs: np.ndarray, s: int) -> np.ndarray:
    """Point-last Wronskian stack, M[row, col, i] = d^row/dx^row fams[col] at xs[i]."""
    M = np.empty((s + 1, s + 1, len(xs)))
    for col, bf in enumerate(fams[: s + 1]):
        jet = bf.jet(xs, s)
        for row in range(s + 1):
            M[row, col] = jet.derivative(row)
    return M


def _precise_det(fams: list[BasisFunction], x: float, s: int):
    """W_s(x) as an mpmath number, entries and elimination at the current precision."""
    import mpmath

    xm = mpmath.mpf(x)
    jets = [bf.jet(xm, s) for bf in fams[: s + 1]]
    M = mpmath.matrix(s + 1, s + 1)
    for row in range(s + 1):
        for col in range(s + 1):
            M[row, col] = jets[col].derivative(row)
    try:
        return mpmath.det(M)
    except TypeError:
        # mpmath 1.3's LU_decomp finds no pivot in an exactly zero column
        # and then fails on the unset pivot index: the matrix is singular
        return mpmath.mpf(0)


def _precise_logdet(fams: list[BasisFunction], x: float, s: int) -> tuple[float, float]:
    """(sign, log|W_s(x)|) computed at PRECISE_DPS digits; (nan, nan) where that
    determinant is 0, which mpmath also returns for a matrix it finds numerically
    singular, so a zero there is unknown, not a zero of W_s."""
    import mpmath

    with mpmath.workdps(PRECISE_DPS):
        det = _precise_det(fams, x, s)
        if det == 0:
            return math.nan, math.nan
        return float(mpmath.sign(det)), float(mpmath.log(abs(det)))


def _equilibrate(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, r, c): A[..., k] ~ M[..., k] / (r[k] c[k]^T) for a point-last M, rows and
    columns of max-norm ~1; r and c are C-contiguous (K, n), as np.sum needs."""
    A = M.copy()
    absA = np.empty_like(A)
    r, c = np.ones((2, M.shape[2], len(M)))
    for _ in range(2):
        rn = np.max(np.abs(A, out=absA), axis=1)
        rn[rn == 0.0] = 1.0
        A /= rn[:, None, :]
        r *= rn.T
        cn = np.max(np.abs(A, out=absA), axis=0)
        cn[cn == 0.0] = 1.0
        A /= cn
        c *= cn.T
    return A, r, c


def _rho(A: np.ndarray, s: int) -> np.ndarray:
    """Relative error bound of each double det A of a (K, n, n) stack of nonsingular A,
    which is overwritten by |A|."""
    inv = np.linalg.inv(A)
    kappa = np.einsum("kij,kji->k", np.abs(A, out=A), np.abs(inv, out=inv))
    return CERT_C * (s + 1) * _UNIT_ROUNDOFF * kappa


def _rho_cofactor(A: np.ndarray, mag: np.ndarray, s: int) -> np.ndarray:
    """Upper bound on _rho from the rows of a point-last stack A and mag = log|det A|.

    (A^-1)_ji is the cofactor C_ij over det A, and Hadamard's inequality
    bounds |C_ij| by the product of the 2-norms of the rows other than a_i, so
    kappa <= (prod_k ||a_k||_2 / |det A|) * sum_i ||a_i||_1 / ||a_i||_2.  Each
    sum adds a short axis's slices in order: the same bits on every grid.
    """
    columns = A.swapaxes(0, 1)
    l1 = sum(np.abs(a) for a in columns)
    l2 = np.sqrt(sum(a * a for a in columns))
    hadamard = np.exp(sum(np.log(l2)) - mag)
    return CERT_C * (s + 1) * _UNIT_ROUNDOFF * hadamard * sum(l1 / l2)


def _has_subnormal(M: np.ndarray) -> np.ndarray:
    """Cells of a point-last matrix stack with an entry in the subnormal range."""
    return ((np.abs(M) < np.finfo(float).tiny) & (M != 0.0)).any(axis=(0, 1))


def _wronskian_logs(fams: list[BasisFunction], xs: np.ndarray, s: int, stack=None,
                    sign_only: bool = False):
    """Certified W_s on a grid: (sign, log|det A|, log|W_s|, cells recomputed).

    A is the equilibrated Wronskian matrix, so det A has the sign and zeros
    of W_s at magnitude ~1.  A cell whose derivative matrix holds a
    subnormal entry is unknown (NaN) at both tiers and is not recomputed: its
    entries are not accurate to a few ulps, so a noise sign could pass either
    bound.  A cell's double-precision determinant is taken when it is finite
    and meets its tier's bound; every other cell is recomputed by
    _precise_logdet, and the count returned covers both tiers.
    No per-cell matrix outlives the call.  ``stack`` may give
    _derivative_matrices(fams, xs, n) for an n >= s: a jet's coefficient m
    reads only coefficients <= m, so its leading (s+1)x(s+1) block is W_s's
    stack bit for bit.

    rho_H = _rho_cofactor is tried first; only the cells it does not clear
    pay for the inverse behind rho.  rho_H >= rho holds in exact arithmetic,
    and held on all 22,767 finite cells of the soundness tests' 17 families
    at 256 points.  rho_H is computed with the double det A', not the
    exact det A.  The true relative error delta = |det A' / det A - 1| is at
    most rho, so at most the exact-det rho_H, which is rho_H |det A'| /
    |det A| <= rho_H (1 + delta); hence delta <= rho_H / (1 - rho_H).  The
    value tier holds a cell to rho_H / (1 - rho_H) or else rho <=
    CERT_REL_MAX, which takes exactly the cells rho alone would.  With
    ``sign_only``, for a grid read for its signs, rho_H or rho <= SIGN_REL_MAX
    suffices (the sign tier): delta <= 1.011 SIGN_REL_MAX keeps the sign.  The
    cells within 2 SIGN_REL_MAX of the largest log|det A| (NaN cells aside)
    keep the value tier on such a grid, promoted until the largest is a
    value-tier cell.  log(1 + delta) stays below that margin, so the grid's
    largest |det A|, the scale of isolate_zeros, is bit for bit the value
    tier's.
    """
    if s >= len(fams):
        raise DomainError(f"family has {len(fams)} members; s={s} out of range")
    M = _derivative_matrices(fams, xs, s) if stack is None else stack[: s + 1, : s + 1]
    with np.errstate(all="ignore"):
        A, r, c = _equilibrate(M)
        logscale = np.sum(np.log(r), axis=1) + np.sum(np.log(c), axis=1)
        cells = A.transpose(2, 0, 1)
        sign, mag = np.linalg.slogdet(cells)
        unknown = _has_subnormal(M)
        sign[unknown] = mag[unknown] = np.nan
        logw = mag + logscale
        finite = np.isfinite(mag) & np.isfinite(logscale)
        loose = finite if sign_only else np.zeros(len(xs), dtype=bool)
        rho_h = _rho_cofactor(A, mag, s)
        cleared = finite & (rho_h <= CERT_REL_MAX * (1.0 - rho_h))
        certified = cleared | (loose & (rho_h <= SIGN_REL_MAX))
        rest = finite & ~certified
        if rest.any():
            certified[rest] = (_rho(cells[rest], s)
                               <= np.where(loose[rest], SIGN_REL_MAX, CERT_REL_MAX))

        def recompute(idx):
            for i in idx:
                sign[i], logw[i] = _precise_logdet(fams, float(xs[i]), s)
                mag[i] = logw[i] - logscale[i]
            return len(idx)

        recomputed = recompute(np.flatnonzero(~certified & ~unknown))
        pending = loose & certified & ~cleared
        while pending.any():
            top = np.flatnonzero(pending & (mag >= np.nanmax(mag) - 2 * SIGN_REL_MAX))
            if len(top) == 0:
                break
            pending[top] = False
            recomputed += recompute(top[_rho(cells[top], s) > CERT_REL_MAX])
    return sign, mag, logw, recomputed


def _on_grid(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def wronskian(fams: list[BasisFunction], x, s: int):
    """Wronskian W_s(x) of the first s+1 members; returns (value, well_scaled).

    ``x`` is a point or an array of points.  Values are certified (see
    _wronskian_logs); ``well_scaled`` is False only where the value overflows
    or underflows a double, or is NaN (a 50-digit determinant of 0, unknown).
    """
    sign, _, logw, _ = _wronskian_logs(fams, _on_grid(x), s)
    well = (sign == 0.0) | (np.abs(logw) < 700.0)
    with np.errstate(over="ignore"):
        value = sign * np.exp(logw)
    if np.ndim(x):
        return value, well
    return float(value[0]), bool(well[0])


def wronskian_scaled(fams: list[BasisFunction], x, s: int):
    """Equilibrated determinant: same zeros and sign as W_s, magnitude ~1.

    ``x`` is a point or an array of points.
    """
    return _scaled_wronskian(fams, x, s)[0]


def scaled_wronskians(fams: list[BasisFunction], xs) -> list[np.ndarray]:
    """``wronskian_scaled(fams, xs, s)`` on the grid ``xs`` for every s, bit for
    bit: one stack of derivative matrices, whose leading blocks every W_s reads."""
    xs = _on_grid(xs)
    stack = _derivative_matrices(fams, xs, len(fams) - 1)
    return [_scaled_wronskian(fams, xs, s, stack)[0] for s in range(len(fams))]


def _scaled_wronskian(fams: list[BasisFunction], x, s: int, stack=None,
                      sign_only: bool = False):
    """(wronskian_scaled(fams, x, s), number of cells recomputed at PRECISE_DPS)."""
    sign, mag, _, recomputed = _wronskian_logs(fams, _on_grid(x), s, stack, sign_only)
    value = sign * np.exp(np.clip(mag, -300.0, 300.0))
    return (value if np.ndim(x) else float(value[0])), recomputed


# -- zero isolation --------------------------------------------------------------


@dataclass(frozen=True)
class ZeroRecord:
    location: float
    simple: bool
    bracket: tuple[float, float]
    residual: float
    derivative: float


@dataclass(frozen=True)
class ZeroReport:
    """Isolated zeros on [a, b] with a reproducible refinement ledger."""

    interval: tuple[float, float]
    zeros: tuple[ZeroRecord, ...]
    exhaustive: bool
    budget_used: int
    budget: int
    grid_rounds: tuple[int, ...]
    scale: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def count(self) -> int:
        return len(self.zeros)

    @property
    def simple_count(self) -> int:
        return sum(1 for z in self.zeros if z.simple)

    def to_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "zeros": [
                {"location": z.location, "simple": z.simple,
                 "bracket": list(z.bracket), "residual": z.residual,
                 "derivative": z.derivative}
                for z in self.zeros
            ],
            "exhaustive": self.exhaustive,
            "budget_used": self.budget_used,
            "budget": self.budget,
            "grid_rounds": list(self.grid_rounds),
            "scale": self.scale,
            "flags": list(self.flags),
        }


def isolate_zeros(f, a: float, b: float, *, budget: int = 200_000,
                  initial: int = 4096) -> ZeroReport:
    """Sign-change scan with local refinement, Brent's method, and simplicity check.

    Needs ``0 < a < b`` (the scan grid is log-spaced) and a vectorized ``f``:
    it is only ever called on a 1-D float array and must return an array of
    the same shape (a result of another shape is a DomainError).  Brent's
    method refines the K brackets together: one call on their 2K ends, one
    per iteration on those still running, then one 3K-point call (x - h, the
    zeros, x + h) for slopes and residuals; ``budget_used`` counts the points
    ``f`` received.  Refinement stops, flagged, before a call that would pass
    ``budget``; brackets done by then keep their zeros, in bracket order, as
    far as their slope points fit.  A bracket whose ends do not repeat the
    scan's sign change is skipped and flagged.  The count is a lower bound,
    and ``exhaustive`` holds exactly when no flag was raised: f stayed finite
    on the scan and refinement grids (else ``non-finite-values``), every
    bracket and every budget held, and every V-dip of |f| below its
    neighbours that no refinement round resolved lies next to a bracket (else
    ``unresolved-dip-without-sign-change``); ``scale`` is the largest finite
    |f| on the scan.
    """
    if not (0 < a < b):
        raise DomainError(f"need 0 < a < b, got [{a}, {b}]")
    flags: list[str] = []
    used = 0
    rounds: list[int] = []

    def feval(xs: np.ndarray) -> np.ndarray:
        nonlocal used
        used += len(xs)
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise DomainError(f"f maps {xs.shape} points to shape {vals.shape}; "
                              "it must be vectorized")
        return vals

    xs = np.geomspace(a, b, min(initial, max(budget // 2, 16)))
    ys = feval(xs)
    rounds.append(len(xs))
    scale = float(np.max(np.abs(ys), initial=0.0, where=np.isfinite(ys)))
    if scale == 0.0:
        flags.append("identically-zero-on-grid" if np.isfinite(ys).all() else "non-finite-values")
        return ZeroReport((a, b), (), exhaustive=not flags, budget_used=used,
                          budget=budget, grid_rounds=tuple(rounds), scale=0.0, flags=tuple(flags))

    def suspicious_cells(yv):
        """Cells with a V-dip well below their ambient neighbors, no sign change."""
        ay = np.abs(yv)
        inner = np.minimum(ay[:-1], ay[1:])
        left = np.concatenate([[ay[0]], ay[:-1]])[:-1]
        right = np.concatenate([ay[2:], [ay[-1]]])
        outer = np.minimum(left, right)
        no_change = np.sign(yv[:-1]) == np.sign(yv[1:])
        return np.where(no_change & (inner <= 0.15 * outer) & (outer > 0))[0]

    refine_budget = budget // 3
    unresolved = np.array([], dtype=int)
    for _ in range(REFINE_ROUNDS):
        if used >= refine_budget:
            flags.append("refinement-budget-exhausted")
            break
        suspicious = suspicious_cells(ys)
        unresolved = suspicious
        if used + 4 * len(suspicious) > refine_budget:
            suspicious = suspicious[: max((refine_budget - used) // 4, 0)]
            flags.append("refinement-truncated-by-budget")
        if len(suspicious) == 0:
            break
        # deduplicated by a set: np.unique imports numpy.ma on its first call (~8 ms, ~1 MB)
        cells = np.linspace(xs[suspicious], xs[suspicious + 1], 6, axis=-1)[:, 1:-1]
        new_xs = np.array(sorted(set(cells.ravel().tolist())))
        new_ys = feval(new_xs)
        rounds.append(len(new_xs))
        xs = np.concatenate([xs, new_xs])
        order = np.argsort(xs)
        xs = xs[order]
        ys = np.concatenate([ys, new_ys])[order]
    else:
        unresolved = suspicious_cells(ys)

    sign_change = np.where(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]
    lo, hi = xs[sign_change], xs[sign_change + 1]
    # absolute 1e-15 above 1e-3, relative below, so that brackets near
    # tiny zeros are still refined; the floor keeps xtol positive
    xtol = np.maximum(np.minimum(1e-15, BISECT_RTOL * np.maximum(np.abs(lo), np.abs(hi))),
                      math.ulp(0.0))
    roots, failed = brentq_rows(lambda x: feval(x) if used + len(x) <= budget else None,
                                lo, hi, xtol=xtol, rtol=BISECT_RTOL)
    flags += ["bracket-end-not-reproducible"] * int(np.count_nonzero(failed))
    fits = np.flatnonzero(~np.isnan(roots))[: (budget - used) // 3]
    if len(fits) < len(roots) - np.count_nonzero(failed):
        flags.append("budget-exhausted-during-bisection")
    root, lo, hi, idx = roots[fits], lo[fits], hi[fits], sign_change[fits]
    # central difference, cut at the bracket ends: f may be undefined beyond
    h = np.maximum(np.abs(root), 1.0) * 1e-6
    x_minus, x_plus = np.maximum(root - h, lo), np.minimum(root + h, hi)
    width = np.where((x_minus == root - h) & (x_plus == root + h), 2.0 * h, x_plus - x_minus)
    f_minus, f_root, f_plus = (feval(np.concatenate([x_minus, root, x_plus])).reshape(3, -1)
                               if len(fits) else np.zeros((3, 0)))
    deriv = (f_plus - f_minus) / width
    bracket_mag = np.maximum(np.abs(ys[idx]), np.abs(ys[idx + 1]))
    # absolute floor for order-one scales; the secant comparison rescues
    # honestly transversal zeros of tiny-magnitude (rescaled) functions,
    # while higher-multiplicity zeros fail both
    simple = ((np.abs(deriv) >= SIMPLICITY_FLOOR * np.maximum(1.0, bracket_mag))
              | (np.abs(deriv) >= 1e-3 * (bracket_mag / np.maximum(hi - lo, 1e-300))))
    zeros = sorted(map(ZeroRecord, root.tolist(), simple.tolist(), zip(lo.tolist(), hi.tolist()),
                       np.abs(f_root).tolist(), deriv.tolist()), key=lambda z: z.location)

    # a dip away from every bracket may hide a pair of zeros
    if set(unresolved.tolist()) - {i + d for i in sign_change.tolist() for d in (-1, 0, 1)}:
        flags.append("unresolved-dip-without-sign-change")
    if not np.isfinite(ys).all():
        flags.append("non-finite-values")
    return ZeroReport((a, b), tuple(zeros), exhaustive=not flags, budget_used=used,
                      budget=budget, grid_rounds=tuple(rounds), scale=scale,
                      flags=tuple(flags))


# -- classification ----------------------------------------------------------------


def theorem3_bound(nu: list[int]) -> int:
    """Zero-count bound from the Wronskian zero counts nu_0..nu_n."""
    n = len(nu) - 1
    total = n + nu[n] + (nu[n - 1] if n >= 1 else 0) + 2 * sum(nu[: max(n - 1, 0)])
    for i in range(3, n):
        total += min(2 * nu[i], sum(nu[: i - 2]))
    return total


@dataclass(frozen=True)
class AccuracyVerdict:
    """Result of certifying one ordered family on a compact interval."""

    family_name: str
    interval: tuple[float, float]
    nu: tuple[int, ...]
    classification: str        # 'ECT' | 'ET-accuracy-1' | 'theorem-3-bound' | 'inconclusive'
    zero_bound: int | None
    exhaustive: bool
    # per s, the cells whose Wronskian needed extended precision
    fallbacks: tuple[int, ...] = field(default_factory=tuple)
    reports: tuple[ZeroReport, ...] = field(default_factory=tuple, repr=False)
    # why no Wronskian was computed (two members are the same power of x)
    note: str | None = None

    def to_dict(self) -> dict:
        out = {
            "family": self.family_name,
            "interval": list(self.interval),
            "nu": list(self.nu),
            "classification": self.classification,
            "zero_bound": self.zero_bound,
            "exhaustive": self.exhaustive,
            "fallbacks": list(self.fallbacks),
            "wronskian_reports": [r.to_dict() for r in self.reports],
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def certify_family(fams: list[BasisFunction], a: float, b: float, *,
                   name: str = "family") -> AccuracyVerdict:
    """Count zeros of every prefix Wronskian on [a, b] and classify.

    Verdicts are never guessed: a report that is not exhaustive, or a zero
    that is not simple, makes the classification 'inconclusive'.  A family with two
    members that are the same power of x ends 'inconclusive' at once, with a
    ``note`` that names them: every W_s from the second on vanishes
    identically.
    """
    if not (0.0 < a < b < math.inf):
        raise DomainError(f"certification interval must satisfy 0 < a < b < inf, got [{a}, {b}]")
    powers = [bf._power for bf in fams]
    for j, p in enumerate(powers):
        if p is not None and p in powers[:j]:
            note = (f"{fams[powers.index(p)].label} and {fams[j].label} are both x^{p}, "
                    "so the family is linearly dependent")
            return AccuracyVerdict(family_name=name, interval=(a, b), nu=(),
                                   classification="inconclusive", zero_bound=None,
                                   exhaustive=False, note=note)
    n = len(fams) - 1
    reports: list[ZeroReport] = []
    fallbacks = [0] * (n + 1)
    # every s scans the same grid, the first array ws receives: its
    # derivative matrices are built once, at order n, W_s reads their leading
    # blocks, and the scan reads its cells for their signs (the sign tier of
    # _wronskian_logs); refinement grids, Brent's calls on the brackets and
    # the slope call build their own at the value tier, and every point of
    # every array counts in the report's budget_used
    grid = stack = None
    for s in range(n + 1):
        def ws(x, _s=s):
            nonlocal grid, stack
            if stack is None:
                grid, stack = x, _derivative_matrices(fams, x, n)
            on_grid = np.shape(x) == grid.shape and np.array_equal(x, grid)
            vals, recomputed = _scaled_wronskian(fams, x, _s, stack if on_grid else None,
                                                 sign_only=on_grid)
            fallbacks[_s] += recomputed
            return vals

        reports.append(isolate_zeros(ws, a, b, budget=CERTIFY_BUDGET, initial=2048))

    nu = [rep.count for rep in reports]
    exhaustive = all(rep.exhaustive for rep in reports)
    if not exhaustive or any(rep.simple_count < rep.count for rep in reports):
        cls, bound = "inconclusive", None
    elif not any(nu):
        cls, bound = "ECT", n
    elif not any(nu[:-1]) and nu[-1] == 1:
        cls, bound = "ET-accuracy-1", n + 1
    else:
        cls, bound = "theorem-3-bound", theorem3_bound(nu)
    return AccuracyVerdict(family_name=name, interval=(a, b), nu=tuple(nu),
                           classification=cls, zero_bound=bound,
                           exhaustive=exhaustive, fallbacks=tuple(fallbacks),
                           reports=tuple(reports))


# -- witnesses for the two span lower bounds ---------------------------------------


PROP4_COEFFS = (
    -29.674872845038724,
    -88.998921871,
    1.777150602939737,
    -2.0194231196937788e-05,
    0.5926213398946085,
    3.18899089714221e-08,
)
PROP4_WINDOW = (1e-6, 50.0)


def prop4_witness() -> ZeroReport:
    """Zeros on PROP4_WINDOW of the printed 8-zero element of F7^{1,2} at x^2,
    with the printed coefficients PROP4_COEFFS as they stand (never retuned)."""
    fams = family("F7", 1, lam=2.0)
    g = BasisFunction.combine((1.0, *PROP4_COEFFS), (fams[6], *fams[:6]),
                              label="prop4").substituted_power(2)
    return isolate_zeros(g, *PROP4_WINDOW, budget=WITNESS_BUDGET, initial=8192)


@dataclass(frozen=True)
class Prop5Result:
    coefficients: tuple[float, ...]          # (a0, a1, a2, a3, a4)
    sign_ladder: dict
    stage1_report: ZeroReport
    report: ZeroReport

    @property
    def count(self) -> int:
        return self.report.simple_count

    @property
    def succeeded(self) -> bool:
        return self.count >= 9


def _f7_polynomials(k: int) -> list[np.ndarray]:
    """Coefficient arrays (lowest power first) of the members of F7^{k,1} at x^(2k).

    Each generator is evaluated on the polynomial variable y = x^(2k), whose
    powers y^e (basis._pow passes a fractional e as a float) are the monomials
    x^(2k e); a power of any other polynomial is numpy's, which takes only
    integer exponents.  Every coefficient is an integer below 2**53, so each
    array is exact.
    """
    from numpy.polynomial import Polynomial

    class Variable(Polynomial):
        def __pow__(self, e):
            deg = (len(self.coef) - 1) * e
            if (abs(deg - round(deg)) < 1e-9 and self.coef[-1] == 1.0
                    and not self.coef[:-1].any()):
                return self.basis(round(deg))
            return super().__pow__(e)

    y = Variable.basis(2 * k)
    return [bf(y).coef for bf in family("F7", k, lam=1.0)]


def _g_poly_coeffs(k: int, polys: list[np.ndarray], a: tuple[float, ...]) -> np.ndarray:
    """Polynomial coefficients of g_k(x; a) = f(x^(2k); a), degree 16k+3, from
    ``polys = _f7_polynomials(k)``.

    The a-combination follows the two-stage witness construction: the free
    vector a = (a0..a4) enters affinely.
    """
    a0, a1, a2, a3, a4 = a
    w19 = (1 + 2 * k) * (a0 - 4.0 * (1 + k))
    w20 = (-3.0 * a3 + a1 * (1 + 2 * k)) * (1 + 2 * k)
    w18 = -4.0 * (1 + k)
    w21 = a2
    w22 = -2.0 * a3 + a1 * (1 + 2 * k)
    w23 = a4
    acc = np.zeros(16 * k + 4)
    for wgt, p in zip((w18, w19, w20, w21, w22, w23, 1.0), polys):
        acc[: len(p)] += wgt * p
    return acc


# scale of stage two's ladder: its largest target y
PROP5_SCALE = 0.3


def prop5_witness(k: int = 2) -> Prop5Result:
    """Two-stage witness: 4 zeros of g_k(x;0) in (0,2) plus 5 near infinity.

    Stage two solves the affine system h_k(y_m; a) = 0 at a geometric ladder
    of small y targets, the largest PROP5_SCALE, for the five free
    coefficients, then counts the simple zeros of g_k; it succeeds at nine.
    """
    if k < 2:
        raise DomainError("the staged witness applies for k >= 2")
    from numpy.polynomial import polynomial as P

    polys = _f7_polynomials(k)
    zero_a = (0.0,) * 5
    g0 = _g_poly_coeffs(k, polys, zero_a)
    gfun0 = lambda x: P.polyval(np.asarray(x, dtype=float), g0)
    dg0 = P.polyder(g0)
    ladder = {
        "g(0)": float(g0[0]),
        "g(1/2)": float(P.polyval(0.5, g0)),
        "g(1)": float(P.polyval(1.0, g0)),
        "gprime(1)": float(P.polyval(1.0, dg0)),
        "g(2)": float(P.polyval(2.0, g0)),
    }
    stage1 = isolate_zeros(gfun0, 1e-9, 2.0, budget=WITNESS_BUDGET, initial=8192)

    # affine pieces h(y; a) = h0(y) + sum a_i * h_i(y), via reversed coefficients
    def h_coeffs(a):
        return _g_poly_coeffs(k, polys, a)[::-1]

    h0 = h_coeffs(zero_a)
    hparts = [h_coeffs(tuple(1.0 if i == j else 0.0 for i in range(5))) - h0
              for j in range(5)]
    ys = PROP5_SCALE * (0.33 ** np.arange(5))[::-1]  # ascending small targets
    A = np.array([[P.polyval(ym, hp) for hp in hparts] for ym in ys])
    rhs = -np.array([P.polyval(ym, h0) for ym in ys])
    avec = np.linalg.solve(A, rhs)
    gc = _g_poly_coeffs(k, polys, tuple(avec))
    gfun = lambda x: P.polyval(np.asarray(x, dtype=float), gc)
    rep = isolate_zeros(gfun, 1e-9, 2.0 / float(ys[0]), budget=WITNESS_BUDGET, initial=16384)
    return Prop5Result(coefficients=tuple(float(v) for v in avec), sign_ladder=ladder,
                       stage1_report=stage1, report=rep)
