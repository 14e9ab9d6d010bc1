"""First-order closed forms, the x <-> r change of variables, and span fits.

The first-order Melnikov function reduces to a three-term (odd degree) or
four-term (even degree) combination whose coefficients are affine in the
order-1 perturbation coefficients.  In the transformed variable
x = r*cos(theta1(r)) the numerators live in fixed ordered function families;
higher orders are fitted numerically onto the corresponding spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import family, u
from .certify import isolate_zeros
from .config import OrderCoefficients, SystemConfig
from .errors import ConfigurationError, DomainError, NumericalError
from .geometry import switching_angles
from .recursion import melnikov_all
from .simulate import center_event_times, extract_melnikov

__all__ = [
    "SpanFit", "v_coefficients", "config_from_v", "m1_closed", "cov_r_of_x",
    "q_values", "q_denominator", "structural_span", "fit_to_span",
    "sign_pattern_search", "q_basis", "v_map_matrix", "first_order_image",
    "v_zero_coefficients", "vanishing_order_config", "table3_structure_config",
]


def v_coefficients(config: SystemConfig) -> tuple[float, ...]:
    """Reduced coefficients of the first perturbation order: (v_0, v_1, v_2)
    for odd n, (v_0, .., v_3) for even n.  The only written-out copy of the
    map; ``v_map_matrix`` is built from it."""
    oc = config.order(1)
    a0, a1, _ = oc.a
    b0, _, b2 = oc.b
    al0, al1, _ = oc.alpha
    be0, _, be2 = oc.beta
    s = a1 + al1 + b2 + be2
    if config.n % 2 == 1:
        return (4.0 * (be0 - b0), -math.pi * s, 4.0 * (a0 - al0))
    return (-0.5 * math.pi * s, a1 - al1 - b2 + be2, a1 - al1 + b2 - be2, 2.0 * (be0 - b0))


def config_from_v(v, n: int, k: int = 1) -> SystemConfig:
    """A config realizing the reduced coefficients at order 1 (closed form)."""
    if len(v) != len(q_basis(n)):
        raise ConfigurationError(f"n = {n} needs {len(q_basis(n))} reduced coefficients")
    if n % 2 == 1:
        v0, v1, v2 = v
        oc = OrderCoefficients(a=(v2 / 4.0, -v1 / math.pi, 0.0),
                               beta=(v0 / 4.0, 0.0, 0.0))
    else:
        v0, v1, v2, v3 = v
        a1 = 0.5 * (v1 + v2)
        half_diff = 0.5 * (v2 - v1)              # b2 - beta2
        half_sum = -2.0 * v0 / math.pi - a1      # b2 + beta2
        b2 = 0.5 * (half_sum + half_diff)
        be2 = 0.5 * (half_sum - half_diff)
        oc = OrderCoefficients(a=(0.0, a1, 0.0), b=(0.0, 0.0, b2),
                               beta=(v3 / 2.0, 0.0, be2))
    orders = (oc,) + tuple(OrderCoefficients() for _ in range(k - 1))
    return SystemConfig(n=n, k=k, orders=orders)


def _m1_weight(n: int) -> float:
    """M_1 = _m1_weight(n) * first_order_image(n, rs) @ v_coefficients."""
    return 0.5 if n % 2 == 1 else 1.0


def m1_closed(config: SystemConfig, r: float) -> float:
    """First-order Melnikov function in the section coordinate r."""
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    row = first_order_image(config.n, [r])[0]
    return float(_m1_weight(config.n) * sum(c * b for c, b in zip(v_coefficients(config), row)))


def cov_r_of_x(x: float, n: int) -> float:
    """r = sqrt(x^2 + x^(2n)), the inverse of ``geometry.crossing_abscissa``."""
    if x <= 0.0:
        raise DomainError(f"abscissa must be positive, got {x}")
    return math.sqrt(x * x + x ** (2 * n))


def q_denominator(x, n: int):
    """Positive denominator relating M_1 to its polynomial numerator."""
    x = np.asarray(x, dtype=float)
    if n % 2 == 1:
        k = (n - 1) // 2
        out = 2.0 * np.sqrt(x ** (4 * k) + 1.0)
    else:
        k = n // 2
        out = np.sqrt(x * x + x ** (4 * k))
    return out if out.ndim else float(out)


def q_values(v, n: int, xs) -> np.ndarray:
    """Numerator q_1^k (odd n) or q_2^k (even n) of the reduced coefficients
    ``v``, as an array over the transformed variable(s) ``xs``;
    M_1 = q / q_denominator."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return sum(c * g(xs) for c, g in zip(v, q_basis(n)))


# -- structural spans of the higher orders -------------------------------------


@dataclass(frozen=True)
class SpanFit:
    """Least-squares fit of a numerator onto a declared ordered family."""

    family_name: str
    coefficients: tuple[float, ...]
    residual: float           # relative L2 over the sample grid
    condition_number: float
    fitted: tuple[float, ...]  # the fitted M_ell at each sample


def structural_span(n: int, ell: int):
    """Declared basis family and denominator for M_ell with degree n.

    Returns (family_name, [BasisFunction...], denominator  callable).
    Order 1 uses the square-root denominators from the closed forms; orders
    two and up use the rational denominators of the structure table.  For odd
    n at order 6 the divided form (lam-family over x^2*(...)^2) is selected
    with ``lam`` = 2 for k = 1 and 1 for k > 1.
    """
    if n % 2 == 0:
        k = n // 2
        if ell == 1:
            name = f"F2^{k}"
            fam = family("F2", k)
            den = lambda x: q_denominator(x, n)
        elif n == 2:
            name = "F3^1"
            fam = family("F3", 1)
            den = lambda x: (1.0 + 2.0 * np.asarray(x) ** 2) ** 2
        else:
            name = f"F6^{k}"
            fam = family("F6", k)
            den = lambda x: (1.0 + 2.0 * k * np.asarray(x) ** (4 * k - 2)) ** 2
        return name, fam, den
    k = (n - 1) // 2
    if ell == 1:
        return f"F1^{k}", family("F1", k), (lambda x: q_denominator(x, n))
    if ell <= 5 or k == 0:
        name = f"F5^{k}"
        fam = family("F5", k)
    else:
        lam = 2.0 if k == 1 else 1.0
        name = f"F7^{k},{lam}"
        base = family("F7", k, lam=lam)
        fam = [bf.substituted_power(2 * k) for bf in base]
        den = lambda x: (np.asarray(x) ** 2
                         * (1.0 + (1 + 2 * k) * np.asarray(x) ** (4 * k)) ** 2)
        return name, fam, den
    den = lambda x: (1.0 + (1 + 2 * k) * np.asarray(x) ** (4 * k)) ** 2
    return name, fam, den


def fit_to_span(samples, n: int, ell: int) -> SpanFit:
    """Fit numerator values M_ell(x)*denominator(x) onto the declared span.

    ``samples`` is a sequence of (x, M_ell(x)) pairs with x the transformed
    variable.  Requires at least three samples per basis function; the
    relative residual is reported, never thresholded.
    """
    xs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    name, fam, den = structural_span(n, ell)
    if len(xs) < 3 * len(fam):
        raise ConfigurationError(
            f"need at least {3 * len(fam)} samples for {len(fam)} basis functions, got {len(xs)}")
    denv = den(xs)
    target = ys * denv
    design = np.column_stack([bf(xs) for bf in fam])
    coeff, _, _, svals = np.linalg.lstsq(design, target, rcond=None)
    resid = design @ coeff - target
    scale = np.linalg.norm(target)
    rel = float(np.linalg.norm(resid) / scale) if scale > 0 else 0.0
    if scale == 0.0:
        coeff = np.zeros(len(fam))
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    return SpanFit(
        family_name=name,
        coefficients=tuple(float(c) for c in coeff),
        residual=rel,
        condition_number=cond,
        fitted=tuple(((design @ coeff) / denv).tolist()),
    )


# -- parameter searches ---------------------------------------------------------


def q_basis(n: int) -> list:
    """Ordered numerator basis matching the layout of ``v_coefficients``."""
    if n % 2 == 1:
        k = (n - 1) // 2
        return [u(1, k), u(12, k), u(4, k)]
    k = n // 2
    return [u(13, k), u(5, k), u(15, k), u(2, k)]


# sign_pattern_search draws its targets from SEARCH_INTERVAL, SEARCH_TRIALS times
SEARCH_INTERVAL = (0.05, 3.0)
SEARCH_TRIALS = 600


def sign_pattern_search(n: int, zero_count: int, *, seed: int = 0):
    """Search reduced coefficients whose q-polynomial has ``zero_count`` zeros.

    Targets alternating signs at zero_count+1 log-uniform interlaced points
    (scaled by the local basis magnitude so the least-squares problem is
    balanced), then confirms the count by zero isolation.  Returns
    (reduced coefficients, zero locations) or None when the trial budget runs out.
    """
    rng = np.random.default_rng(seed)
    funcs = q_basis(n)
    a, b = SEARCH_INTERVAL
    npts = zero_count + 1
    signs = np.array([(-1.0) ** m for m in range(npts)])

    # one draw for all trials reads the same stream as one draw per trial
    pts = np.sort(np.exp(rng.uniform(math.log(a), math.log(b), size=(SEARCH_TRIALS, npts))),
                  axis=1)
    pts = pts[np.min(np.diff(np.log(pts), axis=1), axis=1) >= 0.05]
    designs = np.stack([g(pts.ravel()).reshape(pts.shape) for g in funcs], axis=-1)
    for design in designs:
        targets = signs * np.linalg.norm(design, axis=1)
        vv, *_ = np.linalg.lstsq(design, targets, rcond=None)
        if np.any(np.sign(design @ vv) != signs):
            continue
        report = isolate_zeros(lambda x: q_values(vv, n, x), a / 4.0, b * 4.0,
                               budget=40_000, initial=2048)
        if report.count == report.simple_count == zero_count:
            return tuple(float(c) for c in vv), tuple(z.location for z in report.zeros)
    return None


def v_map_matrix(n: int) -> np.ndarray:
    """Reduced coefficients as a linear map of the 12 order coefficients:
    ``v_coefficients`` applied to the unit blocks.  ``+ 0.0`` turns the
    ``-pi * 0`` entries into +0: the SVD's last bits depend on zero signs.

    Coefficient layout: [a0,a1,a2, b0,b1,b2, alpha0,alpha1,alpha2,
    beta0,beta1,beta2].
    """
    columns = [v_coefficients(SystemConfig(n=n, k=1, orders=(_oc_from_vec(e),)))
               for e in np.eye(12)]
    return np.array(columns).T + 0.0


def _oc_from_vec(v) -> OrderCoefficients:
    return OrderCoefficients(a=tuple(v[:3]), b=tuple(v[3:6]),
                             alpha=tuple(v[6:9]), beta=tuple(v[9:12]))


def first_order_image(n: int, rs) -> np.ndarray:
    """Design matrix of the functions reachable by a first-order average, one
    column per reduced coefficient."""
    rs = np.asarray(rs, dtype=float)
    theta1 = np.array([switching_angles(r, n)[0] for r in rs])
    if n % 2 == 1:
        return np.column_stack([np.cos(theta1), rs, np.sin(theta1)])
    return np.column_stack([rs, rs * np.sin(theta1) * np.cos(theta1),
                            rs * theta1, np.cos(theta1)])


def _v_kernel(n: int) -> np.ndarray:
    """Orthonormal basis of the kernel of ``v_map_matrix(n)``, one row per
    direction: the order blocks whose M_1 vanishes."""
    V = v_map_matrix(n)
    return np.linalg.svd(V)[2][V.shape[0]:]


def v_zero_coefficients(n: int, rng: np.random.Generator) -> OrderCoefficients:
    """Random coefficient block in the kernel of the reduced-coefficient map."""
    null = _v_kernel(n)
    vec = null.T @ rng.standard_normal(null.shape[0])
    vec *= 1.0 / max(np.max(np.abs(vec)), 1e-12)
    return _oc_from_vec(vec)


def _cancelling_block(n: int, coef) -> OrderCoefficients:
    """Order block whose M_1 is ``-first_order_image(n, rs) @ coef``."""
    return config_from_v(-np.asarray(coef) / _m1_weight(n), n).order(1)


def _m2_on_grid(n: int, rs: np.ndarray):
    """``m2(c1vec, c2)``: M_2 on the grid ``rs`` of the degree-n config with
    order-1 block ``c1vec`` (12 numbers) and order-2 block ``c2``, from eps =
    0 event times computed once.  A ``(B, 12)`` stack of order-1 blocks gives
    the ``(B, len(rs))`` values of all B configs from one eps-jet pass."""
    times = center_event_times(rs, n)

    def m2(c1vec, c2: OrderCoefficients = OrderCoefficients()) -> np.ndarray:
        cfgs = [SystemConfig(n=n, k=2, orders=(_oc_from_vec(v), c2)) for v in np.atleast_2d(c1vec)]
        return extract_melnikov(rs, 2, cfgs if np.ndim(c1vec) == 2 else cfgs[0], times).values[1]

    return m2


def _polarized_second_order(m2, null: np.ndarray) -> np.ndarray:
    """Grid values of M_2 polarized over a basis of v-kernel directions.

    M_2 is quadratic in the order-1 block, so sampling it at the d basis
    directions and their d(d-1)/2 pairwise sums determines the full quadratic
    form; ``G[i, j, g]`` reconstructs M_2 at grid point g for any kernel
    vector.  ``m2`` takes the ``(d + d(d-1)/2, 12)`` stack of all those
    directions at once and returns one row of grid values per direction.
    """
    d = null.shape[0]
    i, j = np.triu_indices(d, 1)
    rows = m2(np.concatenate([null, null[i] + null[j]]))
    diag = rows[:d]
    G = np.zeros((d, d, rows.shape[1]))
    G[np.arange(d), np.arange(d)] = diag
    G[i, j] = G[j, i] = 0.5 * (rows[d:] - diag[i] - diag[j])
    return G


def _kernel_residual(G: np.ndarray, proj_rows: np.ndarray):
    """Residual ``c -> (proj_rows @ M_2(c), c.c - 1)`` of the kernel search and
    its exact Jacobian ``(2 proj_rows (G c)^T, 2 c)``, with ``M_2(c) = c G c``."""

    def fun(c):
        return np.concatenate([proj_rows @ np.einsum("i,j,ijg->g", c, c, G), [c @ c - 1.0]])

    def jac(c):
        return np.vstack([2.0 * proj_rows @ np.einsum("j,ijg->gi", c, G), 2.0 * c])

    return fun, jac


# Levenberg-Marquardt steps per start.  Mostly the order-3 search runs LM: its
# random starts lie far above its tol, while almost every structure-search
# start is already under its own.  Near an order-3 solution, where J has two
# singular values near 1e-16, convergence is only linear: a start takes a few
# hundred residual evaluations (100-680 at n = 3 and 5, seeds 0-3 and 2024,
# but for one start that spends the cap).
LM_MAX_STEPS = 1000
# Stop when the last LM_STALL_WINDOW steps cut |f| by less than 1 - LM_STALL_RATIO,
# so a start that levels off above tol does not spend the cap.
LM_STALL_WINDOW = 100
LM_STALL_RATIO = 0.9


def _levenberg_marquardt(fun, jac, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares minimizer ``(x, fun(x))`` of ``|fun|`` from ``x``.

    Each damped step solves ``lstsq([J; sqrt(mu) I], [-f; 0])`` as in Moré
    (1978), never the normal equations, whose squared condition number loses
    the small singular values of J near the kernel solutions.  The damping
    ``mu`` follows Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff 2004).
    """
    f = fun(x)
    cost = float(f @ f)
    J = jac(x)
    mu = 1e-3 * float(np.max(np.sum(J * J, axis=0)))
    nu = 2.0
    eye, zeros = np.eye(len(x)), np.zeros(len(x))
    norms = [math.sqrt(cost)]
    for _ in range(LM_MAX_STEPS):
        step = np.linalg.lstsq(np.vstack([J, math.sqrt(mu) * eye]),
                               np.concatenate([-f, zeros]), rcond=None)[0]
        Jh = J @ step
        predicted = -float(Jh @ (2.0 * f + Jh))
        x_new = x + step
        f_new = fun(x_new)
        cost_new = float(f_new @ f_new)
        rho = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
        if rho > 0.0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        norms.append(math.sqrt(cost))
        if cost == 0.0 or mu > 1e300:     # exact zero, or no step is accepted any more
            break
        if (len(norms) > LM_STALL_WINDOW
                and norms[-1] > LM_STALL_RATIO * norms[-1 - LM_STALL_WINDOW]):
            break
    return x, f


def _kernel_quadratic_search(n: int, proj_rows: np.ndarray, m2,
                             rng: np.random.Generator, starts: int, accept, *,
                             tol: float = 1e-11,
                             scale_rows: np.ndarray | None = None) -> SystemConfig | None:
    """Drive the order-1 kernel vector into the kernel of a projected quadratic.

    ``proj_rows @ m2(c1)`` is the residual to kill; ``accept(c1vec)``
    performs the final nondegeneracy screen and builds the config.  When
    ``scale_rows`` is given, acceptance compares the residual against
    ``scale_rows @ m2(c1)`` instead of taking it absolutely.  A random start
    whose residual is already under ``tol`` goes to ``accept`` as it is;
    the others run Levenberg-Marquardt first.
    """
    null = _v_kernel(n)
    G = _polarized_second_order(m2, null)
    fun, jac = _kernel_residual(G, proj_rows)

    def residual(c):
        norm = np.linalg.norm(fun(c)[:-1])
        if scale_rows is not None:
            norm /= max(np.linalg.norm(scale_rows @ np.einsum("i,j,ijg->g", c, c, G)), 1e-300)
        return norm

    for _ in range(starts):
        c = rng.standard_normal(null.shape[0])
        c /= np.linalg.norm(c)
        if residual(c) > tol:
            c = _levenberg_marquardt(fun, jac, c)[0]
            if residual(c) > tol:
                continue
        cfg = accept(null.T @ c)
        if cfg is not None:
            return cfg
    return None


# random starts of the nullspace searches (vanishing order 3, structure table)
ORDER3_STARTS = 60
STRUCTURE_STARTS = 80
# The structure search kills the off-span residual on its own 18-point grid
# only.  A candidate must also fit the span, at half the verification's 1e-6
# limit, on 32 log-spaced points of the window that the reproduction case
# verifies on at 40: 31 intervals against 39, so the two grids share only
# the window's ends.  The screen's M_2 values also guard against the
# degenerate (identically vanishing) branch.
STRUCTURE_WINDOW = (0.3, 2.2)
STRUCTURE_SCREEN_TOL = 5e-7


def vanishing_order_config(n: int, ell: int, *, seed: int = 0) -> SystemConfig:
    """Config of order k = ell whose first non-vanishing Melnikov order is ``ell``.

    ell = 2 zeroes the reduced order-1 coefficients; ell = 3 additionally
    solves the minimal second-order conditions by a randomized nullspace
    search (the second-order function is quadratic in the order-1 block, so
    it is polarized once on a grid and the search runs on the closed-form
    quadratic); ell = 4 places the perturbation at order 2 with zero reduced
    part, which makes orders 1-3 vanish identically.  The ell = 3 search
    evaluates M_2 by eps-jet passes of the return map; the recursion checks
    the candidate it accepts.  Raises NumericalError if the ell = 3 search
    exhausts its budget.
    """
    rng = np.random.default_rng(seed)
    zero = OrderCoefficients()

    def pad(blocks: dict[int, OrderCoefficients]) -> SystemConfig:
        return SystemConfig(n=n, k=ell, orders=tuple(blocks.get(i, zero)
                                                     for i in range(1, ell + 1)))

    if ell == 1:
        return pad({1: _oc_from_vec(rng.uniform(-1.0, 1.0, 12))})
    if ell == 2:
        return pad({1: v_zero_coefficients(n, rng),
                    2: _oc_from_vec(rng.uniform(-1.0, 1.0, 12))})
    if ell == 4:
        return pad({2: v_zero_coefficients(n, rng)})
    if ell != 3:
        raise ConfigurationError(f"no construction for ell={ell}; supported: 1..4")

    rs = np.geomspace(0.45, 2.1, 14)
    B = first_order_image(n, rs)
    Q, _ = np.linalg.qr(B)
    proj = np.eye(len(rs)) - Q @ Q.T
    m2 = _m2_on_grid(n, rs)

    def accept(c1):
        coef, *_ = np.linalg.lstsq(B, m2(c1), rcond=None)
        cfg = pad({1: _oc_from_vec(c1), 2: _cancelling_block(n, coef)})
        checks = np.abs(melnikov_all(cfg, np.array([0.8, 1.3]), 3))
        lower, m3 = np.max(checks[:2]), np.min(checks[2])
        if lower < 1e-11 and m3 > 5e-3:
            return cfg
        return None

    cfg = _kernel_quadratic_search(n, proj, m2, rng, ORDER3_STARTS, accept)
    if cfg is None:
        raise NumericalError(f"nullspace search for an order-3 configuration failed "
                             f"(n = {n}, seed {seed}, {ORDER3_STARTS} starts)")
    return cfg


def table3_structure_config(n: int, *, seed: int = 0) -> SystemConfig:
    """Config with M_1 = 0 whose M_2 numerator lies in the declared span.

    Plain kernel configs leave arctan- and square-root-shaped components in
    the second order; the published structure table presumes the unprinted
    minimal condition sets that remove them.  This search recovers such
    parameters numerically: it zeroes the component of M_2 * denominator
    orthogonal to the declared basis on a grid, then screens against the
    degenerate (identically vanishing) branch.  Every M_2 value of the search
    comes from eps-jet passes of the return map, so the recursion stays an
    independent check of the result.
    """
    rng = np.random.default_rng(seed)
    rs_x = np.geomspace(0.4, 1.8, 18)
    rs = np.array([cov_r_of_x(float(x), n) for x in rs_x])
    name, fam, den = structural_span(n, 2)
    denv = den(rs_x)
    design = np.column_stack([bf(rs_x) for bf in fam])
    image = first_order_image(n, rs)           # cancellable by the order-2 block
    combined = np.column_stack([design, denv[:, None] * image])
    Q, _ = np.linalg.qr(combined)
    proj = (np.eye(len(rs_x)) - Q @ Q.T) @ np.diag(denv)
    m2 = _m2_on_grid(n, rs)
    screen_xs = np.geomspace(*STRUCTURE_WINDOW, 32)
    screen_m2 = _m2_on_grid(n, np.array([cov_r_of_x(float(x), n) for x in screen_xs]))

    def accept(c1):
        m2_first = m2(c1)
        if np.linalg.norm(m2_first) < 1e-3:
            return None
        coef, *_ = np.linalg.lstsq(combined, denv * m2_first, rcond=None)
        c2 = _cancelling_block(n, coef[len(fam):])
        screen = screen_m2(c1, c2)
        if np.linalg.norm(screen) < 1e-3:
            return None
        if fit_to_span(list(zip(screen_xs, screen)), n, 2).residual > STRUCTURE_SCREEN_TOL:
            return None
        return SystemConfig(n=n, k=2, orders=(_oc_from_vec(c1), c2))

    cfg = _kernel_quadratic_search(n, proj, m2, rng, STRUCTURE_STARTS, accept,
                                   tol=1e-7, scale_rows=np.diag(denv))
    if cfg is None:
        raise NumericalError(f"structural-span search onto {name} failed "
                             f"(n = {n}, seed {seed}, {STRUCTURE_STARTS} starts)")
    return cfg
