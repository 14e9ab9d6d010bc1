"""Closed-form flow of the planar system and the Poincare return map.

Both zones are affine, so each leg of the return map is the exact flow
``s(t) = exp(A t)(s0 - s*) + s*`` of ``s' = A s + b`` with equilibrium
``s* = -A^{-1} b``; the 2x2 exponential is evaluated in closed form for a
focus, a node or saddle, and a repeated eigenvalue alike.  The flow runs in
Cartesian coordinates along the orientation in which the polar angle
increases, so the computed return map's Taylor coefficients in eps are
exactly the Melnikov functions of the polar-time formulation.  Only the
switching times at y = x^n and the return time to the section
S = {y = 0, x > 0} are solved for, by one solver for a (G, 1) column of
section points: a vectorized scan brackets the first sign change of the
event function in the right direction, and Newton steps safeguarded by
bisection refine each point's bracket.  One return (``integrate_return``) is
a 1-point column, and the eps = 0 event times of a whole grid
(``center_event_times``) run each leg once over all points; a column has the
bits of its 1-point call.  The same flow evaluated on jets, from those event
times, gives the eps-Taylor coefficients of the return map (the Melnikov
functions) and its exact derivative in x0.
With ndarray coefficients one such pass covers a whole grid of section points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import OrderCoefficients, SystemConfig
from .errors import (ConfigurationError, DomainError, EscapeError, EventDegeneracyError,
                     NumericalError)
from .roots import MAXITER, RTOL
from .series import Jet, _exp, _lib, _sincos, _sinhcosh, _sqrt

__all__ = ["PoincareResult", "LimitCycle", "CycleSearch", "integrate_return",
           "extract_melnikov", "center_event_times", "find_limit_cycles"]

R_ESCAPE = (1e-4, 1e4)
EPS_MAX_DEFAULT = 1e-2
TANGENCY_FLOOR = 1e-10
# Each leg looks for its event within [t0, t0 + LEG_WINDOW], scanning the
# event function at steps of at most SCAN_STEP: two crossings closer than one
# step cancel and go unseen.
LEG_WINDOW = 4.0 * math.pi
SCAN_STEP = 0.1
_SCAN = np.linspace(0.0, LEG_WINDOW, math.ceil(LEG_WINDOW / SCAN_STEP) + 1)
EVENT_XTOL = 1e-15
# The equilibrium form rounds to about 3 ulp of |s*|, absolutely.  A leg whose
# equilibrium lies further than EQ_FAR * max(1, |start|) away would lose more
# than 1e-12 relative to its orbit, so it raises instead (as does det A = 0).
EQ_FAR = 1e3
# Accuracy claimed for extract_melnikov, relative to max(1, |M_i|): an
# estimate whose final Newton correction exceeds it is flagged, and the CLI
# fails when the recursion and the oracle disagree by more.  Measured gaps
# to the recursion stay below 1e-13 on random order-6 blocks.
ORACLE_TOL = 1e-10
# damped Newton of find_limit_cycles; cycles closer than CYCLE_DEDUPE are one
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
CYCLE_DEDUPE = 1e-6


@dataclass(frozen=True)
class PoincareResult:
    x0: float
    eps: float
    x_return: float
    event_times: tuple[float, float, float]    # the two switching contacts, the return
    crossing_angles: tuple[float, float]
    crossing_points: tuple[tuple[float, float], tuple[float, float]]

    @property
    def displacement(self) -> float:
        return self.x_return - self.x0


@dataclass(frozen=True)
class LimitCycle:
    x_star: float
    eps: float
    derivative: float              # return-map derivative at the fixed point
    residual: float
    iterations: int
    seed: float
    melnikov_zero: float | None = None
    order: int | None = None

    @property
    def stable(self) -> bool:
        return abs(self.derivative) < 1.0

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star, "eps": self.eps, "derivative": self.derivative,
            "residual": self.residual, "iterations": self.iterations,
            "seed": self.seed, "melnikov_zero": self.melnikov_zero,
            "order": self.order, "stable": self.stable,
        }


def _value(c) -> float:
    return c.c[0] if isinstance(c, Jet) else c


def _flat(c) -> list:
    """The entries of an array as a flat list, or a number as a one-entry list."""
    return c.ravel().tolist() if isinstance(c, np.ndarray) else [c]


def _lead(config) -> SystemConfig:
    """``config`` itself, or the first config of a stack."""
    return config if isinstance(config, SystemConfig) else config[0]


class _Zone:
    """Time-reversed affine field s' = A s + b of one region (polar angle increases).

    ``A = -(J + sum eps^i L_i)`` and ``b = -sum eps^i c_i``, with J the
    linear center.  ``exp(A tau) = e^{mu tau} (C(tau) I + S(tau) N)`` where
    ``mu = tr A / 2``, ``N = A - mu I`` and ``N^2 = q I``: C, S are
    cos, sin/w for q < 0 (focus), cosh, sinh/w for q > 0 (node or saddle)
    and 1, tau for q = 0, with ``w = sqrt(|q|)``.  ``eq`` is the equilibrium
    s* (infinite when det A = 0).  ``eps`` may be a float or an eps-jet; the
    kind and the equilibrium check read the jet's value, and at eps = 0 every
    zone is the center, a focus.  A stack of configs enters as (B, 1)
    coefficient columns: its kind must agree, and det A = 0 in any config
    voids ``eq``.
    """

    def __init__(self, config, region: int, eps):
        eps = eps if isinstance(eps, Jet) else float(eps)
        stack = not isinstance(config, SystemConfig)
        configs = config if stack else [config]
        a11, a12, a21, a22, b1, b2 = 0.0, 1.0, -1.0, 0.0, 0.0, 0.0
        for i in range(1, configs[0].k + 1):
            blocks = [c.order(i) for c in configs]
            rows = [oc.a + oc.b if region > 0 else oc.alpha + oc.beta for oc in blocks]
            p0, p1, p2, q0, q1, q2 = np.array(rows).T[:, :, None] if stack else rows[0]
            w = eps ** i
            a11 += w * p1
            a12 += w * p2
            a21 += w * q1
            a22 += w * q2
            b1 += w * p0
            b2 += w * q0
        a11, a12, a21, a22, b1, b2 = -a11, -a12, -a21, -a22, -b1, -b2
        self.region = region
        self.A = (a11, a12, a21, a22)
        self.b = (b1, b2)
        self.mu = 0.5 * (a11 + a22)
        self.n11 = 0.5 * (a11 - a22)
        q = self.n11 * self.n11 + a12 * a21          # = -det N, free of mu^2 cancellation
        kinds = {(v > 0.0) - (v < 0.0) for v in _flat(_value(q))}
        if len(kinds) > 1:
            raise ConfigurationError(f"the stack mixes field kinds in region {region:+d}")
        self.kind = kinds.pop()
        self.w = _sqrt(self.kind * q)
        det = a11 * a22 - a12 * a21
        self.eq = (math.inf, math.inf) if 0.0 in _flat(_value(det)) else \
            ((a12 * b2 - a22 * b1) / det, (a21 * b1 - a11 * b2) / det)

    def velocity(self, x, y):
        a11, a12, a21, a22 = self.A
        return (a11 * x + a12 * y + self.b[0], a21 * x + a22 * y + self.b[1])


class _Flow:
    """Closed-form solution of one zone through ``start``.

    The zone, the start and the elapsed time may be floats, mpmath numbers
    or jets, and arrays over a grid of orbits and a stack of configs; the
    equilibrium check reads the farthest equilibrium of the stack and the
    orbit that starts nearest the origin.
    """

    def __init__(self, zone: _Zone, start):
        far, near = (_flat(_lib(x).hypot(x, y))
                     for x, y in (map(_value, zone.eq), map(_value, start)))
        if not max(far) <= EQ_FAR * max(1.0, min(near)):
            raise NumericalError(f"the field of region {zone.region:+d} has no equilibrium "
                                 f"near the orbit (|s*| = {float(max(far)):.3e})")
        self.zone = zone
        d0, d1 = start[0] - zone.eq[0], start[1] - zone.eq[1]
        _, a12, a21, _ = zone.A
        self.d = (d0, d1)
        self.nd = (zone.n11 * d0 + a12 * d1, a21 * d0 - zone.n11 * d1)

    def at(self, tau):
        """State at ``tau`` after the start."""
        z = self.zone
        if z.kind:
            s, c = (_sincos if z.kind < 0 else _sinhcosh)(z.w * tau)
            s = s / z.w
        else:
            c, s = 1.0, tau
        e = _exp(z.mu * tau)
        ec, es = e * c, e * s
        return (z.eq[0] + ec * self.d[0] + es * self.nd[0],
                z.eq[1] + ec * self.d[1] + es * self.nd[1])


def _event(label: str, n: int, x, y):
    """Event function of a leg: y - x^n for a 'switch' leg, y for the 'section' leg."""
    return y - x ** n if label == "switch" else y


def _event_rate(zone: _Zone, label: str, n: int, x, y):
    """d/dt of the event function along the zone's flow at (x, y)."""
    fx, fy = zone.velocity(x, y)
    return fy - n * x ** (n - 1) * fx if label == "switch" else fy


def _outside(r: np.ndarray) -> np.ndarray:
    """The entries of ``r`` outside the annulus R_ESCAPE, NaN included."""
    return r[~((R_ESCAPE[0] <= r) & (r <= R_ESCAPE[1]))]


def _first_crossing(flow: _Flow, n: int, direction: int, label: str):
    """Index j, per row of a (G, 1) column of orbits, of the first scan step
    [_SCAN[j], _SCAN[j + 1]] over which the event function changes sign in
    ``direction``."""
    xs, ys = flow.at(_SCAN)
    gs = _event(label, n, xs, ys)
    before, after = gs[:, :-1], gs[:, 1:]
    hits = (before < 0.0) & (after >= 0.0) if direction > 0 else (before > 0.0) & (after <= 0.0)
    found = hits.any(axis=1)
    if not np.all(found):
        escaped = _outside(np.hypot(xs[:, -1], ys[:, -1])[~found])
        if escaped.size:
            raise EscapeError(f"trajectory left the annulus during the {label} leg "
                              f"(r={escaped[0]:.3e})")
        raise NumericalError(f"no terminating event on the {label} leg "
                             f"within {LEG_WINDOW:.6g} time units of its start")
    return np.argmax(hits, axis=1)


def _check_contact(zone: _Zone, n: int, label: str, x, y) -> None:
    """Raise unless the event contact at (x, y) is transversal and inside the annulus."""
    rate = np.abs(_event_rate(zone, label, n, x, y))
    flat = rate[rate < TANGENCY_FLOOR]
    if flat.size:
        raise EventDegeneracyError(
            f"event contact is tangential (|g'|={flat[0]:.2e} < {TANGENCY_FLOOR})")
    escaped = _outside(np.hypot(x, y))
    if escaped.size:
        raise EscapeError(f"trajectory left the annulus (r={escaped[0]:.3e})")


def _leg(zone: _Zone, n: int, state, direction: int, label: str):
    """(duration, end point) of the flow of ``zone`` from each row of a (G, 1)
    column of start states to its first event crossing in ``direction``, as
    (G, 1) arrays.

    The first sign change of the event function in the scan brackets each
    row's event time, and the row refines it by Newton steps ``tau -= g/g'``,
    bisecting instead where a step leaves the closed bracket, and is frozen
    once its step falls to ``EVENT_XTOL + RTOL |tau|``: a row's iterates then
    depend on its own values alone, so it gets the bits of a 1-point call.
    """
    flow = _Flow(zone, state)
    j = _first_crossing(flow, n, direction, label)[:, None]
    lo, hi = _SCAN[j], _SCAN[j + 1]
    tau, active = 0.5 * (lo + hi), np.ones(j.shape, dtype=bool)
    for _ in range(MAXITER):
        x, y = flow.at(tau)
        g = _event(label, n, x, y)
        behind = direction * g < 0.0
        lo, hi = np.where(behind, tau, lo), np.where(behind, hi, tau)
        new = tau - g / _event_rate(zone, label, n, x, y)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - tau) <= EVENT_XTOL + RTOL * np.abs(tau)
        tau = np.where(active, new, tau)
        active &= ~done
        if not active.any():
            break
    else:
        raise NumericalError(f"the {label} leg's event time did not converge "
                             f"in {MAXITER} steps")
    x, y = flow.at(tau)
    _check_contact(zone, n, label, x, y)
    return tau, (x, y)


def _legs(x0: np.ndarray, config, eps):
    """Event times and end points of the three legs of one return from each
    row of the (G, 1) column ``x0``.

    Legs run region '-' to the first switching contact, '+' to the second,
    then '-' back to the section, matching the sector pattern of y - x^n
    along circles around the origin.
    """
    outside = _outside(x0)
    if outside.size:
        raise DomainError(f"section coordinate {outside[0]} outside the annulus "
                          f"[{R_ESCAPE[0]:g}, {R_ESCAPE[1]:g}]")
    below, above = _Zone(config, -1, eps), _Zone(config, +1, eps)
    state, t, times, points = (x0, 0.0), 0.0, [], []
    for zone, direction, label in ((below, +1, "switch"), (above, -1, "switch"),
                                   (below, +1, "section")):
        tau, state = _leg(zone, config.n, state, direction, label)
        t = t + tau
        times.append(t)
        points.append(state)
    backward = state[0][state[0] <= 0.0]
    if backward.size:
        raise NumericalError(f"return point has non-positive abscissa {backward[0]}")
    return times, points


def integrate_return(x0: float, eps: float, config: SystemConfig, *,
                     eps_max: float = EPS_MAX_DEFAULT) -> PoincareResult:
    """One full return of the section map through the two crossings (see ``_legs``)."""
    if not abs(eps) <= eps_max:
        raise DomainError(f"|eps|={abs(eps)} is not within eps_max={eps_max}")
    times, points = _legs(np.array([[float(x0)]]), config, eps)
    times = tuple(t.item() for t in times)
    points = [(x.item(), y.item()) for x, y in points]
    return PoincareResult(
        x0=x0, eps=eps, x_return=points[-1][0], event_times=times,
        crossing_angles=tuple(math.atan2(y, x) % (2.0 * math.pi) for x, y in points[:2]),
        crossing_points=tuple(points[:2]),
    )


def _return_jet(times, config, x0, eps, order: int):
    """x_return along the legs ending at ``times`` with ``x0`` or ``eps`` carried as a jet.

    ``times`` holds the three event times ``integrate_return`` found, as
    floats or as arrays over a grid of ``x0``, for one config or a stack.
    Each leg refines its event time by ``ceil(log2(order + 1)) + 1`` Newton
    steps ``tau <- tau - g/g'`` in jet arithmetic: one step doubles the number
    of exact coefficients, and the last one polishes them.  Returns the x-jet
    of the return point and, point by point over the grid, the largest
    coefficient of the correction ``g/g'`` one more step would make on any
    leg.
    """
    steps = math.ceil(math.log2(order + 1)) + 1
    n = _lead(config).n
    below, above = _Zone(config, -1, eps), _Zone(config, +1, eps)
    state, residual, t0 = (x0, 0.0), 0.0, 0.0
    for zone, label, t1 in zip((below, above, below), ("switch", "switch", "section"), times):
        flow = _Flow(zone, state)
        tau = t1 - t0
        for _ in range(steps + 1):     # the last correction is measured, not applied
            state = flow.at(tau)
            step = _event(label, n, *state) / _event_rate(zone, label, n, *state)
            tau = tau - step
        residual = reduce(np.maximum, (np.abs(c) for c in step.c), residual)
        t0 = t1
    return state[0], residual


@dataclass(frozen=True)
class MelnikovEstimate:
    """M_1..M_i on a grid from one eps-jet pass, with the pass's error estimate.

    ``values[m - 1, g]`` is M_m at grid point g and ``error_estimate[g]`` the
    pass's error estimate there; ``[m - 1, b, g]`` and ``[b, g]`` for config b
    of a stack.
    """

    values: np.ndarray
    error_estimate: np.ndarray

    @property
    def value(self) -> np.ndarray:
        """M_i, the highest order of the pass, at every grid point."""
        return self.values[-1]

    def flagged_at(self, i: int) -> np.ndarray:
        """Per point, whether the error estimate exceeds ``ORACLE_TOL * max(1, |M_i|)``."""
        return self.error_estimate > ORACLE_TOL * np.maximum(1.0, np.abs(self.values[i - 1]))

    @property
    def flagged(self) -> bool:
        """Whether the estimate of M_i is flagged at any grid point."""
        return bool(np.any(self.flagged_at(len(self.values))))


def extract_melnikov(xs, i: int, config, times: np.ndarray) -> MelnikovEstimate:
    """M_1..M_i, the eps-Taylor coefficients of the displacement, on the grid
    ``xs`` from one eps-jet pass with ndarray coefficients.

    One ``SystemConfig`` gives ``values`` of shape ``(i, G)`` and an
    ``error_estimate`` of shape ``(G,)`` on the G points; a list of B configs
    sharing n and k gives ``(i, B, G)`` and ``(B, G)``, each config's rows bit
    for bit those of its own call.

    Every zone is affine with ``A(eps)``, ``b(eps)`` polynomial in eps, so
    the closed-form flow carries eps as a truncated Taylor series of order i
    from the eps = 0 event times ``times = center_event_times(xs, config.n)``;
    coefficient m of the returned x is M_m.  ``error_estimate`` is, point by
    point, the largest coefficient of the event-time change one more Newton
    step would make, and the estimate of M_m is flagged where it exceeds
    ``ORACLE_TOL`` times ``max(1, |M_m|)``.
    """
    if not isinstance(config, SystemConfig):
        config = tuple(config)
        shapes = sorted({(c.n, c.k) for c in config})
        if len(shapes) != 1:
            raise ConfigurationError(f"a config stack needs configs of one (n, k), got {shapes}")
    k = _lead(config).k
    if i < 1 or i > k:
        raise DomainError(f"order must be in 1..{k}, got {i}")
    x, residual = _return_jet(times, config, np.asarray(xs, dtype=float),
                              Jet.variable(0.0, i), i)
    return MelnikovEstimate(values=np.array(x.c[1:]), error_estimate=residual)


def center_event_times(xs, n: int) -> np.ndarray:
    """(3, len(xs)) event times of the eps = 0 return from each point of ``xs``.

    At eps = 0 both zones are the center, so they serve every config of
    degree n.  The legs run once over the whole grid (``_leg``): one scan,
    then Newton steps safeguarded by bisection per point.  Column g
    has the bits of the 1-point call ``center_event_times(xs[g:g + 1], n)``.
    """
    center = SystemConfig(n=n, k=1, orders=(OrderCoefficients(),))
    times, _ = _legs(np.asarray(xs, dtype=float).reshape(-1, 1), center, 0.0)
    return np.concatenate(times, axis=1).T


def return_derivative(result: PoincareResult, config: SystemConfig) -> float:
    """Exact derivative of the return map at ``result.x0``, from a first-order
    jet in x0 along the legs of ``result`` (a return from ``integrate_return``)."""
    x, _ = _return_jet(result.event_times, config, Jet.variable(float(result.x0), 1),
                       result.eps, 1)
    return float(x.c[1])


@dataclass(frozen=True)
class CycleSearch:
    """Limit cycles found by ``find_limit_cycles``, with one note per skipped seed."""

    cycles: tuple[LimitCycle, ...]
    diagnostics: tuple[str, ...]


def find_limit_cycles(eps: float, config: SystemConfig, seeds, *,
                      melnikov_zeros=None, order: int | None = None) -> CycleSearch:
    """Damped Newton on the displacement from each seed; deduplicated.

    Stops once the Newton step is at most NEWTON_TOL * max(1, |x|).  The
    displacement, about eps^m M_m, would be no test: for small eps^m it is
    small far from the cycle too.

    At eps = 0 every point is fixed (period annulus): the function reports no
    isolated cycles in that case.  Diverging seeds are skipped with a note in
    ``diagnostics``.
    """
    seeds = [float(s) for s in seeds]
    if melnikov_zeros is not None and len(melnikov_zeros) != len(seeds):
        raise DomainError(f"{len(seeds)} seeds but {len(melnikov_zeros)} Melnikov zeros")
    if eps == 0.0:
        return CycleSearch((), ("eps = 0: period annulus, every seed is a non-isolated fixed point",))
    results: list[LimitCycle] = []
    diagnostics: list[str] = []
    zeros = list(melnikov_zeros) if melnikov_zeros is not None else [None] * len(seeds)
    for seed, mzero in zip(seeds, zeros):
        x = float(seed)
        converged = False
        it = 0
        try:
            ret = integrate_return(x, eps, config)
            for it in range(1, NEWTON_MAX_ITER + 1):
                deriv = return_derivative(ret, config)
                slope = deriv - 1.0
                if slope == 0.0:
                    break
                step = -ret.displacement / slope
                if abs(step) <= NEWTON_TOL * max(1.0, abs(x)):
                    converged = True
                    break
                lam = 1.0
                while lam > 1.0 / 64.0:
                    x_new = x + lam * step
                    if x_new > 0.0:
                        ret_new = integrate_return(x_new, eps, config)
                        if abs(ret_new.displacement) < abs(ret.displacement):
                            break
                    lam *= 0.5
                else:
                    break
                x, ret = x_new, ret_new
        except (EscapeError, NumericalError, EventDegeneracyError, DomainError) as exc:
            diagnostics.append(f"seed {seed}: {exc}")
            continue
        if not converged:
            diagnostics.append(f"seed {seed}: Newton step did not fall to {NEWTON_TOL} max(1, |x|)")
            continue
        if any(abs(x - c.x_star) < CYCLE_DEDUPE for c in results):
            continue
        results.append(LimitCycle(x_star=x, eps=eps, derivative=deriv,
                                  residual=abs(ret.displacement), iterations=it,
                                  seed=float(seed), melnikov_zero=mzero, order=order))
    results.sort(key=lambda c: c.x_star)
    return CycleSearch(tuple(results), tuple(diagnostics))

