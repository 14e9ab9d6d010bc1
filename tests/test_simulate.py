import math

import mpmath
import numpy as np
import pytest

from conftest import random_config
from melnlab import simulate
from melnlab.closedforms import m1_closed
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.errors import (ConfigurationError, DomainError, EscapeError, EventDegeneracyError,
                            NumericalError)
from melnlab.geometry import switching_angles
from melnlab.recursion import melnikov, melnikov_all
from melnlab.series import Jet
from melnlab.simulate import (EVENT_XTOL, _return_jet, _Zone, center_event_times,
                              extract_melnikov, find_limit_cycles, integrate_return,
                              return_derivative)
from scipy.integrate import solve_ivp


def dop853_rhs(config, region, eps):
    """Time-reversed field of one region, term by term (polar angle increases)."""
    def rhs(t, s):
        x, y = s
        dx, dy = y, -x
        for i, oc in enumerate(config.orders, start=1):
            (p0, p1, p2), (q0, q1, q2) = (oc.a, oc.b) if region > 0 else (oc.alpha, oc.beta)
            w = eps ** i
            dx += w * (p0 + p1 * x + p2 * y)
            dy += w * (q0 + q1 * x + q2 * y)
        return (-dx, -dy)
    return rhs


def dop853_return(x0, eps, config):
    """(x_return, event times) by DOP853 with terminal events, rtol 1e-12.

    An independent reference for the closed-form flow of the package: the
    same legs and event directions, integrated numerically.
    """
    n = config.n
    state, t0, times = (x0, 0.0), 0.0, []
    for region, label, direction in ((-1, "switch", +1), (+1, "switch", -1),
                                     (-1, "section", +1)):
        def event(t, s, label=label):
            return s[1] - s[0] ** n if label == "switch" else s[1]
        event.terminal, event.direction = True, direction
        sol = solve_ivp(dop853_rhs(config, region, eps), (t0, t0 + 4.0 * math.pi), state,
                        method="DOP853", rtol=1e-12, atol=1e-14, max_step=0.1, events=event)
        t0, state = float(sol.t_events[0][0]), sol.y_events[0][0]
        times.append(t0)
    return float(state[0]), tuple(times)


LADDER_BASE = {1: 1e-3, 2: 2e-3, 3: 6e-3, 4: 1.5e-2, 5: 2.5e-2, 6: 3.5e-2}
LADDER_RUNGS = {1: 5, 2: 5, 3: 4, 4: 3, 5: 2, 6: 2}


def ladder_melnikov(x0, i, config):
    """M_i by a parity-split Richardson ladder of finite-eps returns.

    A reference that uses no jets: the displacement is sampled at
    +-base/2^j, the even or odd part divided by eps^i is M_i + M_{i+2} eps^2
    + ..., and a Vandermonde solve in eps^2 extrapolates it to eps = 0.
    """
    base, rungs = LADDER_BASE[i], LADDER_RUNGS[i]
    eps = base / 2.0 ** np.arange(rungs)
    dp, dm = (np.array([integrate_return(x0, sign * e, config, eps_max=base).displacement
                        for e in eps]) for sign in (1.0, -1.0))
    part = 0.5 * (dp + (1.0 if i % 2 == 0 else -1.0) * dm)
    return float(np.linalg.solve(np.vander(eps ** 2, rungs, increasing=True),
                                 part / eps ** i)[0])


def zone_discriminant(config, region, eps):
    """q = ((a11 - a22)/2)^2 + a12 a21 of the zone matrix: q >= 0 iff real eigenvalues."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i, oc in enumerate(config.orders, start=1):
        (_, p1, p2), (_, q1, q2) = (oc.a, oc.b) if region > 0 else (oc.alpha, oc.beta)
        A += eps ** i * np.array([[p1, p2], [q1, q2]])
    return ((A[0, 0] - A[1, 1]) / 2.0) ** 2 + A[0, 1] * A[1, 0]


def test_unperturbed_identity(rng):
    cfg = random_config(rng, 3, 1)
    for x0 in (0.5, 1.0, 2.0):
        res = integrate_return(x0, 0.0, cfg)
        assert abs(res.displacement) <= 1e-14 * max(1.0, x0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossing_angles_match_geometry(rng, n):
    cfg = random_config(rng, n, 1)
    for x0 in (0.7, 1.5):
        res = integrate_return(x0, 0.0, cfg)
        t1, t2 = switching_angles(x0, n)
        assert res.crossing_angles[0] == pytest.approx(t1, abs=1e-10)
        assert res.crossing_angles[1] == pytest.approx(t2, abs=1e-10)
        assert len(res.event_times) == 3
        assert res.event_times[0] < res.event_times[1] < res.event_times[2]


def test_event_residuals_on_curve(rng):
    cfg = random_config(rng, 3, 1)
    res = integrate_return(1.1, 5e-3, cfg)
    for (x, y) in res.crossing_points:
        assert abs(y - x**cfg.n) < 1e-12 * max(1.0, abs(y))


def test_time_reversal_consistency(rng):
    # integrating the reversed field from the return point recovers the start
    cfg = random_config(rng, 2, 1)
    x0, eps = 1.2, 3e-3
    res = integrate_return(x0, eps, cfg)
    rhs_fwd = dop853_rhs(cfg, -1, eps)

    def rhs_back(t, s):
        dx, dy = rhs_fwd(t, s)
        return (-dx, -dy)

    t_mid, t_end = res.event_times[1:]
    sol = solve_ivp(rhs_back, (0.0, t_end - t_mid), [res.x_return, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    end = sol.y[:, -1]
    start = res.crossing_points[-1]
    assert end[0] == pytest.approx(start[0], abs=1e-9)
    assert end[1] == pytest.approx(start[1], abs=1e-9)


def test_exact_flow_matches_dop853(rng):
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        for k in (1, 2, 6):
            cfg = random_config(rng, n, k)
            for x0 in (0.3, 0.8, 1.5, 3.0):
                for eps in (0.0, 1e-4, -1e-4, -1e-3, 5e-3, -1e-2):
                    res = integrate_return(x0, eps, cfg)
                    x_ref, t_ref = dop853_return(x0, eps, cfg)
                    gaps = [abs(res.x_return - x_ref)]
                    gaps += [abs(a - b) for a, b in zip(res.event_times, t_ref)]
                    worst = max(worst, max(gaps) / max(1.0, x0))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("block, eps, kind", [
    (OrderCoefficients(a=(0.1, 2.0, 0.0), b=(0.0, 0.0, -2.0)), 0.6, "saddle"),
    (OrderCoefficients(a=(0.1, -1.5, 0.0), b=(0.0, 0.0, 2.5)), 0.5, "repeated"),
])
def test_exact_flow_real_eigenvalues_match_dop853(block, eps, kind):
    # above the curve the field has real eigenvalues, at large eps
    cfg = SystemConfig(n=2, k=1, orders=(block,))
    q = zone_discriminant(cfg, +1, eps)
    assert q > 0.0 if kind == "saddle" else q == 0.0
    for x0 in (0.5, 1.0, 2.0):
        res = integrate_return(x0, eps, cfg, eps_max=1.0)
        x_ref, t_ref = dop853_return(x0, eps, cfg)
        assert abs(res.x_return - x_ref) <= 1e-12 * max(1.0, x0)
        for a, b in zip(res.event_times, t_ref):
            assert abs(a - b) <= 1e-12 * max(1.0, x0)


def test_escape_is_a_typed_error():
    # an expanding focus below the curve carries x0 = 9990 past r = 1e4
    # before the first crossing
    cfg = SystemConfig(n=1, k=1, orders=(
        OrderCoefficients(alpha=(0.0, -0.5, 0.0), beta=(0.0, 0.0, -0.5)),))
    with pytest.raises(EscapeError):
        integrate_return(9990.0, 1e-2, cfg)
    assert integrate_return(9000.0, 1e-2, cfg).x_return > 9000.0


def test_leg_without_event_is_a_typed_error():
    # below the curve a saddle with equilibrium (1, 0): the orbit of (2, 0)
    # runs along its stable axis y = 0 and never meets y = x
    cfg = SystemConfig(n=1, k=1, orders=(
        OrderCoefficients(alpha=(-2.0, 2.0, -1.0), beta=(0.0, 1.0, -2.0)),))
    assert zone_discriminant(cfg, -1, 1.0) > 0.0
    with pytest.raises(NumericalError, match="no terminating event"):
        integrate_return(2.0, 1.0, cfg, eps_max=2.0)


@pytest.mark.parametrize("delta", [0.0, 1e-6])
def test_far_equilibrium_is_a_typed_error(delta):
    # above the curve det A = delta: at delta = 0 there is no equilibrium, at
    # 1e-6 it lies 5e4 away, where the equilibrium form would lose ~1e-11
    cfg = SystemConfig(n=2, k=1, orders=(
        OrderCoefficients(a=(0.1, 2.0, 0.0), b=(0.0, 0.0, -2.0 * (1.0 - delta))),))
    with pytest.raises(NumericalError, match="no equilibrium near the orbit"):
        integrate_return(1.0, 0.5, cfg, eps_max=1.0)


# the two ways through the three legs, each from one section point: the
# scalar return (brentq per leg) and the grid pass of center_event_times
# (Newton safeguarded by bisection), here on any config
ROUTES = {
    "scalar": lambda x0, eps, cfg: integrate_return(x0, eps, cfg, eps_max=2.0),
    "grid": lambda x0, eps, cfg: simulate._legs(np.array([[x0]]), cfg, eps, simulate._grid_leg),
}
CENTER = SystemConfig(n=2, k=1, orders=(OrderCoefficients(),))


def test_grid_legs_raise_the_scalar_legs_errors():
    # the saddle of test_leg_without_event_is_a_typed_error, and the
    # expanding focus of test_escape_is_a_typed_error, on the grid route
    saddle = SystemConfig(n=1, k=1, orders=(
        OrderCoefficients(alpha=(-2.0, 2.0, -1.0), beta=(0.0, 1.0, -2.0)),))
    focus = SystemConfig(n=1, k=1, orders=(
        OrderCoefficients(alpha=(0.0, -0.5, 0.0), beta=(0.0, 0.0, -0.5)),))
    with pytest.raises(NumericalError, match="no terminating event on the switch leg"):
        ROUTES["grid"](2.0, 1.0, saddle)
    with pytest.raises(EscapeError, match=r"left the annulus \(r=1.003e\+04\)"):
        ROUTES["grid"](9990.0, 1e-2, focus)
    assert ROUTES["grid"](9000.0, 1e-2, focus)[1][-1][0] > 9000.0


@pytest.mark.parametrize("route", ROUTES)
def test_escape_during_a_leg_is_a_typed_error(monkeypatch, route):
    # the saddle's orbit from (2, 0) settles on its equilibrium (1, 0) without
    # an event; with the annulus starting at r = 1.5 the scan's end has left it
    saddle = SystemConfig(n=1, k=1, orders=(
        OrderCoefficients(alpha=(-2.0, 2.0, -1.0), beta=(0.0, 1.0, -2.0)),))
    monkeypatch.setattr(simulate, "R_ESCAPE", (1.5, 1e4))
    with pytest.raises(EscapeError, match=r"during the switch leg \(r=1.000e\+00\)"):
        ROUTES[route](2.0, 1.0, saddle)


@pytest.mark.parametrize("route", ROUTES)
def test_tangential_contact_is_a_typed_error(monkeypatch, route):
    # on the unit circle |g'| at the first contact is about 1.3
    monkeypatch.setattr(simulate, "TANGENCY_FLOOR", 10.0)
    with pytest.raises(EventDegeneracyError, match=r"tangential \(\|g'\|=1.\d+e\+00 < 10.0\)"):
        ROUTES[route](1.0, 0.0, CENTER)


@pytest.mark.parametrize("route", ROUTES)
def test_backward_return_is_a_typed_error(monkeypatch, route):
    # with the sign of the section's event function flipped, the last leg
    # ends where y falls through 0, on the negative x axis
    event, rate = simulate._event, simulate._event_rate
    monkeypatch.setattr(simulate, "_event", lambda label, n, x, y:
                        -y if label == "section" else event(label, n, x, y))
    monkeypatch.setattr(simulate, "_event_rate", lambda zone, label, n, x, y:
                        (-1.0 if label == "section" else 1.0) * rate(zone, label, n, x, y))
    with pytest.raises(NumericalError, match="non-positive abscissa -1.0"):
        ROUTES[route](1.0, 0.0, CENTER)


def test_grid_errors_name_the_offending_point(monkeypatch):
    # one point outside the annulus fails the whole grid before any leg
    legs = []
    monkeypatch.setattr(simulate, "_grid_leg", lambda *args: legs.append(args))
    with pytest.raises(DomainError, match="section coordinate 20000.0 outside the annulus"):
        center_event_times([0.5, 2e4, 1.0], 2)
    assert legs == []


def test_unconverged_grid_leg_is_a_typed_error(monkeypatch):
    # one refinement step from the middle of a scan step does not converge
    monkeypatch.setattr(simulate, "MAXITER", 1)
    with pytest.raises(NumericalError, match="event time did not converge in 1 steps"):
        center_event_times([0.5, 1.0], 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_times_are_the_pointwise_returns(n):
    # the grid pass and the scalar returns stop within EVENT_XTOL of one
    # event time; the third is a full turn; a column has its 1-point bits.
    # Up to x = 30 the switch events of n = 6..8 bend so sharply that Newton
    # steps from mid-bracket leave the bracket: unbisected, they converge to
    # another contact or not at all
    xs = np.geomspace(1e-3, 30.0, 41)
    center = SystemConfig(n=n, k=1, orders=(OrderCoefficients(),))
    times = center_event_times(xs, n)
    want = np.array([integrate_return(float(x), 0.0, center).event_times for x in xs]).T
    assert times.shape == (3, len(xs))
    assert np.all(np.abs(times - want) <= 2 * EVENT_XTOL + 4 * np.spacing(want))
    assert np.all(np.abs(times[2] - 2 * math.pi)
                  <= 2 * EVENT_XTOL + 4 * np.spacing(2 * math.pi))
    for g in range(len(xs)):
        one = center_event_times(xs[g:g + 1], n)
        assert np.array_equal(one[:, 0].view(np.uint64), times[:, g].view(np.uint64))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_n_contacts_at_large_radius_are_right_or_a_typed_error(n):
    # near the y axis the two crossings of y = x^n close in below one scan
    # step, so from x of about 31.6 (n = 8) to 501 (n = 2) some start points
    # find no switch event; each must raise, never return wrong times
    center = SystemConfig(n=n, k=1, orders=(OrderCoefficients(),))
    routes = (lambda x: integrate_return(x, 0.0, center).event_times,
              lambda x: center_event_times(np.array([x]), n)[:, 0])
    for x in np.geomspace(1e-3, 1e3, 61).tolist():
        want = (*switching_angles(x, n), 2 * math.pi)
        for route in routes:
            try:
                times = route(x)
            except NumericalError:
                assert x > 30.0, x
                continue
            assert np.all(np.abs(np.subtract(times, want)) <= 1e-12), (x, times, want)


def test_displacement_smooth_in_eps(rng):
    # sampled displacement fits a low-degree polynomial in eps to ~1e-10
    cfg = random_config(rng, 2, 2, scale=0.5)
    x0 = 1.1
    eps = np.linspace(-1e-3, 1e-3, 9)
    vals = np.array([integrate_return(x0, e, cfg).displacement for e in eps])
    coef = np.polynomial.polynomial.polyfit(eps, vals, 4)
    resid = np.max(np.abs(np.polynomial.polynomial.polyval(eps, coef) - vals))
    assert resid < 1e-10


def _extract(xs, i, cfg):
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return extract_melnikov(xs, i, cfg, center_event_times(xs, cfg.n))


def test_extraction_matches_closed_form(rng):
    for n in (2, 3):
        cfg = random_config(rng, n, 1)
        xs = [0.8, 1.6]
        est = _extract(xs, 1, cfg)
        want = np.array([m1_closed(cfg, x0) for x0 in xs])
        assert np.all(np.abs(est.value - want) / np.maximum(1.0, np.abs(want)) < 1e-12)
        assert not est.flagged


def test_extraction_zero_config():
    # the unperturbed flow carries no eps at all
    cfg = SystemConfig(n=2, k=2, orders=(OrderCoefficients(), OrderCoefficients()))
    for i in (1, 2):
        est = _extract(1.0, i, cfg)
        assert est.values.shape == (i, 1) and est.error_estimate.shape == (1,)
        assert abs(est.value[0]) < 1e-12
        assert abs(est.value[0]) <= max(3.0 * est.error_estimate[0], 1e-10)


def test_extraction_order2_vs_recursion(rng):
    from melnlab.closedforms import v_zero_coefficients
    c1 = v_zero_coefficients(3, rng)
    cfg = SystemConfig(n=3, k=2, orders=(c1, OrderCoefficients()))
    est = _extract([0.8, 1.3], 2, cfg)
    for x0, value in zip((0.8, 1.3), est.value):
        want = melnikov(cfg, 2, x0)
        assert abs(value - want) / max(1.0, abs(want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 6])
def test_grid_pass_is_the_pointwise_pass(rng, n, k):
    # a grid column equals the 1-point call bit for bit, error estimate
    # included, and agrees with the recursion
    cfg = random_config(rng, n, k)
    xs = np.geomspace(0.5, 1.8, 6)
    grid = _extract(xs, k, cfg)
    assert grid.values.shape == (k, len(xs)) and grid.error_estimate.shape == (len(xs),)
    for g, x in enumerate(xs):
        est = _extract(float(x), k, cfg)
        assert grid.values[:, g].tolist() == est.values[:, 0].tolist()
        assert grid.error_estimate[g] == est.error_estimate[0]
        assert [grid.flagged_at(i)[g] for i in range(1, k + 1)] == \
            [est.flagged_at(i)[0] for i in range(1, k + 1)]
        want = melnikov_all(cfg, float(x), k)
        gaps = [abs(v - w) / max(1.0, abs(w)) for v, w in zip(est.values[:, 0], want)]
        assert max(gaps) <= 1e-13, gaps


def test_flags_are_per_point():
    # flagged_at gives one flag per point; flagged is a bool, any point flagged
    from melnlab.simulate import ORACLE_TOL, MelnikovEstimate

    est = MelnikovEstimate(values=np.array([[0.5, 2.0, -3.0]]),
                           error_estimate=np.array([0.5, 3.0, 2.0]) * ORACLE_TOL)
    assert est.flagged_at(1).tolist() == [False, True, False]
    assert est.flagged is True
    calm = MelnikovEstimate(values=est.values, error_estimate=np.zeros(3))
    assert calm.flagged is False


def test_lower_orders_of_one_pass(rng):
    # a pass of order 6 carries every lower order, each flagged on its own
    cfg = random_config(rng, 3, 6)
    xs = [0.7, 1.4]
    est = _extract(xs, 6, cfg)
    assert est.values.shape == (6, 2) and est.value.tolist() == est.values[-1].tolist()
    for i in (1, 2, 4):
        low = _extract(xs, i, cfg).value
        assert np.all(np.abs(est.values[i - 1] - low) <= 1e-13 * np.maximum(1.0, np.abs(low)))
        assert not np.any(est.flagged_at(i))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("i", [1, 2, 6])
def test_stacked_pass_is_the_per_config_pass(rng, n, i):
    # each config of a stack gets the bits of its own call, error estimate
    # included
    cfgs = [random_config(rng, n, 6) for _ in range(4)]
    xs = np.geomspace(0.5, 2.0, 8)
    times = center_event_times(xs, n)
    stack = extract_melnikov(xs, i, cfgs, times)
    assert stack.values.shape == (i, 4, 8) and stack.error_estimate.shape == (4, 8)
    for b, cfg in enumerate(cfgs):
        one = extract_melnikov(xs, i, cfg, times)
        assert np.array_equal(stack.values[:, b].view(np.uint64), one.values.view(np.uint64))
        assert np.array_equal(stack.error_estimate[b].view(np.uint64),
                              one.error_estimate.view(np.uint64))


def _zero_config(n, k):
    return SystemConfig(n=n, k=k, orders=(OrderCoefficients(),) * k)


@pytest.mark.parametrize("stack", [
    [],
    [_zero_config(2, 2), _zero_config(3, 2)],
    [_zero_config(2, 2), _zero_config(2, 3)],
], ids=["empty", "mixed-n", "mixed-k"])
def test_bad_stacks_are_typed_errors_before_any_pass(monkeypatch, stack):
    passes = []
    monkeypatch.setattr(simulate, "_return_jet", lambda *args: passes.append(args))
    xs = np.array([0.8, 1.2])
    with pytest.raises(ConfigurationError, match="config stack"):
        extract_melnikov(xs, 2, stack, center_event_times(xs, 2))
    assert passes == []


def test_a_stack_of_mixed_zone_kinds_is_a_typed_error():
    # above the curve a saddle at eps = 0.6 (the DOP853 saddle case) beside
    # the center, a focus
    saddle = SystemConfig(n=2, k=1, orders=(
        OrderCoefficients(a=(0.1, 2.0, 0.0), b=(0.0, 0.0, -2.0)),))
    with pytest.raises(ConfigurationError, match="mixes field kinds"):
        _Zone([saddle, _zero_config(2, 1)], +1, 0.6)
    assert _Zone([saddle, saddle], +1, 0.6).kind == _Zone(saddle, +1, 0.6).kind == 1


def test_forty_digit_pass_matches_the_float_pass(rng):
    # the eps-jet pass on mpmath numbers, from the float event times: three
    # jet-Newton steps per leg carry them to 40 digits
    cfg = random_config(rng, 3, 2)
    xs = np.array([1.1])
    times = center_event_times(xs, 3)
    want = extract_melnikov(xs, 2, cfg, times).values[:, 0]
    with mpmath.workdps(40):
        x, residual = _return_jet([mpmath.mpf(t) for t in times[:, 0]], cfg,
                                  mpmath.mpf(1.1), Jet.variable(mpmath.mpf(0), 2), 2)
    assert all(isinstance(c, mpmath.mpf) for c in x.c) and residual < 1e-30
    for got, w in zip(x.c[1:], want):
        assert abs(float(got) - w) <= 1e-13 * abs(w)


@pytest.mark.parametrize("block, eps", [
    (None, 1e-4), (None, 5e-3), (None, -1e-2),
    # above the curve a saddle: the eps = 0.6 saddle of the DOP853 test,
    # rescaled to eps = 1e-2
    (OrderCoefficients(a=(6.0, 120.0, 0.0), b=(0.0, 0.0, -120.0)), 1e-2),
])
def test_return_derivative_matches_central_difference(rng, block, eps):
    cfg = random_config(rng, 3, 2) if block is None else SystemConfig(n=2, k=1, orders=(block,))

    def central(x0, h):
        fp = integrate_return(x0 + h, eps, cfg).x_return
        fm = integrate_return(x0 - h, eps, cfg).x_return
        return (fp - fm) / (2.0 * h)

    for x0 in (0.6, 1.1, 1.7):
        # Richardson-extrapolated central difference: its own error, about
        # h^4 times the fifth derivative plus rounding over h, stays below
        # 5e-12 on these cases
        h = 2e-3
        ref = (4.0 * central(x0, h / 2.0) - central(x0, h)) / 3.0
        slope = return_derivative(integrate_return(x0, eps, cfg), cfg)
        assert abs(slope - ref) <= 1e-10 * max(1.0, abs(ref))


def test_eps_bound_and_domain_checks(rng):
    cfg = random_config(rng, 2, 1)
    with pytest.raises(DomainError):
        integrate_return(1.0, 0.5, cfg)
    with pytest.raises(DomainError):
        integrate_return(-1.0, 0.0, cfg)


@pytest.mark.parametrize("i", [0, 3])
def test_extract_at_an_order_outside_the_config_is_a_domain_error(rng, i):
    cfg = random_config(rng, 2, 2)
    xs = [0.8, 1.2]
    with pytest.raises(DomainError):
        extract_melnikov(xs, i, cfg, center_event_times(xs, cfg.n))


def test_seeds_and_melnikov_zeros_must_pair_up(rng):
    # zip would drop the unpaired seeds without a word
    cfg = random_config(rng, 2, 1)
    with pytest.raises(DomainError, match="3 seeds but 1 Melnikov zeros"):
        find_limit_cycles(1e-4, cfg, [0.8, 1.0, 1.2], melnikov_zeros=[1.0])


def test_period_annulus_reported(rng):
    cfg = random_config(rng, 2, 1)
    search = find_limit_cycles(0.0, cfg, [0.8, 1.2])
    assert search.cycles == ()
    assert any("period annulus" in d for d in search.diagnostics)


def test_stability_sign_matches_melnikov_slope(rng):
    # pi_eps'(x*) - 1 has the sign of eps * M1'(a*) near a simple zero
    from melnlab.closedforms import config_from_v

    cfg = config_from_v((-1.0, 0.55, 0.0), 3)   # zero where cos(t1) ~ 0.55 r
    from melnlab.certify import isolate_zeros

    rep = isolate_zeros(lambda r: np.array([m1_closed(cfg, float(t)) for t in np.atleast_1d(r)]),
                        0.5, 4.0, initial=512)
    assert rep.count >= 1
    a_star = rep.zeros[0].location
    eps = 1e-4
    cycles = find_limit_cycles(eps, cfg, [a_star], melnikov_zeros=[a_star], order=1).cycles
    assert len(cycles) == 1
    c = cycles[0]
    h = 1e-5
    slope = (m1_closed(cfg, a_star + h) - m1_closed(cfg, a_star - h)) / (2 * h)
    assert math.copysign(1.0, c.derivative - 1.0) == math.copysign(1.0, eps * slope)


def test_one_return_per_newton_iterate(monkeypatch):
    # the slope pass reads the iterate's own return; the cycle's derivative
    # is the last pass's, so no point is integrated twice
    from melnlab import simulate
    from melnlab.closedforms import config_from_v

    cfg = config_from_v((-1.0, 0.55, 0.0), 3)
    returns = []
    integrate = simulate.integrate_return

    def counted(x0, eps, config):
        returns.append(x0)
        return integrate(x0, eps, config)

    monkeypatch.setattr(simulate, "integrate_return", counted)
    search = find_limit_cycles(1e-4, cfg, [1.2])
    assert len(search.cycles) == 1 and len(returns) > 2
    assert len(returns) == len(set(returns))


def test_escaping_and_stalled_seeds_leave_a_diagnostic(monkeypatch):
    # a seed outside the annulus R_ESCAPE, and a seed whose Newton run hits
    # the iteration cap before its step falls to NEWTON_TOL, each leave one
    # note and no cycle; under the default cap the second seed converges
    from melnlab.closedforms import config_from_v

    cfg = config_from_v((-1.0, 0.55, 0.0), 3)
    assert len(find_limit_cycles(1e-4, cfg, [1.2]).cycles) == 1
    outside = 2.0 * simulate.R_ESCAPE[1]
    monkeypatch.setattr(simulate, "NEWTON_MAX_ITER", 1)
    search = find_limit_cycles(1e-4, cfg, [outside, 1.2])
    assert search.cycles == ()
    escaped, stalled = search.diagnostics
    assert escaped.startswith(f"seed {outside}: section coordinate {outside} outside the annulus")
    assert stalled == f"seed 1.2: Newton step did not fall to {simulate.NEWTON_TOL} max(1, |x|)"


def test_cycles_stop_on_the_newton_step():
    # the three-zero n = 2 config, shrunk so that the displacement eps * M_1
    # is tiny: a cycle returned must be the fixed point, not merely a point
    # of small displacement
    from melnlab.closedforms import config_from_v, cov_r_of_x, sign_pattern_search

    v, zeros = sign_pattern_search(2, 3, seed=1)
    r_zeros = [cov_r_of_x(z, 2) for z in zeros]
    seeds = [1.05 * r for r in r_zeros]
    eps = 1e-4

    def search(scale):
        cfg = config_from_v(tuple(scale * c for c in v), 2, k=2)
        return cfg, find_limit_cycles(eps, cfg, seeds, melnikov_zeros=r_zeros).cycles

    # at scale 1e-4 each cycle is the Newton-polished fixed point
    cfg, cycles = search(1e-4)
    assert len(cycles) == 3
    offsets = []
    for c in cycles:
        x = c.x_star
        for _ in range(4):
            ret = integrate_return(x, eps, cfg)
            x -= ret.displacement / (return_derivative(ret, cfg) - 1.0)
        assert abs(c.x_star - x) <= 1e-9 * max(1.0, x)
        offsets.append(x - c.melnikov_zero)
    # at scale 1e-6 the displacement is only resolved to ~4e-8 in x, and
    # the offset from the zero, about -eps M_2 / M_1', shrinks with the scale
    _, cycles = search(1e-6)
    assert len(cycles) == 3
    for c, offset in zip(cycles, offsets):
        assert abs(c.x_star - c.melnikov_zero - 1e-2 * offset) <= 1e-7

