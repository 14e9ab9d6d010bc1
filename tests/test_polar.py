import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_config
from melnlab import polar, recursion
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.errors import DomainError
from melnlab.polar import PolarField, cartesian_field, endpoint_triangles
from melnlab.recursion import ZTable
from melnlab.series import Jet


def series_quotient_oracle(field, i, sign, r, theta, rho=0.15, m=128):
    """eps-Taylor coefficient of A(eps)/(-1 + B(eps)) by a Cauchy integral."""
    k = field.config.k
    vals = []
    for j in range(m):
        eps = rho * np.exp(2j * np.pi * j / m)
        A = sum(eps**p * field.radial_component(p, sign, r, theta) for p in range(1, k + 1))
        B = sum(eps**p * field.angular_component(p, sign, r, theta) for p in range(1, k + 1))
        vals.append(A / (-1.0 + B))
    coef = sum(vals[j] * np.exp(-2j * np.pi * j * i / m) for j in range(m)) / m / rho**i
    return coef.real


def test_zero_config_gives_zero_field():
    cfg = SystemConfig(n=2, k=3, orders=tuple(OrderCoefficients() for _ in range(3)))
    field = PolarField(cfg)
    for i in (1, 2, 3):
        assert field.f(i, +1, 1.3, 0.7) == 0.0
        assert field.f(i, -1, 0.4, 5.1) == 0.0


@pytest.mark.parametrize("i", [0, 3])
def test_order_outside_the_config_is_a_domain_error(i):
    field = PolarField(SystemConfig(n=2, k=2, orders=(OrderCoefficients(),) * 2))
    with pytest.raises(DomainError):
        field.f(i, +1, 1.0, 0.5)


def test_first_order_matches_explicit_formula(rng):
    cfg = random_config(rng, 3, 2)
    field = PolarField(cfg)
    a0, a1, a2 = cfg.order(1).a
    b0, b1, b2 = cfg.order(1).b
    for r, th in [(1.2, 0.4), (0.6, 2.9), (2.5, 4.4)]:
        explicit = -(math.cos(th) * (a0 + r * (a2 + b1) * math.sin(th))
                     + a1 * r * math.cos(th)**2
                     + math.sin(th) * (b0 + b2 * r * math.sin(th)))
        assert field.f(1, +1, r, th) == pytest.approx(explicit, rel=1e-14)
    # F1^+(r=1, theta=0) = -(a0 + a1)
    assert field.f(1, +1, 1.0, 0.0) == pytest.approx(-(a0 + a1), rel=1e-14)


@pytest.mark.parametrize("i", [2, 3, 4])
def test_higher_orders_match_quotient_oracle(rng, i):
    cfg = random_config(rng, 2, 4)
    field = PolarField(cfg)
    for sign in (+1, -1):
        for r, th in [(1.1, 0.8), (0.7, 3.9)]:
            got = field.f(i, sign, r, th)
            want = series_quotient_oracle(field, i, sign, r, th)
            assert got == pytest.approx(want, abs=1e-12 * max(1, abs(want)))


def test_two_pi_periodicity(rng):
    cfg = random_config(rng, 4, 3)
    field = PolarField(cfg)
    for i in (1, 2, 3):
        for sign in (+1, -1):
            th = rng.uniform(0, 2 * math.pi)
            assert field.f(i, sign, 1.4, th) == pytest.approx(
                field.f(i, sign, 1.4, th + 2 * math.pi), rel=1e-12, abs=1e-12)


def test_first_order_affine_in_radius(rng):
    # F_1 is affine in r; orders >= 2 pick up negative powers from the
    # angular division and are rational instead
    cfg = random_config(rng, 3, 2)
    field = PolarField(cfg)
    th = 0.9
    r1, r2, r3 = 0.5, 1.0, 2.0
    f = [field.f(1, +1, r, th) for r in (r1, r2, r3)]
    slope12 = (f[1] - f[0]) / (r2 - r1)
    slope23 = (f[2] - f[1]) / (r3 - r2)
    assert slope12 == pytest.approx(slope23, rel=1e-12)


def test_cartesian_field_pieces(rng):
    cfg = random_config(rng, 3, 1)
    a0, a1, a2 = cfg.order(1).a
    b0, b1, b2 = cfg.order(1).b
    x, y = 0.5, 0.5**3 + 0.4   # above the curve
    dx, dy = cartesian_field(cfg, x, y, 1.0)
    assert dx == pytest.approx(y + a0 + a1 * x + a2 * y, rel=1e-14)
    assert dy == pytest.approx(-x + b0 + b1 * x + b2 * y, rel=1e-14)
    dx0, dy0 = cartesian_field(cfg, -1.3, 2.2, 0.0)
    assert (dx0, dy0) == (2.2, 1.3)
    with pytest.raises(DomainError):
        cartesian_field(cfg, 0.5, 0.5**3, 0.1)


def test_polar_cartesian_chain_rule(rng):
    # dr/dtheta from the Cartesian field equals the polar series evaluation
    cfg = random_config(rng, 2, 2, scale=0.5)
    field = PolarField(cfg)
    eps = 1e-3
    for r, th in [(1.3, 0.9), (0.8, 4.0)]:
        x, y = r * math.cos(th), r * math.sin(th)
        dx, dy = cartesian_field(cfg, x, y, eps)
        dr_dt = (x * dx + y * dy) / r
        dth_dt = (x * dy - y * dx) / (r * r)
        dr_dtheta = dr_dt / dth_dt
        sign = 1 if y - x**cfg.n > 0 else -1
        series = sum(eps**i * field.f(i, sign, r, th) for i in (1, 2))
        assert dr_dtheta == pytest.approx(series, abs=5e-9)


def test_f_r_jets_match_finite_differences(rng):
    cfg = random_config(rng, 3, 3)
    field = PolarField(cfg)
    r0, th, h = 1.2, 1.1, 1e-5
    # F_3 comes at r-order order + 1 - 3, so order 4 gives it a second derivative
    jets = field.f_r_jets(-1, r0, th, 4)
    for i in (1, 2, 3):
        up = field.f(i, -1, r0 + h, th)
        dn = field.f(i, -1, r0 - h, th)
        mid = field.f(i, -1, r0, th)
        assert jets[i - 1].derivative(1) == pytest.approx((up - dn) / (2 * h), rel=1e-8)
        # second differences carry ~1e-16/h^2 rounding noise
        assert jets[i - 1].derivative(2) == pytest.approx(
            (up - 2 * mid + dn) / h**2, rel=1e-4, abs=2e-5)


def _same(a, b) -> bool:
    """Coefficient lists equal bit for bit (floats, arrays or nested jets)."""
    if isinstance(a, Jet):
        return isinstance(b, Jet) and len(a.c) == len(b.c) and all(
            _same(x, y) for x, y in zip(a.c, b.c))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SIGNED_ZEROS = OrderCoefficients(a=(0.0, 0.5, -0.0), b=(-0.0, 0.0, 0.25),
                                 alpha=(-0.0, -0.0, 0.0), beta=(0.75, -0.0, -0.0))
# an all-zero order block and signed-zero coefficients are where a jet
# coefficient that skips or adds a zero term would flip the sign of a zero
EDGE_KINDS = ("random", "zero block", "signed zeros")


def _edge_config(rng, kind: str) -> SystemConfig:
    cfg = random_config(rng, 3, 5)
    if kind == "random":
        return cfg
    orders = list(cfg.orders)
    orders[1] = OrderCoefficients()
    if kind == "signed zeros":
        orders[0] = orders[3] = SIGNED_ZEROS
    return SystemConfig(n=3, k=5, orders=tuple(orders))


@pytest.mark.parametrize("sign", [+1, -1])
def test_f_r_jets_are_a_prefix_of_the_full_list(rng, sign):
    # F_i comes at r-order order + 1 - i, all that the sector integrands read;
    # each of its coefficients has the bits of the full-order f_all jet's
    for kind, theta in itertools.product(EDGE_KINDS, (0.9, 0.0, np.linspace(0.0, 6.0, 9))):
        cfg = _edge_config(rng, kind)
        field = PolarField(cfg)
        full = field.f_all(sign, Jet.variable(1.3, cfg.k), theta)
        for order in range(cfg.k):
            part = field.f_r_jets(sign, 1.3, theta, order)
            assert len(part) == order + 1
            for i, (a, b) in enumerate(zip(part, full), start=1):
                assert a.order == order + 1 - i
                assert _same(a, b.truncate(order + 1 - i))
        for i in range(1, cfg.k + 1):
            assert _same(field.f(i, sign, 1.3, theta), field.f_all(sign, 1.3, theta)[i - 1])


def test_f_r_jets_with_a_sign_per_row_match_each_side(rng):
    # one call over both sides' nodes gives each row the bits of its own side
    field = PolarField(random_config(rng, 3, 4))
    theta = np.array([np.linspace(a, a + 1.0, 7) for a in (0.1, 2.0, 4.0)])
    rows = field.f_r_jets(np.array([[-1], [+1], [-1]]), 1.3, theta, 3)
    for r, sign in enumerate((-1, +1, -1)):
        alone = field.f_r_jets(sign, 1.3, theta[r], 3)
        assert all(_same(Jet([c[r] for c in a.c]), b) for a, b in zip(rows, alone))


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_f_r_jets_with_a_sign_and_radius_per_row_match_f_all(rng, kind):
    # the recursion's call: a (rows, 1) sign and r against (rows, nodes) angles
    cfg = _edge_config(rng, kind)
    field = PolarField(cfg)
    signs, r = np.array([[-1], [+1], [-1], [+1]]), np.array([[0.7], [1.3], [2.0], [1.0]])
    theta = np.array([np.linspace(a, a + 1.5, 6) for a in (0.0, 1.0, 3.0, 4.5)])
    rows = field.f_r_jets(signs, r, theta, cfg.k - 1)
    for k in range(len(r)):
        full = field.f_all(int(signs[k, 0]), Jet.variable(float(r[k, 0]), cfg.k), theta[k])
        for i, (a, b) in enumerate(zip(rows, full), start=1):
            assert _same(Jet([c[k] for c in a.c]), b.truncate(cfg.k - i))


def test_r_jet_coefficients_from_two_on_share_one_read_only_array(rng):
    field = PolarField(_edge_config(rng, "signed zeros"))
    r, theta = np.array([[0.7], [1.3]]), np.array([[0.0, 0.4], [2.0, 3.1]])
    s, c = np.sin(theta), np.cos(theta)
    sides = field._sides(np.array([[-1], [+1]]), 3, 2)
    for expr in (polar._radial, polar._angular_num):
        jets = polar._affine_r_jets(expr, sides, Jet.variable(r, 2).c, s, c, [4, 4, 1])
        for jet in jets[:2]:
            assert jet.c[2] is jet.c[3] is jet.c[4]
            with pytest.raises(ValueError):
                jet.c[2] += 1.0
            assert not np.any(jet.c[2])
        assert jets[2].order == 1


def _per_order_r_jets(field, sign, r, theta, order):
    """``f_r_jets`` by its reference evaluation: each order's side picked and
    each of its r-coefficients evaluated on its own."""
    s, c = np.sin(theta), np.cos(theta)
    rvar = Jet.variable(r, 2).c
    upto = min(order + 1, field.k)

    def side(i):
        oc = field.config.order(i)
        both = np.array((oc.a + oc.b, oc.alpha + oc.beta)).reshape((2, 6) + (1,) * sign.ndim)
        pick = np.where(sign > 0, both[0], both[1])
        return tuple(pick[:3]), tuple(pick[3:])

    def affine_r_jet(expr, coeffs, d):
        terms = [expr(coeffs, rm, s, c, m == 0) for m, rm in enumerate(rvar[:d + 1])]
        return Jet._of(terms + terms[2:] * (d - 2))

    A = [affine_r_jet(polar._radial, side(i), order + 1 - i) for i in range(1, upto + 1)]
    B = [affine_r_jet(polar._angular_num, side(i), order - i) / Jet.variable(r, order - i)
         for i in range(1, upto)]
    return polar._divide(A, B)


@pytest.mark.parametrize("k", [6, 3])
def test_stacked_r_jets_equal_the_per_order_evaluation_bit_for_bit(rng, monkeypatch, k):
    # the recursion's node sets of a float x and of a 5-point grid, every fit
    # started at degree 8 so that the refits cover different open rows; k = 3
    # puts order + 1 above k.  A call evaluates A_i and r B_i once per
    # r-coefficient, on the orders that reach it, so at most 3 times each.
    cfg = random_config(rng, 3, k)
    calls, counts = [], []
    f_r_jets = PolarField.f_r_jets
    monkeypatch.setattr(recursion, "CHEB_START_DEGREE", 8)
    monkeypatch.setattr(PolarField, "f_r_jets", lambda self, *args: calls.append(args)
                        or f_r_jets(self, *args))
    for x in (1.1, np.geomspace(0.6, 1.9, 5)):
        ZTable(cfg, x, k)
    monkeypatch.undo()
    assert len({theta.shape[0] for _, _, theta, _ in calls}) > 2
    field = PolarField(cfg)
    wants = [[_per_order_r_jets(field, sign, r, theta, order) for order in range(6)]
             for sign, r, theta, _ in calls]
    for name in ("_radial", "_angular_num"):
        monkeypatch.setattr(polar, name, lambda *args, name=name, expr=getattr(polar, name):
                            counts.append((name, len(args[0][0][0]))) or expr(*args))
    for (sign, r, theta, _), want in zip(calls, wants):
        for order in range(6):
            counts.clear()
            got = field.f_r_jets(sign, r, theta, order)
            # coefficient m = 0, 1, 2 on the orders whose r-order reaches it:
            # A_i has r-order order + 1 - i, B_i one less, both i <= upto
            upto = min(order + 1, k)
            assert sorted(counts) == sorted(
                (name, count) for name, most, top in (
                    ("_radial", upto, order + 1), ("_angular_num", upto - 1, order))
                for m in range(3) for count in [min(most, top - m)] if count > 0)
            assert max(Counter(name for name, _ in counts).values()) <= 3
            assert len(got) == len(want[order]) == upto
            assert all(_same(a, b) for a, b in zip(got, want[order]))


@pytest.mark.parametrize("degree", [0, 1, 2, 4])
def test_nested_jets_keep_the_total_degree_triangle_exactly(rng, degree):
    cfg = random_config(rng, 2, 6)
    field = PolarField(cfg)
    r, t0 = 0.8, 2.3
    # rectangular reference: every r-coefficient carries the full t-order
    tj = Jet.variable(t0, degree)
    rj = Jet([Jet.constant(r, degree), Jet.constant(1.0, degree)], order=degree)
    rect = field.f_all(-1, rj, Jet.constant(tj, degree))
    tri = field.f_nested_jets(-1, endpoint_triangles(r, t0, degree))
    assert len(tri) == degree + 1
    # entry i keeps total degree degree + 1 - i, the most the recursion reads
    for i, (got, want) in enumerate(zip(tri, rect), start=1):
        assert got.degree == degree + 1 - i
        for L in range(degree + 2 - i):
            assert _same(got.tjet(L, degree + 1 - i - L), want.c[L].truncate(degree + 1 - i - L))
