import math
import warnings

import numpy as np
import pytest
from scipy.fft import dct
from scipy.integrate import quad

from conftest import random_config
from melnlab import recursion
from melnlab.closedforms import m1_closed, v_zero_coefficients
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.errors import DomainError, NumericalError, SequencingError
from melnlab.geometry import switching_angles
from melnlab.polar import PolarField, endpoint_triangles
from melnlab.recursion import CHEB_START_DEGREE, ZTable, _dct2, melnikov, melnikov_all
from melnlab.series import Jet


def melfun_quadrature(config, r):
    """Three-piece first-order integral, independent adaptive quadrature."""
    field = PolarField(config)
    t1, t2 = switching_angles(r, config.n)
    total = 0.0
    for (a, b, sign) in ((0.0, t1, -1), (t1, t2, +1), (t2, 2 * math.pi, -1)):
        val, _ = quad(lambda s: field.f(1, sign, r, s), a, b, epsabs=1e-13, limit=200)
        total += val
    return total


def second_order_quadrature(config, x):
    """Second-order double integral plus jump terms, nested quadrature.

    theta-prime comes from central differences of the root-solved angle, so
    the oracle shares nothing with the jet path.
    """
    field = PolarField(config)
    t1, t2 = switching_angles(x, config.n)
    bounds = [0.0, t1, t2, 2 * math.pi]
    signs = [-1, +1, -1]

    def sector(t):
        return 0 if t < t1 else (1 if t < t2 else 2)

    def dF1(t):
        h = 1e-6 * max(1.0, x)
        j = sector(t)
        return (field.f(1, signs[j], x + h, t) - field.f(1, signs[j], x - h, t)) / (2 * h)

    z_bnd = [0.0]
    for j in range(3):
        v, _ = quad(lambda s: field.f(1, signs[j], x, s), bounds[j], bounds[j + 1],
                    epsabs=1e-13, limit=200)
        z_bnd.append(z_bnd[-1] + v)

    def z1_fn(t):
        j = sector(t)
        v, _ = quad(lambda s: field.f(1, signs[j], x, s), bounds[j], t,
                    epsabs=1e-13, limit=200)
        return z_bnd[j] + v

    total = 0.0
    for j in range(3):
        v, _ = quad(lambda s: dF1(s) * z1_fn(s) + field.f(2, signs[j], x, s),
                    bounds[j], bounds[j + 1], epsabs=1e-11, limit=300)
        total += v
    h = 1e-5
    for j, thj in ((1, t1), (2, t2)):
        tp = switching_angles(x + h, config.n)[j - 1]
        tm = switching_angles(x - h, config.n)[j - 1]
        alpha1 = (tp - tm) / (2 * h) * z_bnd[j]
        jump = field.f(1, signs[j - 1], x, thj) - field.f(1, signs[j], x, thj)
        total += jump * alpha1
    return total


def test_zero_config_all_orders_zero():
    cfg = SystemConfig(n=3, k=4, orders=tuple(OrderCoefficients() for _ in range(4)))
    assert melnikov_all(cfg, 1.2, 4) == [0.0, 0.0, 0.0, 0.0]


def test_z1_equals_closed_antiderivative(rng):
    # only the lower field active: z_1^0 on [0, theta_1] has an elementary form
    al0, al1, al2 = 0.7, -0.4, 0.9
    be0, be1, be2 = 0.2, 0.5, -0.3
    cfg = SystemConfig(n=3, k=1, orders=(
        OrderCoefficients(alpha=(al0, al1, al2), beta=(be0, be1, be2)),))
    x = 1.1
    t1, _ = switching_angles(x, 3)

    def antiderivative(t):
        # integral of F_1^- = -(cos(s)(al0 + x(al2+be1) sin s) + al1 x cos^2 s
        #                       + sin s (be0 + be2 x sin s))
        return -(al0 * math.sin(t) + x * (al2 + be1) * math.sin(t)**2 / 2
                 + al1 * x * (t + math.sin(t) * math.cos(t)) / 2
                 - be0 * math.cos(t) + be0
                 + be2 * x * (t - math.sin(t) * math.cos(t)) / 2)

    for t in (0.3 * t1, 0.8 * t1, t1):
        assert ZTable(cfg, x, 1).z(1, 0, t) == pytest.approx(antiderivative(t), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_melnikov1_matches_three_piece_integral(rng, n):
    for _ in range(3):
        cfg = random_config(rng, n, 1)
        for r in (0.6, 1.0, 1.8):
            assert melnikov(cfg, 1, r) == pytest.approx(melfun_quadrature(cfg, r), abs=1e-11)
            assert melnikov(cfg, 1, r) == pytest.approx(m1_closed(cfg, r), abs=1e-11)


@pytest.mark.parametrize("n", [2, 3])
def test_melnikov2_matches_double_integral_oracle(rng, n):
    for _ in range(2):
        cfg = random_config(rng, n, 2)
        for x in (0.8, 1.4):
            assert melnikov(cfg, 2, x) == pytest.approx(second_order_quadrature(cfg, x), abs=1e-8)


def test_jump_terms_are_necessary(rng):
    # discontinuous first order: the delta corrections add (jump(2,1) + jump(2,2))/2!
    # to M2, and that contribution must not vanish
    cfg = random_config(rng, 3, 2)
    table = ZTable(cfg, 1.1, 2)
    assert abs(table.jump(2, 1) + table.jump(2, 2)) / 2.0 > 1e-6


def test_jump_corrections_vanish_for_continuous_field(rng):
    block = OrderCoefficients(a=(0.4, -0.2, 0.7), b=(0.1, 0.3, -0.5),
                              alpha=(0.4, -0.2, 0.7), beta=(0.1, 0.3, -0.5))
    cfg = SystemConfig(n=3, k=2, orders=(block, block))
    table = ZTable(cfg, 1.2, 2)
    assert table.jump(2, 1) == pytest.approx(0.0, abs=1e-13)
    assert table.jump(2, 2) == pytest.approx(0.0, abs=1e-13)


def test_alpha1_structure(rng):
    cfg = random_config(rng, 2, 2)
    table = ZTable(cfg, 1.3, 2)
    from melnlab.geometry import theta1_jet
    t1p = theta1_jet(1.3, 2, 1).derivative(1)
    # alpha_j^1 = theta_j'(x) * w_1^j with w_1^j the upstream z at the angle
    assert table.alpha(1, 1) == pytest.approx(t1p * table.w(1, 1), rel=1e-12)
    assert table.alpha(1, 2) == pytest.approx(-t1p * table.w(1, 2), rel=1e-12)


def test_unperturbed_alpha_vanishes():
    cfg = SystemConfig(n=2, k=3, orders=tuple(OrderCoefficients() for _ in range(3)))
    table = ZTable(cfg, 1.0, 3)
    for q in (1, 2):
        for j in (1, 2):
            assert table.alpha(q, j) == 0.0


def test_w2_formula(rng):
    # w_2^j = z_2^{j-1}(theta_j)/2 + dz_1^{j-1}/dt(theta_j) * alpha_j^1
    cfg = random_config(rng, 3, 2)
    x = 0.9
    table = ZTable(cfg, x, 2)
    field = PolarField(cfg)
    t1 = table.theta(1)
    z2_end = table.z(2, 0, t1)
    dz1 = field.f(1, -1, x, t1)   # dz_1^0/dt = F_1^0
    expected = 0.5 * z2_end + dz1 * table.alpha(1, 1)
    assert table.w(2, 1) == pytest.approx(expected, rel=1e-10)


def test_sequencing_and_domain_errors(rng, monkeypatch):
    cfg = random_config(rng, 2, 3)
    table = ZTable(cfg, 1.0, 2)
    with pytest.raises(SequencingError):
        table.melnikov(3)
    with pytest.raises(SequencingError):
        table.alpha(2, 1)   # needs order 3 built
    with pytest.raises(DomainError):
        table.z(1, 0, 6.0)  # outside sector 0
    with pytest.raises(DomainError):
        melnikov(cfg, 1, -0.5)
    builds = []
    monkeypatch.setattr(ZTable, "_build", lambda self: builds.append(self.order))
    for order_zero in (lambda: melnikov(cfg, 0, 1.0), lambda: melnikov_all(cfg, 1.0, 0)):
        with pytest.raises(DomainError):
            order_zero()
    assert builds == []


def test_non_finite_melnikov_value_raises(rng):
    # at n = 1100 and x = 2, theta1_jet's r^(n-1) overflows while cos^n
    # underflows, and inf * 0 puts a NaN into M_2 through the jump terms
    cfg = random_config(rng, 1100, 2)
    assert math.isfinite(ZTable(cfg, 2.0, 1).melnikov(1))
    with pytest.raises(NumericalError, match=r"M_2 .* x = 2\.0 .* n = 1100"):
        ZTable(cfg, 2.0, 2)


@pytest.mark.parametrize("n", [1030, 1100])
def test_underflowed_crossing_angle_raises_before_any_fit(rng, n):
    # at x = 0.5, theta1 = atan(x^(n-1)) is subnormal (n = 1030) or 0 (n = 1100);
    # a fit over sector 0 = [0, theta1] would warn of a divide by zero or an
    # overflow in numpy's Chebyshev domain map and end in "M_1 is not finite"
    cfg = random_config(rng, n, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"theta1 .* x = 0\.5, n = {n}"):
            ZTable(cfg, 0.5, 1)


def test_melnikov_first_order_identity_any_config(rng):
    # order-1 path and the MelFun integral are the same computation
    for n in (2, 4):
        cfg = random_config(rng, n, 2)
        for r in (0.7, 1.5):
            assert melnikov(cfg, 1, r) == pytest.approx(melfun_quadrature(cfg, r), abs=1e-12)


def test_m2_zero_count_bounded_for_vzero_config(rng):
    # with the reduced first-order block zeroed, M2 is the leading order; its
    # zero count on a grid stays within the second-order ceiling (7 for n=3)
    c1 = v_zero_coefficients(3, rng)
    c2 = v_zero_coefficients(3, rng)
    cfg = SystemConfig(n=3, k=2, orders=(c1, c2))
    assert abs(melnikov(cfg, 1, 1.0)) < 1e-12
    rs = np.geomspace(0.2, 3.0, 400)
    vals = np.array([melnikov(cfg, 2, r) for r in rs])
    signs = np.sign(vals)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert changes <= 7


# melnikov_all at order 6 for random_config(rng, 3, 6) and then
# random_config(rng, 5, 6), as recorded before the field jets were truncated
# to what the recursion reads; the gate is the one for recursion refactors.
PINNED_ORDER6 = (
    (3, 0.6, (-1.9859878422230695, -1.018557482646333, -9.775712418413775,
              -3.246919641871218, -52.435925529271465, -75.76799678469222)),
    (3, 1.1, (-3.1792803156551566, 0.5836556841565701, -9.56080769068585,
              -2.5471293829201667, -25.696309453474456, -40.51628617834944)),
    (3, 1.9, (-4.598329201162987, 1.839758888685509, -9.767648747878566,
              -3.111711283278541, -14.670888643075, -23.248427834971476)),
    (5, 0.6, (2.218008297153161, 2.3871016159151495, 0.6729462511403378,
              -5.25414379955659, -13.484420313475857, 1.7660003483325921)),
    (5, 1.1, (0.12754394293095905, 5.961692594687743, -2.786078057165772,
              -3.244998675360646, -22.451315515386547, 31.4868624519466)),
    (5, 1.9, (-2.547598416752595, 7.43718131778852, -1.3824991920845902,
              5.948263262016066, -38.52990656502514, 15.933817287641185)),
)


def test_endpoint_tjets_stop_at_the_computed_degree(rng):
    # an order-3 table keeps endpoint jets of total degree 1: i + t-order <= 2
    table = ZTable(random_config(rng, 2, 3), 1.0, 3)
    assert table._tjet_K(2, 1, "L", 0).order == 0
    with pytest.raises(AssertionError):
        table._tjet_K(2, 1, "L", 1)


def test_field_is_evaluated_once_per_node_set(rng, monkeypatch):
    # every order reads prefixes of one order-5 field evaluation per
    # (sector, node count); none of that scratch outlives the build
    cfg = random_config(rng, 3, 6)
    calls = []
    f_r_jets = PolarField.f_r_jets

    def counted(self, sign, r, theta, order):
        calls.append((order, theta.min(), theta.size))
        return f_r_jets(self, sign, r, theta, order)

    monkeypatch.setattr(PolarField, "f_r_jets", counted)
    table = ZTable(cfg, 1.1, 6)
    assert {order for order, _, _ in calls} == {5}
    sectors = [int(np.searchsorted(table.bounds, lo, side="right")) - 1 for _, lo, _ in calls]
    assert sorted(set(sectors)) == [0, 1, 2]
    keys = [(j, size) for j, (_, _, size) in zip(sectors, calls)]
    assert len(keys) == len(set(keys))

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from arrays(v)
        elif isinstance(value, Jet):
            yield from arrays(value.c)
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from arrays(v)

    held = [a.size for v in vars(table).values() for a in arrays(v)]
    assert all(size < CHEB_START_DEGREE for size in held), held


def test_order6_values_are_pinned(rng):
    configs = {n: random_config(rng, n, 6) for n in (3, 5)}
    for n, x, want in PINNED_ORDER6:
        got = melnikov_all(configs[n], x, 6)
        assert got == pytest.approx(list(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 16, 17, 33, 97, 1000, 64, 128, 256, 512, 1024])
def test_dct2_equals_scipy_bit_for_bit(rng, size):
    # the Chebyshev fit's DCT-II is a port of pocketfft's, the one scipy runs
    for scale in (1e-20, 1.0, 1e20):
        for vals in scale * rng.standard_normal((20, size)):
            assert np.array_equal(_dct2(vals), dct(vals, type=2))


def test_switching_angle_triangles_are_built_once(rng, monkeypatch):
    # the sectors on either side of a switching angle share its endpoint jets
    built = []

    def counted(r, t0, degree):
        built.append(t0)
        return endpoint_triangles(r, t0, degree)

    monkeypatch.setattr(recursion, "endpoint_triangles", counted)
    table = ZTable(random_config(rng, 3, 4), 1.1, 4)
    assert sorted(built) == [table.bounds[1], table.bounds[2]]
