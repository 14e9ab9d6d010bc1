import importlib.util
import json
import math
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct
from scipy.integrate import quad

from conftest import random_config
from melnlab import recursion
from melnlab.closedforms import m1_closed, v_zero_coefficients
from melnlab.combinatorics import partitions
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.errors import DomainError, NumericalError, SequencingError
from melnlab.geometry import switching_angles
from melnlab.polar import PolarField, endpoint_triangles
from melnlab.recursion import CHEB_START_DEGREE, ZTable, _dct2, melnikov, melnikov_all
from melnlab.series import Jet, TriangleJet


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


@pytest.mark.parametrize("call", [
    lambda table: table.z(1, 3, 0.5),
    lambda table: table.w(1, 0),
    lambda table: table.alpha(1, 3),
    lambda table: table.jump(2, 0),
], ids=["sector-3", "w-at-switch-0", "alpha-at-switch-3", "jump-at-switch-0"])
def test_bad_sector_or_switch_index_is_a_domain_error(rng, call):
    table = ZTable(random_config(rng, 2, 2), 1.0, 2)
    with pytest.raises(DomainError):
        call(table)


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


# the two sides of both switching angles, as (sector, side)
ENDPOINT_SIDES = ((0, "R"), (1, "L"), (1, "R"), (2, "L"))


def test_endpoint_tjets_stop_at_the_computed_degree(rng):
    # an order-3 table keeps endpoint jets of total degree 1: i + t-order <= 2;
    # the t-jet of z_i is built once, at t-order 3 - i, and read truncated
    table = ZTable(random_config(rng, 2, 3), 1.0, 3)
    assert {key: jet.order for key, jet in table._tjets.items()} == {
        (i, j, side): 3 - i for i in (1, 2) for j, side in ENDPOINT_SIDES}
    assert table._tjet_K(2, 1, "L", 0).order == 0
    with pytest.raises(AssertionError):
        table._tjet_K(2, 1, "L", 1)
    with pytest.raises(AssertionError):
        table._tjet_z(2, 1, "L", 2)
    assert table._tjet_z(1, 1, "L", 1).c == table._tjets[(1, 1, "L")].c[:2]


def test_endpoint_jets_are_built_once_per_side(rng, monkeypatch):
    # an order-6 float table evaluates the field's (r, t)-jets once per side of
    # a switching angle and makes one chain sum per (i, j, side), i = 1..5: the
    # t-jet of K_i at its top order 5 - i, which every lower order truncates.
    # The orders that read the same z_m share one dict of chain-rule
    # monomials: each is built once per node set and once per endpoint side.
    tjets, chain_sums, nested, node_sets, built = [], [], [], [], []
    tjet_K, chain_sum, f_nested_jets, f_r_jets = ZTable._tjet_K, recursion._chain_sum, \
        PolarField.f_nested_jets, PolarField.f_r_jets

    class Recorded(dict):
        """Stand-in for one dict the recursion shares: records each entry built."""

        def __init__(self, endpoint):
            super().__init__()
            self.endpoint, self.top = endpoint, 0

        def __setitem__(self, key, value):
            built.append((id(self), key))
            super().__setitem__(key, value)

    stand_ins = {}

    def counted_tjet_K(self, i, j, side, order):
        tjets.append((i, j, side, order))
        return tjet_K(self, i, j, side, order)

    def counted_chain_sum(i, fs, zs, dF, monomials):
        endpoint = isinstance(fs[0], TriangleJet)
        if endpoint:
            chain_sums.append(i)
        stand_in = stand_ins.setdefault(id(monomials), Recorded(endpoint))
        stand_in.top = max(stand_in.top, i)
        return chain_sum(i, fs, zs, dF, stand_in)

    def counted_nested(self, sign, triangles):
        nested.append(sign)
        return f_nested_jets(self, sign, triangles)

    def counted_r_jets(self, sign, r, theta, order):
        node_sets.append(theta.shape)
        return f_r_jets(self, sign, r, theta, order)

    monkeypatch.setattr(ZTable, "_tjet_K", counted_tjet_K)
    monkeypatch.setattr(recursion, "_chain_sum", counted_chain_sum)
    monkeypatch.setattr(PolarField, "f_nested_jets", counted_nested)
    monkeypatch.setattr(PolarField, "f_r_jets", counted_r_jets)
    ZTable(random_config(rng, 3, 6), 1.1, 6)
    assert sorted(tjets) == sorted((i, j, side, 5 - i) for i in range(1, 6)
                                   for j, side in ENDPOINT_SIDES)
    assert len(chain_sums) == 20
    assert sorted(nested) == [-1, -1, 1, 1]

    # no entry is built twice, and the partitions' monomials (keys >= 0;
    # powers are keyed by -m) are those of l < the highest order read
    assert len(set(built)) == len(built)
    monomials = Counter(ident for ident, key in built if min(key) >= 0)
    for stand_in in stand_ins.values():
        assert monomials[id(stand_in)] == sum(len(partitions(l)) for l in range(1, stand_in.top))
    endpoint = [stand_in for stand_in in stand_ins.values() if stand_in.endpoint]
    assert len(stand_ins) - len(endpoint) == len(node_sets)
    # the 11 partitions of 1..4 once per side, where a chain sum per order built 21
    assert len(endpoint) == 4
    assert sum(monomials[id(stand_in)] for stand_in in endpoint) == 4 * 11


def test_field_is_evaluated_once_per_node_set(rng, monkeypatch):
    # every order reads prefixes of one order-5 field evaluation per node
    # set; none of that scratch outlives the build (the kept coefficient
    # series of z_i are not scratch)
    cfg = random_config(rng, 3, 6)
    calls = []
    f_r_jets = PolarField.f_r_jets

    def counted(self, sign, r, theta, order):
        calls.append((order, np.array(theta)))
        return f_r_jets(self, sign, r, theta, order)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from arrays(v)
        elif isinstance(value, (Jet, TriangleJet)):
            yield from arrays(value.c)
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from arrays(v)

    monkeypatch.setattr(PolarField, "f_r_jets", counted)
    for start in (CHEB_START_DEGREE, 8):   # from degree 8, some sectors refit alone
        monkeypatch.setattr(recursion, "CHEB_START_DEGREE", start)
        calls.clear()
        table = ZTable(cfg, 1.1, 6)
        assert {order for order, _ in calls} == {5}
        assert calls[0][1].shape == (3, start)
        assert len(calls) > 1 or start == CHEB_START_DEGREE
        keys = [theta.tobytes() for _, theta in calls]
        assert len(keys) == len(set(keys))
        for _, theta in calls:
            sectors = np.searchsorted(table.bounds, theta.ravel(), side="right") - 1
            assert set(np.bincount(sectors, minlength=3).tolist()) <= {0, theta.shape[1]}
        held = [a.size for name, v in vars(table).items() if name != "_coef"
                for a in arrays(v)]
        assert all(size < start for size in held), held


@pytest.mark.parametrize("x", [1.1, np.geomspace(0.6, 1.9, 5)])
def test_a_refinement_evaluates_only_the_active_rows(rng, monkeypatch, x):
    # from degree 8 some (point, sector) rows converge before others; each
    # field evaluation covers exactly the rows of the fit block it feeds,
    # that is (active rows) x n nodes, and the first one every row
    monkeypatch.setattr(recursion, "CHEB_START_DEGREE", 8)
    events = []
    f_r_jets, dct2 = PolarField.f_r_jets, recursion._dct2

    def field(self, sign, r, theta, order):
        events.append(("field", np.shape(theta)))
        return f_r_jets(self, sign, r, theta, order)

    monkeypatch.setattr(PolarField, "f_r_jets", field)
    monkeypatch.setattr(recursion, "_dct2", lambda v: events.append(("fit", v.shape)) or dct2(v))
    cfg = random_config(rng, 3, 6)
    got = melnikov_all(cfg, x, 6)
    rows = 3 * np.size(x)
    assert events[0] == ("field", (rows, 8))
    for k, (kind, shape) in enumerate(events):
        if kind == "field":
            assert events[k + 1] == ("fit", shape)
    refits = [shape for kind, shape in events if kind == "fit" and shape[1] > 8]
    assert refits and min(a for a, _ in refits) < rows
    # rows that refit alone keep the bits of their own float table
    want = [melnikov_all(cfg, xp, 6) for xp in np.atleast_1d(x).tolist()]
    assert np.array_equal(np.array(got).reshape(6, -1), np.array(want).T)


# melnikov_all to order 6 and z_1, z_6 at each sector's midpoint for the
# first random_config(rng, 3, 6), every fit started at degree 8, as float.hex;
# recorded from the per-sector fit on numpy's Chebyshev class.
PINNED_START8 = {
    0.6: (('-0x1.fc69b3009a086p+0', '-0x1.04c02ee50fe54p+0', '-0x1.38d2a2d98605fp+3',
           '-0x1.9f9b101549dabp+1', '-0x1.a37cc6861db30p+5', '-0x1.2f126dbfc6be8p+6'),
          ('-0x1.8deffeffe36b0p-3', '-0x1.b1008b15bec20p-3', '-0x1.b192b35f97580p-8',
           '0x1.e096bd4c2ce23p+8', '0x1.0c31ebfb54907p+14', '-0x1.b2de3643bddb8p+15')),
    1.1: (('-0x1.96f2a84a47194p+1', '0x1.2ad4eaf727698p-1', '-0x1.31f222f85ae99p+3',
           '-0x1.460855eb29517p+1', '-0x1.9b241561a9186p+4', '-0x1.44215aa5db1a3p+5'),
          ('-0x1.cd70812669853p-2', '-0x1.00b5b39f1df57p+0', '-0x1.18cd681d18082p+0',
           '0x1.d43cfde1dd17cp+9', '0x1.f6a0154a2524dp+11', '-0x1.5d44465461169p+15')),
}


def test_sectors_that_stop_at_different_degrees_keep_every_bit(rng, monkeypatch):
    # from degree 8 the sectors converge at different degrees, so some
    # orders refit one or two sectors alone at twice the degree
    monkeypatch.setattr(recursion, "CHEB_START_DEGREE", 8)
    blocks = []
    dct2 = recursion._dct2
    monkeypatch.setattr(recursion, "_dct2", lambda x: blocks.append(x.shape) or dct2(x))
    cfg = random_config(rng, 3, 6)
    for x, (want_m, want_z) in PINNED_START8.items():
        blocks.clear()
        assert [v.hex() for v in melnikov_all(cfg, x, 6)] == list(want_m)
        assert {rows for rows, _ in blocks} == {1, 2, 3}
        table = ZTable(cfg, x, 6)
        got_z = [table.z(i, j, 0.5 * (table.bounds[j] + table.bounds[j + 1]))
                 for i in (1, 6) for j in range(3)]
        assert [v.hex() for v in got_z] == list(want_z)


@pytest.mark.parametrize("side, sector", [("below", 0), ("above", 1)])
def test_unconverged_fit_names_the_lowest_failing_sector(monkeypatch, side, sector):
    # one side of the field is zero, so its sectors converge at once; a
    # negative tolerance fails every other sector at the first degree
    monkeypatch.setattr(recursion, "CHEB_MAX_DEGREE", CHEB_START_DEGREE)
    monkeypatch.setattr(recursion, "CHEB_REL_TOL", -1.0)
    field = {"a" if side == "above" else "alpha": (0.7, -0.4, 0.9),
             "b" if side == "above" else "beta": (0.2, 0.5, -0.3)}
    cfg = SystemConfig(n=3, k=1, orders=(OrderCoefficients(**field),))
    bounds = (0.0, *switching_angles(1.1, 3), 2 * math.pi)
    interval = re.escape(f"[{bounds[sector]}, {bounds[sector + 1]}]")
    with pytest.raises(NumericalError, match=rf"on {interval} .*\(degree {CHEB_START_DEGREE},"):
        ZTable(cfg, 1.1, 1)


def test_order6_values_are_pinned(rng):
    # bit for bit, by the float call and by one grid call per config
    configs = {n: random_config(rng, n, 6) for n in (3, 5)}
    for n, x, want in PINNED_ORDER6:
        assert [v.hex() for v in melnikov_all(configs[n], x, 6)] == [w.hex() for w in want]
    for n, cfg in configs.items():
        xs = [x for m, x, _ in PINNED_ORDER6 if m == n]
        want = [w for m, _, w in PINNED_ORDER6 if m == n]
        got = melnikov_all(cfg, np.array(xs), 6).T.tolist()
        assert [[v.hex() for v in row] for row in got] == \
            [[w.hex() for w in row] for row in want]


def _benchmark_workloads():
    """perfbench/workloads.py, loaded for its seeded ``deep`` inputs only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_deep_benchmark_bank_keeps_its_reference_bits():
    # all 384 rows (16 banks x 3 configs x 8 points) of the benchmark's
    # ``deep`` references, M_1..M_6 by the float call, bit for bit
    wl = _benchmark_workloads()
    refs = json.loads((Path(wl.__file__).parent / "references.json").read_text())["deep"]
    assert len(refs) == 16
    for bank, rows in refs.items():
        configs = wl.deep_configs(int(bank))
        assert len(configs) == len(rows) == 3
        for cfg, want in zip(configs, rows):
            got = [melnikov_all(cfg, x, 6) for x in wl.deep_grid()]
            assert len(got) == len(want) == 8
            assert [[v.hex() for v in row] for row in got] == \
                [[float(w).hex() for w in row] for row in want], (bank, cfg.n)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 16, 17, 33, 97, 1000, 64, 128, 256, 512, 1024])
def test_dct2_equals_scipy_bit_for_bit(rng, size):
    # the Chebyshev fit's DCT-II is a port of pocketfft's, the one scipy runs;
    # a block of rows goes through one inverse FFT
    for scale in (1e-20, 1.0, 1e20):
        block = scale * rng.standard_normal((20, size))
        for vals in block:
            assert np.array_equal(_dct2(vals), dct(vals, type=2))
        for rows in (block, block[:3], block[:1]):
            assert np.array_equal(_dct2(rows), dct(rows, type=2, axis=-1))


def test_switching_angle_triangles_are_built_once(rng, monkeypatch):
    # the sectors on either side of a switching angle share its endpoint jets
    built = []

    def counted(r, t0, degree):
        built.append(t0)
        return endpoint_triangles(r, t0, degree)

    monkeypatch.setattr(recursion, "endpoint_triangles", counted)
    table = ZTable(random_config(rng, 3, 4), 1.1, 4)
    assert sorted(built) == [table.bounds[1], table.bounds[2]]


def test_pow_rounds_like_cpython_on_arrays(rng):
    # numpy's power differs from CPython's in the last bit for some bases
    bases = rng.standard_normal(2000) * np.exp(rng.uniform(-5.0, 5.0, 2000))
    for p in (1, 2, 3, 4, 5):
        assert recursion._pow(bases, p).tolist() == [b ** p for b in bases.tolist()]
        assert recursion._pow(1.7, p) == 1.7 ** p


@pytest.mark.parametrize("length", [2, 3, 65, 300])
def test_clenshaw_on_a_spread_block_keeps_the_broadcast_bits(rng, length):
    # a small block runs on spread coefficients in reused buffers, a large one
    # broadcasts; signed zeros, subnormals and a zero high end included
    for rows in (1, 3, 40):
        u = rng.uniform(-1.0, 1.0, (rows, 64))
        u[0, :3] = (0.0, -0.0, 1.0)
        c = rng.standard_normal((length, rows, 1)) * np.exp(rng.uniform(-30, 30, (length, rows, 1)))
        c[-1:, 0] = -0.0
        c[0, -1] = 5e-324
        got, want = recursion._chebval_nodes(u, c), recursion._chebval(u, c)
        assert got.tobytes() == want.tobytes()
    # one point's 3 x 64 nodes at a degree-64 fit are spread, 40 rows are not
    assert 65 * 3 * 64 <= recursion.SPREAD_MAX < 65 * 40 * 64


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_grid_equals_the_per_point_loop(n, seed):
    # one pass over the grid gives each point the bits of its own float table
    cfg = random_config(np.random.default_rng(seed), n, 6)
    xs = np.geomspace(0.5, 2.0, 8)
    for order in range(1, 7):
        got = melnikov_all(cfg, xs, order)
        want = np.array([melnikov_all(cfg, x, order) for x in xs.tolist()]).T
        assert got.shape == (order, 8)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_point_grid_equals_the_float_call(rng):
    cfg = random_config(rng, 3, 4)
    for x in (0.6, 1.1, 1.9):
        values = melnikov_all(cfg, x, 4)
        assert isinstance(values, list) and all(type(v) is float for v in values)
        assert melnikov_all(cfg, np.array([x]), 4).tolist() == [[v] for v in values]
        assert melnikov(cfg, 3, [x]).tolist() == [melnikov(cfg, 3, x)]


@pytest.mark.parametrize("bad", [0, 3, 7])
@pytest.mark.parametrize("value", [0.0, -0.5])
def test_a_bad_grid_point_raises_like_the_per_point_loop(rng, bad, value):
    cfg = random_config(rng, 3, 2)
    xs = np.geomspace(0.5, 2.0, 8)
    xs[bad] = value
    for call in (lambda x: melnikov(cfg, 2, x), lambda x: melnikov_all(cfg, x, 2)):
        with pytest.raises(DomainError):
            call(xs)
        with pytest.raises(DomainError):
            [call(x) for x in xs.tolist()]
    for shape in ((0,), (2, 2)):
        with pytest.raises(DomainError):
            ZTable(cfg, np.ones(shape), 2)


def test_grid_names_the_non_finite_point_quietly(rng):
    # n = 1100: theta1_jet overflows at x = 2 only; the grid raises the per-point
    # error, and no RuntimeWarning from inf * 0 in its array arithmetic
    cfg = random_config(rng, 1100, 2)
    xs = np.geomspace(1.5, 2.0, 4)
    match = r"M_2 is not finite at x = 2\.0 \(switching degree n = 1100\)"
    with pytest.raises(NumericalError, match=match):
        [melnikov_all(cfg, x, 2) for x in xs.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=match):
            melnikov_all(cfg, xs, 2)
