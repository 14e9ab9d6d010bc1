import math
from fractions import Fraction

import numpy as np
import pytest

from melnlab import basis
from melnlab.basis import (BasisFunction, family, family_G, family_H8, family_H_pencil,
                          family_J0, jet_derivative, u)
from melnlab.errors import DomainError
from melnlab.series import Jet


def test_simple_generators():
    assert u(1, 3)(2.0) == 1.0
    assert u(2, 3)(2.0) == 2.0
    assert u(4, 1)(3.0) == 9.0
    assert u(12, 1)(2.0) == 2.0 * (1 + 16.0)
    assert u(15, 1)(1.0) == pytest.approx(2.0 * math.atan(1.0))
    assert u(14, 2)(1.0) == pytest.approx(1.0 + 5.0)


def test_constant_jet():
    jet = u(1, 2).jet(5.0, 4)
    assert jet.value == 1.0
    assert all(jet.coefficient(m) == 0.0 for m in range(1, 5))


def test_monomial_jet_derivatives():
    jet = u(4, 1).jet(3.0, 3)      # x^2 at x = 3
    assert jet.derivative(0) == 9.0
    assert jet.derivative(1) == 6.0
    assert jet.derivative(2) == 2.0
    assert jet.derivative(3) == 0.0


def _fraction_pow(x, num, den=1):
    """The reference for basis._pow: the exponent as a Fraction, an int when whole."""
    e = Fraction(num, den)
    e = int(e) if e.denominator == 1 else e
    if isinstance(x, Jet):
        return x ** e if isinstance(e, int) else x.power(float(e))
    return x ** (e if isinstance(e, int) else float(e))


@pytest.mark.parametrize("k", range(1, 7))
def test_integer_pair_exponents_give_the_bits_of_fractions(monkeypatch, k):
    # u18..u23 carry the exponents 1/k, (3k+1)/k, (2k+3)/2k, (k+1)/k and 3/2k
    members = [u(i, k) for i in range(18, 24)]
    xs = np.geomspace(0.1, 10.0, 7)
    got = [(bf(xs), bf.jet(1.3, 3).c) for bf in members]
    monkeypatch.setattr(basis, "_pow", _fraction_pow)
    want = [(bf(xs), bf.jet(1.3, 3).c) for bf in members]
    for (values, jet), (ref_values, ref_jet) in zip(got, want):
        assert np.array_equal(values, ref_values) and jet == ref_jet


@pytest.mark.parametrize("ident", list(range(1, 24)))
def test_jets_match_finite_differences(ident):
    k = 2
    bf = u(ident, k)
    h = 1e-4
    for x0 in (0.5, 1.0, 2.2):
        jet = bf.jet(x0, 4)
        f = lambda x: bf(x)
        fd1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
        fd3 = (f(x0 + 2 * h) - 2 * f(x0 + h) + 2 * f(x0 - h) - f(x0 - 2 * h)) / (2 * h**3)
        scale = max(1.0, abs(jet.derivative(1)))
        assert jet.derivative(1) == pytest.approx(fd1, rel=1e-6, abs=1e-6 * scale)
        scale2 = max(1.0, abs(jet.derivative(2)))
        assert jet.derivative(2) == pytest.approx(fd2, rel=1e-5, abs=1e-4 * scale2)
        scale3 = max(1.0, abs(jet.derivative(3)))
        assert jet.derivative(3) == pytest.approx(fd3, rel=1e-3, abs=1e-2 * scale3)


def test_u15_derivatives_against_central_differences():
    # step 1e-4 for the first two orders; the third-order quotient needs a
    # larger step to stay under 1e-6 of its own rounding noise
    bf = u(15, 1)
    x0, h, h3 = 1.0, 1e-4, 1e-3
    jet = bf.jet(x0, 3)
    f = lambda x: bf(x)
    fd = [
        (f(x0 + h) - f(x0 - h)) / (2 * h),
        (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2,
        (f(x0 + 2 * h3) - 2 * f(x0 + h3) + 2 * f(x0 - h3) - f(x0 - 2 * h3)) / (2 * h3**3),
    ]
    for m, want in enumerate(fd, start=1):
        rel = abs(jet.derivative(m) - want) / max(1.0, abs(want))
        assert rel <= 1e-6, (m, jet.derivative(m), want)


def test_u24_with_lambda():
    val = u(24, 1, lam=2.0)(1.0)
    # evaluate the printed expression directly at k=1, lam=2, x=1
    k, lv, x = 1, 2.0, 1.0
    expected = (x**5 * lv**3 * 27 + x**2 * (3 * 15 * lv**2 + 1)
                + lv * x * (-4 * lv**2 - 2 * (lv**2 - 3) + 3) + 1
                + 3 * (lv * x**3 * (5 * lv**2 + (4 * lv**2 - 6) + 3)
                       + x**4 * (3 * lv**2 + (6 * lv**2 + 2))))
    assert val == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        u(24, 1)


def test_family_lengths_and_order():
    assert [b.label for b in family("F1", 1)] == ["u1^1", "u12^1", "u4^1"]
    assert len(family("F2", 2)) == 4
    assert len(family("F5", 3)) == 8
    assert len(family("F7", 1, lam=2.0)) == 7
    assert len(family_G(2)) == 6
    assert len(family_H_pencil(2, 0.5, -1.0)) == 5
    assert len(family_J0()) == 6
    assert len(family_H8(2)) == 6


def test_derivative_member():
    d5 = u(21, 1).derivative(5)
    h = 1e-3
    x0 = 1.3
    jet = u(21, 1).jet(x0, 6)
    assert d5(x0) == pytest.approx(jet.derivative(5), rel=1e-12)


def test_substituted_power():
    g = u(18, 1).substituted_power(2)
    assert g(1.5) == pytest.approx(u(18, 1)(1.5**2), rel=1e-14)


def test_domain_guard():
    with pytest.raises(DomainError):
        u(13, 1).jet(-1.0, 2)
    with pytest.raises(DomainError):
        u(13, 1).jet(np.array([0.5, -1.0]), 2)
    # k = 0 serves n = 1 except where an exponent is 1/k; k < 0 never
    assert u(12, 0)(2.0) == 4.0
    with pytest.raises(DomainError):
        u(18, 0)
    with pytest.raises(DomainError):
        family("F2", -1)


@pytest.mark.parametrize("call", [
    lambda: jet_derivative(Jet([1.0, 2.0]), 2),
    lambda: u(4, 1).derivative(1).substituted_power(2),
    lambda: BasisFunction.combine([1.0], [u(4, 1).derivative(1)], "D[u4]"),
    lambda: u(25, 1),
    lambda: family("F8", 1),
], ids=["derivative-above-jet-order", "substitute-a-derivative", "combine-a-derivative",
        "generator-25", "unknown-family"])
def test_bad_request_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("bf", [u(15, 2), u(21, 1).derivative(5), family_H8(2)[3]],
                         ids=lambda bf: bf.label)
def test_array_jets_and_values_match_pointwise(bf):
    xs = np.geomspace(0.2, 5.0, 9)
    jet = bf.jet(xs, 3)
    for m in range(4):
        want = [bf.jet(float(x), 3).derivative(m) for x in xs]
        np.testing.assert_allclose(jet.derivative(m), want, rtol=1e-14)
    vals = bf(xs)
    assert vals.shape == xs.shape
    np.testing.assert_allclose(vals, [bf(float(x)) for x in xs], rtol=1e-14)
