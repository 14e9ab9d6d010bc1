import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melnlab import series
from melnlab.polar import endpoint_triangles
from melnlab.series import (Jet, TriangleJet, jet_atan, jet_cos, jet_exp, jet_log, jet_sin,
                            jet_sincos, jet_sqrt)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
positive = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)
coeff_lists = st.lists(finite, min_size=1, max_size=6)


# each coefficient helper of the series module and the functions it must
# match: the library's own for a float, an ndarray or an mpf, and the jet
# function for a jet (sinh and cosh of a jet are half the difference and sum
# of its exponentials)
HELPERS = {
    "_sincos": (("sin", "cos"), jet_sincos),
    "_sinhcosh": (("sinh", "cosh"),
                  lambda u: (0.5 * (jet_exp(u) - jet_exp(-u)), 0.5 * (jet_exp(u) + jet_exp(-u)))),
    "_atan": (("atan",), jet_atan),
    "_exp": (("exp",), jet_exp),
    "_log": (("log",), jet_log),
    "_sqrt": (("sqrt",), jet_sqrt),
}
ARGUMENTS = {
    "float": (0.7, math),
    "ndarray": (np.array([0.3, 0.7, 1.9]), np),
    "mpf": (mpmath.mpf("0.7"), mpmath),
    "jet": (Jet([0.7, 0.4, -1.1, 0.25]), None),
}


def _as_tuple(v):
    return v if isinstance(v, tuple) else (v,)


def _bits(v):
    if isinstance(v, Jet):
        return [_bits(c) for c in v.c]
    if isinstance(v, np.ndarray):
        return v.dtype, v.shape, v.tobytes()
    if isinstance(v, mpmath.mpf):
        return v._mpf_
    return v.hex()


@pytest.mark.parametrize("kind", ARGUMENTS)
@pytest.mark.parametrize("helper", HELPERS)
def test_coefficient_helpers_follow_the_argument(helper, kind):
    names, jet_fn = HELPERS[helper]
    arg, lib = ARGUMENTS[kind]
    got = getattr(series, helper)(arg)
    want = jet_fn(arg) if lib is None else tuple(getattr(lib, name)(arg) for name in names)
    for g, w in zip(_as_tuple(got), _as_tuple(want), strict=True):
        assert type(g) is type(arg)
        assert _bits(g) == _bits(w)


def test_exp_series_coefficients():
    x = Jet.variable(0.3, 6)
    e = jet_exp(x)
    for m in range(7):
        assert e.coefficient(m) == pytest.approx(math.exp(0.3) / math.factorial(m), rel=1e-14)


def test_log_inverts_exp():
    x = Jet.variable(0.7, 5)
    back = jet_log(jet_exp(x))
    assert back.coefficient(0) == pytest.approx(0.7, abs=1e-14)
    assert back.coefficient(1) == pytest.approx(1.0, abs=1e-13)
    for m in range(2, 6):
        assert back.coefficient(m) == pytest.approx(0.0, abs=1e-12)


def test_sin_cos_pythagoras():
    u = Jet.variable(1.1, 6)
    s, c = jet_sin(u), jet_cos(u)
    one = s * s + c * c
    assert one.coefficient(0) == pytest.approx(1.0, abs=1e-14)
    for m in range(1, 7):
        assert one.coefficient(m) == pytest.approx(0.0, abs=1e-13)


def test_atan_derivatives_match_finite_differences():
    x0, h = 0.8, 1e-5
    jet = jet_atan(Jet.variable(x0, 3) ** 2)

    def f(x):
        return math.atan(x * x)

    fd1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    assert jet.derivative(1) == pytest.approx(fd1, rel=1e-8)
    assert jet.derivative(2) == pytest.approx(fd2, rel=1e-4)


def test_real_power_and_sqrt():
    x = Jet.variable(2.0, 4)
    p = x.power(2.5)
    assert p.value == pytest.approx(2.0**2.5, rel=1e-15)
    assert p.derivative(1) == pytest.approx(2.5 * 2.0**1.5, rel=1e-14)
    s = jet_sqrt(x)
    assert (s * s).coefficient(1) == pytest.approx(1.0, abs=1e-14)


def test_ndarray_coefficients_and_priority():
    theta = np.linspace(0.0, 1.0, 7)
    r = Jet.variable(1.5, 2)
    left = r * np.sin(theta)
    right = np.sin(theta) * r  # ndarray.__mul__ must defer to the jet
    assert isinstance(left, Jet) and isinstance(right, Jet)
    np.testing.assert_allclose(left.coefficient(1), right.coefficient(1))


@pytest.mark.parametrize("p", range(1, 9))
def test_integer_power_skips_the_unused_square(monkeypatch, p):
    # square-and-multiply from the base: one product per set bit of p after
    # the first and one square between bits, none after the top bit, so
    # z ** 1 is z; the value is the repeated product's
    z = Jet([0.7, -1.3, 0.4, 2.1])
    want = z
    for _ in range(p - 1):
        want = want * z
    muls = 0
    mul = Jet.__mul__

    def counted(self, other):
        nonlocal muls
        muls += 1
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    got = z ** p
    assert muls == bin(p).count("1") + p.bit_length() - 2
    assert [float(c) for c in got.c] == pytest.approx([float(c) for c in want.c],
                                                      rel=1e-14, abs=1e-14)


def test_zeroth_power_is_the_unit_jet(monkeypatch):
    z = Jet([np.array([0.7, -2.0]), np.array([-1.3, 0.5])])
    monkeypatch.setattr(Jet, "__mul__", lambda self, other: pytest.fail("no product"))
    assert _bits(z ** 0) == _bits(Jet([np.ones(2), np.zeros(2)]))
    assert (z ** 1) is z


def test_power_takes_integer_exponents_only():
    z = Jet([0.7, -1.3, 0.4, 2.1])
    with pytest.raises(TypeError):
        z ** 0.5
    assert _bits(z ** np.int64(2)) == _bits(z ** 2)


def test_compose_requires_zero_constant_term():
    g = jet_sin(Jet.variable(0.4, 4))
    with pytest.raises(ValueError):
        g.compose(Jet([0.1, 1.0], order=4))


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_compose_with_identity_is_identity(coeffs):
    g = Jet(coeffs)
    ident = Jet([0.0, 1.0], order=g.order)
    h = g.compose(ident)
    for m in range(g.order + 1):
        assert h.coefficient(m) == pytest.approx(g.coefficient(m), abs=1e-12)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_product_division_roundtrip(fc, gc):
    g = Jet(gc)
    if abs(g.coefficient(0)) < 0.1:
        g = g + 1.0
    f = Jet(fc, order=g.order)
    back = (f * g) / g
    scale = max(1.0, max(abs(c) for c in fc))
    for m in range(back.order + 1):
        assert back.coefficient(m) == pytest.approx(f.coefficient(m), abs=1e-9 * scale)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(fc, gc):
    f, g = Jet(fc), Jet(gc)
    n = min(f.order, g.order)
    f, g = f.truncate(n), g.truncate(n)
    lhs = (f * g).deriv()
    rhs = f.deriv() * g.truncate(max(n - 1, 0)) + f.truncate(max(n - 1, 0)) * g.deriv()
    scale = max(1.0, max(abs(c) for c in fc), max(abs(c) for c in gc)) ** 2
    for m in range(max(n - 1, 0) + 1):
        assert lhs.coefficient(m) == pytest.approx(rhs.coefficient(m), abs=1e-10 * scale)


def test_nested_jets_cross_derivative():
    # t-jet whose coefficients are r-jets: f(t, r) = cos(t + r) about (0, 0.2)
    t_order, r_order = 3, 2
    r_jet = Jet.variable(0.2, r_order)
    f = jet_cos(Jet([r_jet, Jet.constant(1.0, r_order)], order=t_order))
    d_dt_dr = f.coefficient(1).derivative(1)
    assert d_dt_dr == pytest.approx(-math.cos(0.2), rel=1e-12)


# Coefficient m of a product, quotient or sine/cosine reads only coefficients
# <= m of the operands, by the same float operations at any truncation order.
# The recursion computes its field jets truncated on that promise, so it is
# checked bit for bit (==), not to a tolerance.


def _away_from_zero(g: Jet) -> Jet:
    return g + 1.0 if abs(g.coefficient(0)) < 0.1 else g


def _triangle(jet: Jet, degree: int) -> Jet:
    """Nested t-in-r jet cut to total degree: r-coefficient L keeps t-order degree - L."""
    return Jet([jet.c[L].truncate(degree - L) for L in range(degree + 1)])


def _nested(values, r_order, t_order):
    return Jet([Jet(values[L * (t_order + 1):(L + 1) * (t_order + 1)], order=t_order)
                for L in range(r_order + 1)])


def _coeffs(jet: Jet) -> list:
    return [c.c for c in jet.c]


@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_truncated_inputs_give_the_truncated_result(fc, gc, cut):
    f, g = Jet(fc), _away_from_zero(Jet(gc))
    cut = min(cut, f.order, g.order)
    ft, gt = f.truncate(cut), g.truncate(cut)
    assert (ft * gt).c == (f * g).truncate(cut).c
    assert (ft / gt).c == (f / g).truncate(cut).c
    for whole, part in zip(jet_sincos(f), jet_sincos(ft)):
        assert part.c == whole.truncate(cut).c


@given(st.lists(finite, min_size=16, max_size=16), st.lists(finite, min_size=16, max_size=16),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_nested_jets_truncated_to_total_degree_are_exact(fv, gv, degree):
    r_order = t_order = 3
    f = _nested(fv, r_order, t_order)
    g = _nested(gv, r_order, t_order)
    g.c[0] = _away_from_zero(g.c[0])
    ft, gt = _triangle(f, degree), _triangle(g, degree)
    assert _coeffs(ft * gt) == _coeffs(_triangle(f * g, degree))
    assert _coeffs(ft / gt) == _coeffs(_triangle(f / g, degree))
    for whole, part in zip(jet_sincos(f), jet_sincos(ft)):
        assert _coeffs(part) == _coeffs(_triangle(whole, degree))


# A TriangleJet holds a nested jet's triangle on one flat list; every
# operation must give the nested jet's bits, the signs of zeros included.
# Scaled by pi, the simple floats hypothesis favours round in most sums, so
# a sum taken in another order shows.
zero_or_finite = st.one_of(st.sampled_from([0.0, -0.0]), finite.map(lambda v: math.pi * v))
away_from_zero = st.one_of(positive, positive.map(lambda v: -v)).map(lambda v: math.pi * v)


@st.composite
def triangle_operands(draw):
    """(f, g, z, s): triangles of degree 0..5 with float or array coefficients,
    g's leading coefficient and s away from zero, z any scalar."""
    width = draw(st.sampled_from([None, 3]))

    def coefficient(values):
        return draw(values) if width is None else np.array([draw(values) for _ in range(width)])

    def triangle(lead):
        degree = draw(st.integers(min_value=0, max_value=5))
        size = (degree + 1) * (degree + 2) // 2
        return TriangleJet([coefficient(lead)] + [coefficient(zero_or_finite)
                                                  for _ in range(size - 1)], degree)

    return (triangle(zero_or_finite), triangle(away_from_zero),
            coefficient(zero_or_finite), coefficient(away_from_zero))


def _normal_operands(width, df: int, dg: int):
    """triangle_operands' shape from normal deviates, for an example that
    always runs: every coefficient rounds, and a few are zeros of each sign."""
    rng = np.random.default_rng(df * 10 + dg)

    def values(n):
        v = rng.standard_normal((n, width or 1))
        v[rng.choice(n, n // 4)] *= 0.0
        return [np.array(row) if width else float(row[0]) for row in v]

    f = TriangleJet(values((df + 1) * (df + 2) // 2), df)
    g = TriangleJet(values((dg + 1) * (dg + 2) // 2), dg)
    g.c[0] = abs(g.c[0]) + 1.0
    z, s = values(2)
    return f, g, z, abs(s) + 1.0


def _nest(t: TriangleJet) -> Jet:
    return Jet([t.tjet(L, t.degree - L) for L in range(t.degree + 1)])


def _of_nested(jet: Jet) -> TriangleJet:
    """The triangle of degree ``jet.order`` of a jet of t-jets."""
    d = jet.order
    return TriangleJet([x for L, cm in enumerate(jet.c) for x in cm.c[:d + 1 - L]], d)


@given(triangle_operands())
@example(_normal_operands(None, 5, 5))
@example(_normal_operands(None, 3, 5))
@example(_normal_operands(3, 5, 4))
@settings(max_examples=150, deadline=None)
def test_triangle_jets_equal_nested_jets_bit_for_bit(operands):
    f, g, z, s = operands
    nf, ng = _nest(f), _nest(g)
    cases = [(f + g, nf + ng), (g + f, ng + nf), (f - g, nf - ng), (-f, -nf),
             (f * g, nf * ng), (g * f, ng * nf), (f / g, nf / ng),
             (f + z, nf + z), (z + f, z + nf), (f - z, nf - z), (z - f, z - nf),
             (f * z, nf * z), (z * f, z * nf), (f / s, nf / s)]
    for flat, nested in cases:
        assert flat.degree == nested.order
        want = _of_nested(nested)
        assert [_bits(c) for c in flat.c] == [_bits(c) for c in want.c]


def _nested_endpoint_triangles(r, t0, degree: int) -> list:
    """``polar.endpoint_triangles`` by its reference construction: r-jets of
    t-jets, sin and cos by ``jet_sincos``, flattened."""
    def triangle(lead, first):
        return Jet([lead] + [Jet.constant(first if L == 1 else 0.0, degree - L)
                             for L in range(1, degree + 1)])

    rsc = (triangle(Jet.constant(r, degree), 1.0),
           *jet_sincos(triangle(Jet.variable(t0, degree), 0.0)))
    return [tuple(_of_nested(v.truncate(d)) for v in rsc) for d in range(degree + 1)]


QUADRANT_ANGLES = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 0.3, 2.0, 3.5, 5.0, -1.0, -0.0]


@pytest.mark.parametrize("degree", range(6))
def test_endpoint_triangles_equal_the_nested_construction_bit_for_bit(rng, degree):
    # rows from r-order 1 on are signed zeros written by a sign rule; the
    # nested recurrence is the reference, so the sign of every zero counts
    angles = QUADRANT_ANGLES + rng.uniform(0.0, 2.0 * math.pi, 8).tolist()
    points = [(1.3, t0) for t0 in angles]
    points.append((np.linspace(0.5, 2.0, len(angles)), np.array(angles)))
    for r, t0 in points:
        got, want = endpoint_triangles(r, t0, degree), _nested_endpoint_triangles(r, t0, degree)
        assert len(got) == degree + 1
        for d, (flat, nested) in enumerate(zip(got, want)):
            for g, w in zip(flat, nested):
                assert g.degree == w.degree == d
                assert [_bits(c) for c in g.c] == [_bits(c) for c in w.c]
    for t0 in (math.inf, -math.inf):   # math.sin raises
        with pytest.raises(ValueError):
            endpoint_triangles(1.3, t0, degree)


# The loops that the generated product and quotient kernels replaced, kept as
# their reference: a kernel must give its loop's bits for every coefficient
# type, signed zeros, infinities and NaNs included.  A float NaN compares as
# NaN, not by its sign bit: of two NaN operands x86 returns one, and which one
# CPython's float add passes first differs between its generic and its
# specialized instruction, so the same loop changes that bit as it warms up.


def _loop_jet_product(a: list, b: list) -> list:
    out = []
    for m in range(min(len(a), len(b))):
        s = a[0] * b[m]
        for j in range(1, m + 1):
            s = s + a[j] * b[m - j]
        out.append(s)
    return out


def _loop_jet_quotient(a: list, b: list) -> list:
    g0 = b[0]
    out = []
    for m in range(min(len(a), len(b))):
        s = a[m]
        for j in range(1, m + 1):
            s = s - b[j] * out[m - j]
        out.append(s / g0)
    return out


def _row(degree: int, L: int) -> int:
    """Flat index of coefficient (L, 0) in a triangle of the given degree."""
    return L * (2 * degree + 3 - L) // 2


def _loop_triangle_product(a: list, da: int, b: list, db: int) -> list:
    d = min(da, db)
    out = []
    for m in range(d + 1):
        for p in range(d + 1 - m):
            acc = None
            for j in range(m + 1):
                oa, ob = _row(da, j), _row(db, m - j)
                s = a[oa] * b[ob + p]
                for q in range(1, p + 1):
                    s = s + a[oa + q] * b[ob + p - q]
                acc = s if acc is None else acc + s
            out.append(acc)
    return out


def _loop_triangle_quotient(a: list, da: int, b: list, db: int) -> list:
    d = min(da, db)
    out = []
    for m in range(d + 1):
        for p in range(d + 1 - m):
            s = a[_row(da, m) + p]
            for j in range(1, m + 1):
                ob, oo = _row(db, j), _row(d, m - j)
                t = b[ob] * out[oo + p]
                for q in range(1, p + 1):
                    t = t + b[ob + q] * out[oo + p - q]
                s = s + -t
            for q in range(1, p + 1):
                s = s - b[q] * out[_row(d, m) + p - q]
            out.append(s / b[0])
    return out


KINDS = ("float", "ndarray", "mpf", "jet")
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)
# no specials, where every term rounds and any other order of the sums
# shows; and a quarter specials, which most results turn into inf or NaN
RATES = (0.0, 0.25)


def _coefficients(kind: str, rng, count: int, divisor: bool, rate: float) -> list:
    """``count`` coefficients of the given kind from pi-scaled normal
    deviates, each entry replaced by a signed zero, an infinity or a NaN at
    the given rate; a divisor's leading coefficient is finite and away from
    zero."""
    values = rng.standard_normal((count, 3)) * math.pi
    special = rng.random(values.shape) < rate
    values[special] = rng.choice(SPECIALS, special.sum())
    if divisor:
        values[0] = np.abs(rng.standard_normal(3)) + 1.0
    make = {"float": lambda v: float(v[0]), "ndarray": np.array,
            "mpf": lambda v: mpmath.mpf(float(v[0])), "jet": lambda v: Jet(v.tolist())}[kind]
    return [make(v) for v in values]


@pytest.mark.parametrize("kind", KINDS)
def test_jet_kernels_equal_the_loops_bit_for_bit(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    with np.errstate(all="ignore"):
        for la, lb, rate in itertools.product(range(1, 11), range(1, 11), RATES):
            a = _coefficients(kind, rng, la, divisor=False, rate=rate)
            b = _coefficients(kind, rng, lb, divisor=True, rate=rate)
            assert _bits(Jet(a) * Jet(b)) == _bits(Jet(_loop_jet_product(a, b)))
            assert _bits(Jet(a) / Jet(b)) == _bits(Jet(_loop_jet_quotient(a, b)))


@pytest.mark.parametrize("kind", KINDS)
def test_triangle_kernels_equal_the_loops_bit_for_bit(kind):
    rng = np.random.default_rng(10 + KINDS.index(kind))
    with np.errstate(all="ignore"):
        for da, db, rate in itertools.product(range(6), range(6), RATES):
            a = _coefficients(kind, rng, (da + 1) * (da + 2) // 2, divisor=False, rate=rate)
            b = _coefficients(kind, rng, (db + 1) * (db + 2) // 2, divisor=True, rate=rate)
            f, g = TriangleJet(a, da), TriangleJet(b, db)
            for got, want in ((f * g, _loop_triangle_product(a, da, b, db)),
                              (f / g, _loop_triangle_quotient(a, da, b, db))):
                assert got.degree == min(da, db)
                assert [_bits(c) for c in got.c] == [_bits(c) for c in want]
