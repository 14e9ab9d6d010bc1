import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from melnlab.certify import BISECT_RTOL
from melnlab.roots import brentq
from melnlab.simulate import EVENT_XTOL

# (xtol, rtol, maxiter) of the calls in geometry, simulate and certify
CALL_SITES = [
    dict(xtol=1e-30, rtol=8.9e-16, maxiter=200),
    dict(xtol=EVENT_XTOL),
    dict(xtol=1e-15, rtol=BISECT_RTOL),
]


def _bracketed_functions(rng, count):
    shapes = [
        lambda r, c: (lambda x: (x - r) * (1.0 + c * math.sin(3.0 * x))),
        lambda r, c: (lambda x: math.tanh(5.0 * (x - r)) + 1e-3 * c),
        lambda r, c: (lambda x: math.expm1(x - r) + 1e-8 * c),
        lambda r, c: (lambda x: (2.0 + c) * math.sinh(x - r)),
        lambda r, c: (lambda x: x ** 7 - r ** 7 + 1e-12 * c),
    ]
    for i in range(count):
        root, c = rng.uniform(-2.0, 2.0), rng.uniform(-0.9, 0.9)
        lo, hi = root - rng.uniform(1e-6, 3.0), root + rng.uniform(1e-6, 3.0)
        yield shapes[i % len(shapes)](root, c), lo, hi


@pytest.mark.parametrize("kw", CALL_SITES, ids=["geometry", "simulate", "certify"])
def test_brentq_equals_scipy_bit_for_bit(kw):
    rng = np.random.default_rng(1973)
    for f, lo, hi in _bracketed_functions(rng, 300):
        want = scipy_brentq(f, lo, hi, **kw)
        got = brentq(f, lo, hi, **kw)
        assert got.hex() == want.hex(), (lo, hi, got, want)


def test_brentq_returns_an_exact_zero_at_an_end():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0


@pytest.mark.parametrize("kw, message", [
    (dict(xtol=0.0), "xtol too small"),
    (dict(xtol=1e-12, rtol=1e-16), "rtol too small"),
    (dict(xtol=1e-12, maxiter=-1), "maxiter must be >= 0"),
], ids=["xtol", "rtol", "maxiter"])
def test_brentq_rejects_bad_tolerances(kw, message):
    with pytest.raises(ValueError, match=message):
        brentq(lambda x: x, -1.0, 1.0, **kw)
    with pytest.raises(ValueError, match=message):
        scipy_brentq(lambda x: x, -1.0, 1.0, **kw)


def test_brentq_rejects_ends_of_one_sign():
    # 1e-200 * 1e-200 underflows to 0; the sign bits still decide, as in scipy
    for fa, fb in [(1.0, 2.0), (-1.0, -2.0), (1e-200, 1e-200)]:
        f = (lambda fa, fb: lambda x: fa if x < 0.5 else fb)(fa, fb)
        with pytest.raises(ValueError, match="different signs"):
            brentq(f, 0.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(f, 0.0, 1.0, xtol=1e-12)


def test_brentq_rejects_nan():
    def f(x):
        return math.nan if x > 0.2 else -1.0

    with pytest.raises(ValueError, match="The function value at x=1.0 is NaN"):
        brentq(f, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="The function value at x=1.0 is NaN"):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-12)


def test_brentq_raises_when_not_converged():
    def f(x):
        return math.tanh(40.0 * (x - 0.3))

    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        brentq(f, -1.0, 2.0, xtol=1e-12, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        scipy_brentq(f, -1.0, 2.0, xtol=1e-12, maxiter=3)
