import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from melnlab.certify import BISECT_RTOL
from melnlab.roots import brentq, brentq_rows
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
        # the extrapolation denominator underflows to 0 at these scales
        lambda r, c: (lambda x: 1e-120 * (x ** 3 - r ** 3)),
        lambda r, c: (lambda x: 1e-150 * (x ** 3 - r ** 3)),
        lambda r, c: (lambda x: 1e-200 * (x ** 3 - r ** 3 + 1e-9 * c)),
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


# each a vectorized f with a sign change at r; x ** 7 and the tiny scales
# stress the extrapolation step and its underflowing denominator
ROW_SHAPES = [
    lambda r: (lambda x: (x - r) * (1.0 + 0.5 * np.sin(3.0 * x))),
    lambda r: (lambda x: np.tanh(5.0 * (x - r)) * (1.0 + 1e-3 * x)),
    lambda r: (lambda x: x ** 7 - r ** 7),
    lambda r: (lambda x: 1e-150 * (x ** 3 - r ** 3)),
    lambda r: (lambda x: 1e-200 * np.expm1(x - r)),
]


@pytest.mark.parametrize("kw", CALL_SITES, ids=["geometry", "simulate", "certify"])
@pytest.mark.parametrize("shape", range(len(ROW_SHAPES)))
def test_brentq_rows_equals_brentq_row_by_row(kw, shape):
    rng = np.random.default_rng(24 + shape)
    root = rng.uniform(0.5, 2.0)
    f = ROW_SHAPES[shape](root)
    rows = 60
    lo = root - rng.uniform(1e-6, 2.0, rows)
    hi = root + rng.uniform(1e-6, 2.0, rows)
    lo[0] = hi[1] = root                  # an end at the sign change itself
    lo[2], hi[2] = root + 0.1, root + 1.0  # ends of one sign
    xtol = kw["xtol"] * rng.uniform(0.5, 2.0, rows)
    rest = {k: v for k, v in kw.items() if k != "xtol"}
    calls = []

    def g(x):
        calls.append(len(x))
        return f(x)

    got, failed = brentq_rows(g, lo, hi, xtol=xtol, **rest)
    assert calls[0] == 2 * rows and calls[1:] == sorted(calls[1:], reverse=True)
    assert calls[1] < rows
    for i in range(rows):
        try:
            want = brentq(lambda t: f(np.array([t]))[0], lo[i], hi[i], xtol=xtol[i], **rest)
        except ValueError:
            assert failed[i] and math.isnan(got[i]), i
            continue
        assert not failed[i] and got[i].hex() == want.hex(), (i, got[i], want)
    assert failed.tolist() == [i == 2 for i in range(rows)]


def test_brentq_rows_fails_rows_with_nan_and_stops_on_none():
    def f(x):
        # NaN near the root 1 and on (2.5, 3.5): brentq raises on both
        nan = (np.abs(x - 1.0) < 0.1) | ((x > 2.5) & (x < 3.5))
        return np.where(nan, np.nan, (x - 1.0) * (x - 4.0))

    lo, hi = np.array([0.0, 3.8, 2.0, -3.0]), np.array([2.0, 4.5, 3.0, -1.0])
    x, failed = brentq_rows(f, lo, hi, xtol=1e-12)
    assert failed.tolist() == [True, False, True, True] and np.isnan(x[failed]).all()
    assert x[1].hex() == brentq(lambda t: f(np.array([t]))[0], 3.8, 4.5, xtol=1e-12).hex()
    with pytest.raises(ValueError, match="is NaN"):
        brentq(lambda t: f(np.array([t]))[0], 0.0, 2.0, xtol=1e-12)
    calls = []

    def stop_after_the_ends(x):
        calls.append(len(x))
        return None if calls[1:] else x - 1.0

    x, failed = brentq_rows(stop_after_the_ends, np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                            xtol=1e-12)
    assert calls == [4, 1] and x[1] == 1.0 and math.isnan(x[0]) and not failed.any()
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        brentq_rows(lambda x: np.tanh(40.0 * (x - 0.3)), np.array([-1.0]), np.array([2.0]),
                    xtol=1e-12, maxiter=3)
