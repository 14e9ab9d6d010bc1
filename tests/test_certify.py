import argparse
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melnlab import certify
from melnlab.basis import BasisFunction, family, family_G, family_H_pencil, family_J0, u
from melnlab.certify import (CERT_REL_MAX, PRECISE_DPS, PROP4_COEFFS, SIGN_REL_MAX,
                             _derivative_matrices, _equilibrate, _has_subnormal, _precise_det,
                             _rho, _rho_cofactor, _wronskian_logs, certify_family,
                             prop4_witness, prop5_witness, scaled_wronskians,
                             theorem3_bound, wronskian, wronskian_scaled)
from melnlab.cli import FAMILIES
from melnlab.errors import DomainError
from melnlab.reports import dumps_json

XS = np.geomspace(0.1, 10.0, 50)


def printed_wronskians(name, k):
    """Closed-form Wronskians as printed in the certification proofs."""
    if name == "F2" and k == 1:
        return [
            lambda x: x**2 + x**4,
            lambda x: x**2 * (x**4 + x**2),
            lambda x: -4 * x**9 / (x**4 + x**2),
            lambda x: 32 * x**9 / (x**2 + x**4) ** 2,
        ]
    if name == "F3" and k == 1:
        return [
            lambda x: 1.0,
            lambda x: 2 * x,
            lambda x: 16 * x**3,
            lambda x: 48 * x * (1 - 3 * x**2 + 10 * x**4),
            lambda x: 1536 * x**3 * (9 + 2 * x**2) / (1 + x**2) ** 3,
        ]
    if name == "F4" and k == 2:
        return [
            lambda x: x**4,
            lambda x: 6 * x**13,
            lambda x: -48 * x**17,
            lambda x: 3072 * x**16,
            lambda x: 27648 * x**13 * (924 * x**12 - 25 * x**6 + 15),
            lambda x: (47775744 * x**24
                       * (2464 * x**18 + 42156 * x**12 + 3975 * x**6 + 3325)
                       / (x**6 + 1) ** 4),
        ]
    if name == "F5":
        return [
            lambda x: 1.0,
            lambda x: 2 * k * x ** (2 * k - 1),
            lambda x: 16 * k**3 * x ** (6 * k - 3),
            lambda x: 16 * k**3 * (8 * k**2 + 6 * k + 1) * x ** (10 * k - 5),
            lambda x: 768 * k**6 * (2 * k - 1) * (8 * k**2 + 6 * k + 1) * x ** (16 * k - 9),
            lambda x: -1536 * k**7 * (1 - 4 * k**2) ** 2 * (16 * k**2 - 1) * x ** (18 * k - 13),
            lambda x: (-12288 * k**9 * (2 * k + 1) ** 3 * (4 * k - 1) * (6 * k + 1)
                       * (-8 * k**2 + 2 * k + 1) ** 2 * x ** (24 * k - 18)),
            lambda x: (-589824 * k**12 * (2 * k + 1) ** 3 * (4 * k - 1) * (6 * k + 1)
                       * (-8 * k**2 + 2 * k + 1) ** 2 * x ** (24 * (k - 1))
                       * (48 * k**3 - 44 * k**2 + 12 * k - 1
                          + (2 * k + 1) ** 2 * (4 * k + 1) * (6 * k + 1) * (8 * k + 1)
                          * x ** (8 * k))),
        ]
    if name == "F1":
        return [
            lambda x: 1.0,
            lambda x: (4 * k + 1) * x ** (4 * k) + 1,
            lambda x: (2 * k * x ** (2 * (k - 1))
                       * (-(1 + 6 * k + 8 * k**2) * x ** (4 * k) + 2 * k - 1)),
        ]
    if name == "F2":
        return [
            lambda x: x**2 + x ** (4 * k),
            lambda x: (2 * k - 1) * (x ** (2 * k + 2) + x ** (6 * k)),
            lambda x: -4 * (2 * k - 1) ** 3 * x ** (8 * k + 1) / (x**2 + x ** (4 * k)),
            lambda x: (-16 * k * (2 * k - 1) ** 3 * x ** (8 * k - 3)
                       * ((k - 1) * (4 * k - 1) * x ** (4 * k - 2) + 1 - 3 * k)
                       / (x ** (4 * k - 2) + 1) ** 2),
        ]
    if name == "F6" and k == 2:
        p22 = lambda y: 15 - 175 * y + 12012 * y**2
        p42 = lambda y: 8008 * y**4 + 460390 * y**3 - 993711 * y**2 + 29800 * y - 6650
        return [
            lambda x: 1.0,
            lambda x: 4 * x**3,
            lambda x: 240 * x**11,
            lambda x: -11520 * x**14,
            lambda x: 1474560 * x**12,
            lambda x: 13271040 * x**8 * p22(x**6),
            lambda x: -183458856960 * x**18 * p42(x**6) / (x**6 + 1) ** 5,
        ]
    raise ValueError((name, k))


BATTERY = [("F2", 1), ("F3", 1), ("F4", 2), ("F5", 1), ("F5", 2), ("F5", 3),
           ("F1", 1), ("F1", 2), ("F2", 2), ("F2", 3), ("F6", 2)]


@pytest.mark.parametrize("name,k", BATTERY)
def test_wronskian_battery(name, k):
    fams = family(name, k)
    formulas = printed_wronskians(name, k)
    for s, formula in enumerate(formulas):
        for x in XS:
            det, well = wronskian(fams, float(x), s)
            want = formula(float(x))
            # determinants cannot beat conditioning; allow a tiny absolute
            # floor tied to the local formula magnitude
            tol = 1e-9 * max(abs(want), 1e-12)
            assert abs(det - want) <= tol, (name, k, s, x, det, want)


def test_spec_pinned_values():
    det, _ = wronskian(family("F1", 1), 1.0, 1)
    assert det == pytest.approx(6.0, rel=1e-12)           # (4k+1)x^4 + 1 at 1
    det, _ = wronskian(family("F2", 1), 1.0, 3)
    assert det == pytest.approx(8.0, rel=1e-9)            # 32/(1+1)^2


def test_wronskian_s0_is_first_function():
    fams = family("F3", 1)
    for x in (0.3, 1.7):
        det, _ = wronskian(fams, x, 0)
        assert det == pytest.approx(fams[0](x), rel=1e-14)


def test_swap_antisymmetry(rng):
    fams = family("F5", 2)
    swapped = [fams[1], fams[0]] + fams[2:]
    for x in np.geomspace(0.2, 5.0, 100):
        a, _ = wronskian(fams, float(x), 4)
        b, _ = wronskian(swapped, float(x), 4)
        assert a == pytest.approx(-b, rel=1e-10)


def test_scaled_wronskian_same_sign():
    fams = family("F6", 2)
    for x in np.geomspace(0.2, 5.0, 25):
        det, well = wronskian(fams, float(x), 6)
        scaled = wronskian_scaled(fams, float(x), 6)
        if well and det != 0.0:
            assert math.copysign(1, det) == math.copysign(1, scaled)


CERTIFIED_FAMILIES = ([(name, k) for name in ("F1", "F2", "F3", "F4", "F5", "F6")
                       for k in (1, 2)]
                      + [("F7", 1), ("F7", 2), ("G", 2), ("H", 2), ("J0", None)])


def certified_family(name, k):
    if name == "F7":
        return family("F7", k, lam=3.0 - k)
    if name == "G":
        return family_G(k)
    if name == "H":
        return family_H_pencil(k, -1.0, 0.5)
    if name == "J0":
        return family_J0()
    return family(name, k)


def _certificates(fams, xs, s):
    """(M, A, sign, mag, rho, rho_H) of W_s on xs, with M and A point-last
    stacks; rho and rho_H are inf where the double det A is not finite."""
    M = _derivative_matrices(fams, xs, s)
    with np.errstate(all="ignore"):
        A, _, _ = _equilibrate(M)
        sign, mag = np.linalg.slogdet(A.transpose(2, 0, 1))
        rho, rho_h = np.full(len(xs), np.inf), np.full(len(xs), np.inf)
        finite = np.isfinite(mag)
        rho[finite] = _rho(A.transpose(2, 0, 1)[finite], s)
        rho_h[finite] = _rho_cofactor(A[..., finite], mag[finite], s)
    return M, A, sign, mag, rho, rho_h


@pytest.mark.parametrize("name,k", CERTIFIED_FAMILIES)
def test_certificate_is_sound(name, k):
    """Every cell the double path accepts matches 50 digits within its bound:
    rho at the value tier; at the sign tier rho_H / (1 - rho_H) where the
    cofactor bound clears the cell, else rho."""
    import mpmath

    fams = certified_family(name, k)
    xs = np.geomspace(0.1, 10.0, 64)
    for s in range(len(fams)):
        M, A, sign, mag, rho, rho_h = _certificates(fams, xs, s)
        r, c = _equilibrate(M)[1:]
        value_bound = np.where(rho <= CERT_REL_MAX, rho, np.inf)
        sign_bound = np.where(rho_h <= SIGN_REL_MAX, rho_h / (1 - np.minimum(rho_h, 0.5)),
                              np.where(rho <= SIGN_REL_MAX, rho, np.inf))
        sign_bound[_has_subnormal(M)] = np.inf
        value = _wronskian_logs(fams, xs, s)
        loose = _wronskian_logs(fams, xs, s, sign_only=True)
        accepted = value_bound < np.inf
        assert value[3] == np.count_nonzero(~accepted)
        assert loose[3] <= value[3]
        assert np.array_equal(value[0][accepted], sign[accepted])
        assert np.array_equal(value[1][accepted], mag[accepted])
        # a sign-tier cell holds the double det A or the value tier's answer,
        # NaN where both tiers read a 50-digit 0 as unknown (W_2 of F4^1 and
        # F6^1, whose u4 and u6 are both x^2, vanishes identically)
        as_double = (loose[0] == sign) & (loose[1] == mag) & (sign_bound < np.inf)
        as_value = (np.isclose(loose[0], value[0], rtol=0, atol=0, equal_nan=True)
                    & np.isclose(loose[1], value[1], rtol=0, atol=0, equal_nan=True))
        assert np.all(as_double | as_value), (name, k, s)
        for i in np.flatnonzero(np.minimum(value_bound, sign_bound) < np.inf):
            with mpmath.workdps(PRECISE_DPS):
                # exact determinant of M / (r c^T), the matrix A rounds
                ref = _precise_det(fams, float(xs[i]), s)
                for scale in np.concatenate([r[i], c[i]]):
                    ref /= mpmath.mpf(float(scale))
                dev = abs(sign[i] * mpmath.exp(float(mag[i])) / ref - 1)
            assert mpmath.sign(ref) == sign[i], (name, k, s, xs[i])
            bound = min(value_bound[i], sign_bound[i])
            assert dev <= bound, (name, k, s, xs[i], float(dev), bound)


@pytest.mark.parametrize("name,k", CERTIFIED_FAMILIES)
def test_cofactor_bound_is_above_rho(name, k):
    fams = certified_family(name, k)
    xs = np.geomspace(0.1, 10.0, 256)
    for s in range(len(fams)):
        _, _, _, _, rho, rho_h = _certificates(fams, xs, s)
        finite = np.isfinite(rho)
        assert np.all(rho_h[finite] >= rho[finite]), (name, k, s)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_cofactor_bound_is_above_rho_on_equilibrated_matrices(size, seed, spread, tilt):
    # tilted identities have nearly orthogonal rows, where Hadamard's
    # inequality is nearly an equality
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, size, size)) * 10.0 ** rng.uniform(-spread, spread, (4, size, size))
    if tilt:
        M = np.eye(size) + M * 10.0 ** -rng.uniform(0, 17)
    A, _, _ = _equilibrate(np.ascontiguousarray(M.transpose(1, 2, 0)))
    sign, mag = np.linalg.slogdet(A.transpose(2, 0, 1))
    finite = np.isfinite(mag) & (sign != 0)
    s = size - 1
    assert np.all(_rho_cofactor(A[..., finite], mag[finite], s)
                  >= _rho(A.transpose(2, 0, 1)[finite], s))


def test_subnormal_cells_are_never_taken_at_the_sign_tier():
    # F5^1 towards 1e-300: powers of x fall into the subnormal range, where
    # the entries lose their accuracy and a noise sign can pass rho; such a
    # cell is unknown (NaN) at both tiers and is not recomputed at 50 digits
    fams = family("F5", 1)
    xs = np.geomspace(1e-300, 1.0, 256)
    would_pass = 0
    for s in range(len(fams)):
        M, _, _, _, rho, rho_h = _certificates(fams, xs, s)
        sub = _has_subnormal(M)
        would_pass += np.count_nonzero(sub & (np.minimum(rho, rho_h) <= SIGN_REL_MAX))
        for tier in (_wronskian_logs(fams, xs, s), _wronskian_logs(fams, xs, s, sign_only=True)):
            for got in tier[:3]:
                assert np.isnan(got[sub]).all(), s
            assert tier[3] <= np.count_nonzero(~sub), s
    assert would_pass > 0


def _equilibrate_by_reduction(M):
    """The (K, n, n) short-axis np.max form of _equilibrate, kept as its reference."""
    A = M.copy()
    r = np.ones(M.shape[:2])
    c = np.ones(M.shape[:2])
    for _ in range(2):
        rn = np.max(np.abs(A), axis=2)
        rn[rn == 0.0] = 1.0
        A /= rn[:, :, None]
        r *= rn
        cn = np.max(np.abs(A), axis=1)
        cn[cn == 0.0] = 1.0
        A /= cn[:, None, :]
        c *= cn
    return A, r, c


@pytest.mark.parametrize("size", range(1, 10))
def test_equilibrate_matches_the_reduction_form_bit_for_bit(size):
    # _equilibrate takes the point-last stack; its A is compared as (K, n, n),
    # its r and c are (K, n) as the reference's
    rng = np.random.default_rng(size)
    shape = (400, size, size)
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    M[rng.random(400) < 0.2, rng.integers(size), :] = 0.0       # zero rows
    M[rng.random(400) < 0.2, :, rng.integers(size)] = -0.0      # zero columns
    special = rng.random(shape) < 0.05
    M[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], np.count_nonzero(special))
    M[0, 0, :] = 0.0                                            # an all-zero row
    M[1, -1, 0] = 5e-324                                        # a subnormal entry
    M[2, 0, -1] = np.nan                                        # a NaN entry
    with np.errstate(all="ignore"):
        A, r, c = _equilibrate(np.ascontiguousarray(M.transpose(1, 2, 0)))
        want = _equilibrate_by_reduction(M)
    for g, w in zip((A.transpose(2, 0, 1), r, c), want, strict=True):
        assert g.tobytes() == w.tobytes()


def test_wronskian_sums_each_cells_log_factors_along_a_contiguous_row():
    # numpy sums a contiguous axis of length >= 8 pairwise and a leading axis
    # one row at a time; W_7 of F5^1 has 8 factors per cell, and the reference
    # sums them over a C-contiguous (K, n) array
    fams = family("F5", 1)
    xs = np.geomspace(0.1, 10.0, 400)
    assert _wronskian_logs(fams, xs, 7)[3] == 0
    M = np.ascontiguousarray(_derivative_matrices(fams, xs, 7).transpose(2, 0, 1))
    A, r, c = _equilibrate_by_reduction(M)
    sign, mag = np.linalg.slogdet(A)
    log_r, log_c = np.log(r), np.log(c)
    logscale = np.sum(log_r, axis=1) + np.sum(log_c, axis=1)
    assert wronskian(fams, xs, 7)[0].tobytes() == (sign * np.exp(mag + logscale)).tobytes()
    # the same factors summed along the leading axis of point-last copies
    leading = (np.sum(np.ascontiguousarray(log_r.T), axis=0)
               + np.sum(np.ascontiguousarray(log_c.T), axis=0))
    assert np.any(sign * np.exp(mag + leading) != sign * np.exp(mag + logscale))


FAMILY_ARGS = [(name, 2) for name in FAMILIES] + [("F5", 1)]


@pytest.mark.parametrize("name,k", FAMILY_ARGS)
def test_leading_blocks_of_a_derivative_stack_are_the_lower_stacks(name, k):
    # certify_family builds the scan grid's point-last stack once, at the top
    # order, and W_s reads its leading (s+1)x(s+1) block
    fams = FAMILIES[name](argparse.Namespace(k=k, lam=1.0 if name == "F7" else None,
                                             alpha=None, beta=None))
    n = len(fams) - 1
    for xs in (np.geomspace(0.1, 10.0, 513), np.array([1.7])):
        full = _derivative_matrices(fams, xs, n)
        for s in range(n + 1):
            assert full[: s + 1, : s + 1].tobytes() == _derivative_matrices(fams, xs, s).tobytes()


def test_certify_family_builds_one_stack_on_the_scan_grid(monkeypatch):
    built = []
    build = certify._derivative_matrices

    def counted(fams, xs, s):
        built.append((len(xs), s))
        return build(fams, xs, s)

    monkeypatch.setattr(certify, "_derivative_matrices", counted)
    certify_family(family("F5", 1), 0.1, 10.0)
    assert [b for b in built if b[0] == 2048] == [(2048, 7)]


@pytest.mark.parametrize("name,k,nu", [("F5", 1, [0] * 8), ("F1", 1, [0, 0, 1])])
def test_shared_stack_gives_the_per_s_verdict(monkeypatch, name, k, nu):
    shared = dumps_json(certify_family(family(name, k), 0.1, 10.0).to_dict())
    scaled = certify._scaled_wronskian
    monkeypatch.setattr(certify, "_scaled_wronskian",
                        lambda fams, x, s, stack=None, sign_only=False:
                        scaled(fams, x, s, sign_only=sign_only))
    per_s = dumps_json(certify_family(family(name, k), 0.1, 10.0).to_dict())
    assert json.loads(shared)["nu"] == nu
    assert shared == per_s


def test_the_largest_sign_tier_cell_is_the_value_tiers(monkeypatch):
    # a tighter value tier sends the grid's largest |det A| to 50 digits, and
    # the sign tier must report that cell, isolate_zeros' scale, bit for bit,
    # also when another cell is unknown (NaN)
    monkeypatch.setattr(certify, "CERT_REL_MAX", 1e-15)
    fams = family("F2", 2)
    xs = np.geomspace(0.1, 10.0, 64)
    for unknown_first_cell in (False, True):
        if unknown_first_cell:
            # the first cell reads as one with a subnormal entry: NaN at both tiers
            monkeypatch.setattr(certify, "_has_subnormal", lambda M: np.arange(M.shape[2]) == 0)
        for s in range(1, len(fams)):
            _, value_mag, _, _ = _wronskian_logs(fams, xs, s)
            _, loose_mag, _, recomputed = _wronskian_logs(fams, xs, s, sign_only=True)
            assert np.isnan(loose_mag[0]) == unknown_first_cell
            assert np.nanmax(loose_mag) == np.nanmax(value_mag), (unknown_first_cell, s)
            assert 0 < recomputed < len(xs)


@pytest.mark.parametrize("name,k,pair", [("F4", 1, "u4^1 and u6^1 are both x^2"),
                                         ("F1", 0, "u1^0 and u4^0 are both x^0"),
                                         ("F5", 0, "u1^0 and u4^0 are both x^0")])
def test_dependent_members_end_before_any_wronskian(monkeypatch, name, k, pair):
    monkeypatch.setattr(certify, "_derivative_matrices", None)
    verdict = certify_family(family(name, k), 0.1, 10.0).to_dict()
    assert (verdict["classification"], verdict["zero_bound"]) == ("inconclusive", None)
    assert pair in verdict["note"]


def test_a_family_without_a_repeated_power_has_no_note():
    assert "note" not in certify_family(family("F1", 1), 0.1, 10.0).to_dict()


def test_the_csv_pass_inverts_only_the_cells_the_cofactor_bound_leaves(monkeypatch):
    # rho_H / (1 - rho_H) <= CERT_REL_MAX clears every cell of W_0..W_3 of
    # F5^1 on cheb's grid, and some of W_4..W_7, with no inverse
    batches = []
    rho = certify._rho

    def recorded(A, s):
        batches.append((s, len(A)))
        return rho(A, s)

    monkeypatch.setattr(certify, "_rho", recorded)
    fams = family("F5", 1)
    xs = np.geomspace(0.1, 10.0, 400)
    every_s = scaled_wronskians(fams, xs)
    assert [s for s, _ in batches] == [4, 5, 6, 7]
    assert sum(n for _, n in batches) < 4 * len(xs)
    for s, ws in enumerate(every_s):
        assert ws.tobytes() == wronskian_scaled(fams, xs, s).tobytes()


@pytest.mark.parametrize("name,k", [("F2", 2), ("F3", 1), ("F5", 1), ("J0", None)])
def test_scalar_and_batched_wronskians_identical(name, k):
    fams = certified_family(name, k)
    xs = np.geomspace(0.1, 10.0, 64)
    every_s = scaled_wronskians(fams, xs)
    for s in range(len(fams)):
        scaled = [wronskian_scaled(fams, float(x), s) for x in xs]
        assert wronskian_scaled(fams, xs, s).tobytes() == np.array(scaled).tobytes()
        assert every_s[s].tobytes() == np.array(scaled).tobytes()
        value, well = wronskian(fams, xs, s)
        pointwise = [wronskian(fams, float(x), s) for x in xs]
        assert value.tobytes() == np.array([v for v, _ in pointwise]).tobytes()
        assert well.tolist() == [w for _, w in pointwise]


# -- zero isolation -----------------------------------------------------------


def isolate_zeros(f, a, b, **kw):
    """certify.isolate_zeros, with its one exhaustiveness rule checked on every
    report: exhaustive exactly when no flag was raised."""
    rep = certify.isolate_zeros(f, a, b, **kw)
    assert rep.exhaustive == (not rep.flags), rep.flags
    return rep


def test_isolate_simple_linear():
    rep = isolate_zeros(lambda x: x - 1.0, 0.5, 2.0)
    assert rep.count == 1
    assert rep.zeros[0].location == pytest.approx(1.0, abs=1e-12)
    assert rep.zeros[0].simple
    assert rep.exhaustive


def test_count_is_the_zero_count_not_tuple_count():
    # ZeroReport and Prop5Result are tuples: their count property shadows tuple.count
    rep = isolate_zeros(lambda x: (x - 1.0) * (x - 2.0), 0.5, 3.0)
    res = certify.Prop5Result((), {}, rep, rep)
    assert (rep.count, res.count) == (2, 2)


def test_isolate_w2_of_f11():
    # printed W2 has its single simple zero where (8k^2+6k+1)x^{4k} = 2k-1
    fams = family("F1", 1)

    def w2(xs):
        return np.array([wronskian_scaled(fams, float(x), 2) for x in np.atleast_1d(xs)])

    rep = isolate_zeros(w2, 0.05, 5.0, initial=1024)
    assert rep.count == 1
    assert rep.zeros[0].simple
    assert rep.zeros[0].location == pytest.approx((1.0 / 15.0) ** 0.25, abs=1e-9)


EIGHT_ROOTS = (0.13, 0.5, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


def _eight_zeros(x):
    """A polynomial whose magnitude spans ~30 decades over (1e-6, 50)."""
    out = np.ones_like(x)
    for r in EIGHT_ROOTS:
        out = out * (x - r)
    return out * (1.0 + x**8)


def test_isolate_handles_wide_dynamic_range():
    rep = isolate_zeros(_eight_zeros, 1e-6, 50.0, initial=8192)
    assert rep.count == len(EIGHT_ROOTS)
    assert rep.exhaustive
    for z, r in zip(rep.zeros, EIGHT_ROOTS):
        assert z.location == pytest.approx(r, rel=1e-9)
        assert z.simple


def test_isolate_refines_a_zero_at_a_tiny_scale():
    # the bracket around 3e-108 is far narrower than an absolute 1e-15, so
    # the tolerance must shrink with it or Brent returns a bracket end
    rep = isolate_zeros(lambda x: x / 1e-108 - 3.0, 1e-110, 1e-106)
    assert rep.count == 1
    z = rep.zeros[0]
    assert abs(z.location - 3e-108) <= 1e-11 * 3e-108
    assert z.bracket[0] < z.location < z.bracket[1]


def test_slope_probe_stays_in_the_bracket_near_a():
    # the zero lies 1e-9 above a: root - 1e-6 is negative, outside the domain
    # x > 0 of f, so the central difference is cut at the bracket's lower end
    lowest = []

    def f(x):
        lowest.append(np.min(x))
        return np.log(x / 1.1e-9)

    rep = isolate_zeros(f, 1e-10, 1.0)
    assert min(lowest) >= 1e-10
    assert rep.count == rep.simple_count == 1 and rep.exhaustive
    assert rep.zeros[0].location == pytest.approx(1.1e-9, rel=1e-12)


def test_near_double_zero_resolved_by_refinement():
    rep = isolate_zeros(lambda x: (x - 1.0) ** 2 - 1e-8, 0.5, 2.0, initial=2048)
    assert rep.count == 2
    assert all(abs(z.location - 1.0) < 2e-4 for z in rep.zeros)
    assert all(z.simple for z in rep.zeros)


def test_true_double_zero_withholds_exhaustiveness():
    rep = isolate_zeros(lambda x: (x - 1.0) ** 2, 0.5, 2.0, initial=2048)
    assert rep.count == 0
    assert not rep.exhaustive


@pytest.mark.parametrize("offset", [1e-12, -1e-12])
def test_a_dip_next_to_a_bracket_belongs_to_its_zero(offset):
    # a zero just off a scan point leaves a V-dip of |f| in the cell beside
    # its bracket, which refinement does not resolve; it is no leftover dip
    x0 = np.geomspace(0.5, 2.0, 4096)[2000] * (1.0 + offset)
    rep = isolate_zeros(lambda x: x - x0, 0.5, 2.0)
    assert rep.count == 1 and rep.exhaustive


def test_bisection_falls_back_to_the_scans_call():
    # g_3 of the Prop. 5 witness from F7^{3,1} at x^6: near x = 430 its values
    # are rounding noise of size 1e102, where a bare float takes another path
    # than the scan's array (-4.3e102 against +1.6e102 at 432.264), so
    # bisecting on floats alone found bracket ends of one sign
    a0, a1, a2, a3, a4 = prop5_witness(3).coefficients
    weights = (-16.0, 7 * (a0 - 16), 7 * (7 * a1 - 3 * a3), a2, 7 * a1 - 2 * a3, a4, 1.0)
    members = [m.substituted_power(6) for m in family("F7", 3, lam=1.0)]
    rep = isolate_zeros(lambda x: sum(c * m(x) for c, m in zip(weights, members)),
                        1e-9, 493.0, initial=8192)
    assert rep.count == rep.simple_count > 0 and rep.exhaustive and not rep.flags


def _scan_only_sign_change(x):
    """x - 1 on the default 4096-point scan grid, 1 on every other call."""
    return x - 1.0 if np.size(x) == 4096 else np.ones_like(x)


def test_bracket_whose_ends_disagree_with_the_scan_is_skipped():
    # the scan sees the sign change of x - 1; the call on the bracket ends never does
    rep = isolate_zeros(_scan_only_sign_change, 0.5, 2.0)
    assert rep.count == 0 and not rep.exhaustive
    assert "bracket-end-not-reproducible" in rep.flags


def _nan_on_2_to_5(x):
    """sin x with NaN on (2, 5), the window around its zero at pi."""
    return np.where((x > 2.0) & (x < 5.0), np.nan, np.sin(x))


def test_a_scan_that_sees_nan_is_not_exhaustive():
    # the zero at pi lies where f is NaN, so 2 zeros are a lower bound only
    rep = isolate_zeros(_nan_on_2_to_5, 0.1, 10.0, budget=120_000, initial=2048)
    assert [round(z.location, 9) for z in rep.zeros] == [round(2 * math.pi, 9),
                                                         round(3 * math.pi, 9)]
    assert not rep.exhaustive
    assert rep.flags.count("non-finite-values") == 1
    xs = np.geomspace(0.1, 10.0, 2048)
    assert rep.scale == np.max(np.abs(np.sin(xs[(xs <= 2.0) | (xs >= 5.0)])))


def test_an_all_nan_scan_is_not_identically_zero():
    rep = isolate_zeros(lambda x: np.full_like(x, np.nan), 0.1, 10.0)
    assert (rep.flags, rep.exhaustive, rep.scale) == (("non-finite-values",), False, 0.0)


def test_budget_flagging():
    rep = isolate_zeros(lambda x: np.sin(50.0 / x), 0.01, 1.0, budget=300, initial=128)
    assert rep.budget_used <= rep.budget
    assert not rep.exhaustive or rep.count > 0


def _abs_sine(x):
    """|sin 40x| + 1e-3: about 19 V-dips on [0.5, 2], none with a sign change."""
    return np.abs(np.sin(40.0 * x)) + 1e-3


def _recorded(f):
    """(g, calls): g is f, and calls lists the argument of every call to g."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_f_is_called_on_1d_float_arrays_only():
    # the scan and refinement grids, one call on the 2K ends of the K brackets,
    # Brent's calls on the brackets still running, then one 3K-point call
    # (x - h, root, x + h) for every slope and residual
    f, calls = _recorded(_eight_zeros)
    rep = isolate_zeros(f, 1e-6, 50.0, initial=8192)
    assert rep.count == 8 and rep.exhaustive
    assert all(type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64 for x in calls)
    rounds, k = len(rep.grid_rounds), rep.count
    assert [len(x) for x in calls[:rounds]] == list(rep.grid_rounds)
    assert len(calls[rounds]) == 2 * k and len(calls[-1]) == 3 * k
    sizes = [len(x) for x in calls[rounds + 1:-1]]
    assert sizes and sizes == sorted(sizes, reverse=True) and sizes[0] <= k
    assert calls[-1][k:2 * k].tolist() == [z.location for z in rep.zeros]
    for z, fx in zip(rep.zeros, _eight_zeros(calls[-1])[k:2 * k]):
        assert z.residual == abs(fx)


def test_prop4_witness_calls_f_on_arrays_of_brackets(monkeypatch):
    calls = []
    real = certify.isolate_zeros

    def counted(f, *args, **kw):
        return real(lambda x: calls.append(len(x)) or f(x), *args, **kw)

    monkeypatch.setattr(certify, "isolate_zeros", counted)
    rep = prop4_witness()
    assert rep.budget_used == sum(calls) == 8309
    assert len(calls) <= 20


# one input per flag isolate_zeros can raise, and one that raises none
@pytest.mark.parametrize("f, a, b, kw, flag", [
    (_eight_zeros, 1e-6, 50.0, {"initial": 8192}, None),
    (lambda x: np.sin(50.0 / x), 0.01, 1.0, {"budget": 300, "initial": 128},
     "budget-exhausted-during-bisection"),
    (_scan_only_sign_change, 0.5, 2.0, {}, "bracket-end-not-reproducible"),
    (lambda x: x - 1.0, 0.5, 2.0, {"budget": 60}, "refinement-budget-exhausted"),
    (_abs_sine, 0.5, 2.0, {"budget": 500, "initial": 128}, "refinement-truncated-by-budget"),
    (lambda x: (x - 1.0) ** 2, 0.5, 2.0, {"initial": 2048}, "unresolved-dip-without-sign-change"),
    (_nan_on_2_to_5, 0.1, 10.0, {"initial": 2048}, "non-finite-values"),
    (np.zeros_like, 0.5, 2.0, {}, "identically-zero-on-grid"),
], ids=["eight-zeros", "budget-exhausted", "bracket-skipped", "refinement-budget-exhausted",
        "refinement-truncated", "unresolved-dip", "non-finite", "identically-zero"])
def test_budget_used_counts_every_point_f_receives(f, a, b, kw, flag):
    g, calls = _recorded(f)
    rep = isolate_zeros(g, a, b, **kw)
    assert rep.budget_used == sum(len(x) for x in calls)
    # each flag names a way the count may fall short
    assert flag is None or flag in rep.flags
    assert rep.exhaustive is (flag is None)


# -- classification -----------------------------------------------------------


def test_theorem3_bound_units():
    assert theorem3_bound([0, 0, 0, 0]) == 3
    assert theorem3_bound([0, 0, 0, 1]) == 4
    # n = 5: nu = (1, 0, 2, 0, 1, 1)
    nu = [1, 0, 2, 0, 1, 1]
    expected = 5 + 1 + 1 + 2 * (0 + 2 + 0 + 1) + min(2 * 1, 0 + 1) + min(2 * 0, 1)
    assert theorem3_bound(nu) == expected == 14


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=8),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=80, deadline=None)
def test_theorem3_bound_monotone(nu, idx):
    nu = list(nu)
    bumped = list(nu)
    bumped[idx % len(nu)] += 1
    assert theorem3_bound(bumped) >= theorem3_bound(nu)


def test_certify_ect_family():
    verdict = certify_family(family("F2", 1), 0.1, 10.0, name="F2^1")
    assert verdict.classification == "ECT"
    assert verdict.zero_bound == 3
    assert all(v == 0 for v in verdict.nu)


def test_certify_accuracy_one_family():
    verdict = certify_family(family("F1", 1), 0.1, 10.0, name="F1^1")
    assert verdict.classification == "ET-accuracy-1"
    assert verdict.zero_bound == 3
    assert verdict.nu == (0, 0, 1)


def _report(exhaustive, *simple):
    """A zero report on [0.5, 2] with one zero per entry of ``simple``."""
    zeros = tuple(certify.ZeroRecord(1.0 + 0.1 * i, s, (0.9 + 0.1 * i, 1.1 + 0.1 * i), 0.0,
                                     1.0 if s else 0.0) for i, s in enumerate(simple))
    return certify.ZeroReport((0.5, 2.0), zeros, exhaustive=exhaustive, budget_used=0,
                              budget=1, grid_rounds=(), scale=1.0)


# the members are never evaluated: isolate_zeros is replaced by a stub
STUB_FAMILY = [BasisFunction(label=f"f{i}", fn=np.sin) for i in range(3)]


@pytest.mark.parametrize("reports", [
    [_report(True), _report(False), _report(True)],
    [_report(True), _report(True), _report(True, False)],
    [_report(True, False), _report(True), _report(True, True)],
], ids=["not-exhaustive", "last-zero-not-simple", "first-zero-not-simple"])
def test_an_unproved_zero_count_is_inconclusive(monkeypatch, reports):
    stub = iter(reports)
    monkeypatch.setattr(certify, "isolate_zeros", lambda f, a, b, **kw: next(stub))
    verdict = certify_family(STUB_FAMILY, 0.5, 2.0)
    assert verdict.nu == tuple(r.count for r in reports)
    assert verdict.exhaustive == all(r.exhaustive for r in reports)
    assert (verdict.classification, verdict.zero_bound) == ("inconclusive", None)


@pytest.mark.parametrize("call", [
    lambda: wronskian(family("F1", 1), 1.0, 3),
    lambda: prop5_witness(1),
    lambda: isolate_zeros(lambda x: x - 1.0, 0.0, 2.0),
    lambda: isolate_zeros(lambda x: x + 1.0, -2.0, 2.0),
    lambda: isolate_zeros(lambda x: x - 1.0, 2.0, 0.5),
    lambda: isolate_zeros(lambda x: x - 1.0, math.nan, 2.0),
    lambda: isolate_zeros(lambda x: 1.0, 0.5, 2.0),
    lambda: isolate_zeros(lambda x: np.stack([x, x]), 0.5, 2.0),
], ids=["wronskian-order-past-the-family", "prop5-at-k1", "isolate-from-0",
        "isolate-from-negative", "isolate-reversed", "isolate-from-nan",
        "isolate-scalar-result", "isolate-stacked-result"])
def test_bad_request_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("a, b", [(0.1, math.inf), (0.1, math.nan), (math.nan, 10.0),
                                  (0.0, 10.0), (10.0, 0.1)])
def test_certify_rejects_an_interval_outside_0_a_b_inf(a, b):
    # on [0.1, inf) the scan would see no zero and call F1^1 an ECT family,
    # though its W_2 vanishes inside [0.1, 10]
    with pytest.raises(DomainError):
        certify_family(family("F1", 1), a, b, name="F1^1")


def test_certify_f62_accuracy_one():
    verdict = certify_family(family("F6", 2), 0.1, 10.0, name="F6^2")
    assert verdict.classification == "ET-accuracy-1"
    assert verdict.zero_bound == 7
    assert verdict.nu == (0, 0, 0, 0, 0, 0, 1)


def test_certify_f51_needs_no_extended_precision():
    verdict = certify_family(family("F5", 1), 0.1, 10.0, name="F5^1")
    assert verdict.classification == "ECT"
    assert verdict.fallbacks == (0,) * 8


def test_prop4_zeros_are_accurate_to_1e10():
    # each zero against a 50-digit root of the printed F7^{1,2}(x^2)
    # combination near it; the worst measured is 1.1e-11 relative, at x = 8
    import mpmath

    report = prop4_witness()
    assert report.count == report.simple_count == 8
    fams = family("F7", 1, lam=2.0)
    with mpmath.workdps(50):
        weights = [mpmath.mpf(c) for c in PROP4_COEFFS] + [1]

        def g(x):
            return sum(w * bf(x * x) for w, bf in zip(weights, fams, strict=True))

        for z in report.zeros:
            root = mpmath.findroot(g, mpmath.mpf(z.location))
            assert abs(z.location - root) <= 1e-10 * root


@pytest.mark.parametrize("k", [2, 3])
def test_f7_polynomials_are_the_generators_at_x_to_the_2k(k):
    # the Prop. 5 coefficient arrays against the F7^{k,1} members evaluated
    # in floats; the worst measured gap is 1.7e-15 relative
    from numpy.polynomial import polynomial as P

    xs = np.geomspace(0.2, 1.5, 50)
    polys = certify._f7_polynomials(k)
    members = family("F7", k, lam=1.0)
    assert len(polys) == len(members) == 7
    for p, bf in zip(polys, members):
        np.testing.assert_allclose(P.polyval(xs, p), bf(xs ** (2 * k)), rtol=1e-12, atol=0.0)


def test_staged_witness_tries_one_ladder_at_k4(monkeypatch):
    # stage two reaches 6 simple zeros at k = 4 and reports the failure
    # after one zero isolation of g_4, as it reports success at k = 2 and 3
    calls = mock.Mock(wraps=certify.isolate_zeros)
    monkeypatch.setattr(certify, "isolate_zeros", calls)
    res = prop5_witness(4)
    assert calls.call_count == 2              # stage one, then stage two
    assert (res.count, res.succeeded) == (6, False)


def test_staged_witness_generalizes_to_k3():
    from melnlab.certify import prop5_witness

    res = prop5_witness(3)
    assert res.succeeded and res.count >= 9
    assert res.stage1_report.simple_count == 4
    ladder = res.sign_ladder
    assert ladder["g(0)"] > 0 > ladder["g(1/2)"]
    assert abs(ladder["g(1)"]) < 1e-6 and ladder["gprime(1)"] < 0 < ladder["g(2)"]


def test_verdict_json_round(tmp_path):
    verdict = certify_family(family("F1", 1), 0.5, 2.0, name="F1^1")
    text = dumps_json(verdict.to_dict())
    assert '"classification"' in text
    assert len(verdict.fallbacks) == 3
    assert json.loads(text)["fallbacks"] == list(verdict.fallbacks)
    assert certify_family(family("F1", 1), 0.5, 2.0).fallbacks == verdict.fallbacks
