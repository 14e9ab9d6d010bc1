import math
from unittest import mock

import numpy as np
import pytest

from conftest import random_config
from melnlab import closedforms, recursion
from melnlab.closedforms import (LM_MAX_STEPS, _cancelling_block, _kernel_residual,
                                 _levenberg_marquardt, _m2_on_grid, _oc_from_vec,
                                 _polarized_second_order, _v_kernel, config_from_v, cov_r_of_x,
                                 first_order_image, fit_to_span, m1_closed, q_denominator,
                                 q_values, sign_pattern_search, structural_span,
                                 table3_structure_config, v_coefficients, v_map_matrix,
                                 vanishing_order_config)
from melnlab.errors import ConfigurationError, DomainError, NumericalError
from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.geometry import crossing_abscissa
from melnlab.recursion import melnikov


def test_v_map_roundtrip_odd():
    target = (0.7, -1.3, 2.1)
    back = v_coefficients(config_from_v(target, 3))
    assert isinstance(back, tuple)
    assert back == pytest.approx(target, rel=1e-14)


def test_v_map_roundtrip_even():
    target = (0.4, -0.9, 1.7, -2.2)
    back = v_coefficients(config_from_v(target, 4))
    assert isinstance(back, tuple)
    assert back == pytest.approx(target, rel=1e-13)


@pytest.mark.parametrize("n, v", [(3, (0.4, -0.9, 1.7, -2.2)), (4, (0.7, -1.3, 2.1))])
def test_config_from_v_checks_the_length_against_n(n, v):
    with pytest.raises(ConfigurationError):
        config_from_v(v, n)


@pytest.mark.parametrize("call, error", [
    (lambda cfg: m1_closed(cfg, 0.0), DomainError),
    (lambda cfg: cov_r_of_x(0.0, 2), DomainError),
    (lambda cfg: fit_to_span([(x, 1.0) for x in (0.5, 1.0, 1.5)], 3, 2), ConfigurationError),
    (lambda cfg: vanishing_order_config(2, 5), ConfigurationError),
], ids=["m1-at-radius-0", "abscissa-0", "too-few-samples", "vanishing-order-5"])
def test_bad_input_is_a_typed_error(rng, call, error):
    with pytest.raises(error):
        call(random_config(rng, 2, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_v_map_matrix_is_v_coefficients(rng, n):
    V = v_map_matrix(n)
    for _ in range(5):
        block = rng.uniform(-1.0, 1.0, 12)
        want = v_coefficients(SystemConfig(n=n, k=1, orders=(_oc_from_vec(block),)))
        assert np.max(np.abs(V @ block - np.array(want))) <= 1e-15


@pytest.mark.parametrize("n", range(1, 7))
def test_cancelling_block_cancels_the_image(rng, n):
    # the kernel searches cancel the first-order image part of M_2 this way
    rs = np.geomspace(0.3, 3.0, 7)
    B = first_order_image(n, rs)
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, B.shape[1])
        cfg = SystemConfig(n=n, k=1, orders=(_cancelling_block(n, c),))
        want = -(B @ c)
        got = np.array([m1_closed(cfg, float(r)) for r in rs])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_trivial_vanishing_combination():
    # b01 = beta01, a01 = alpha01, slope sum zero -> first order vanishes
    oc = OrderCoefficients(a=(0.5, 0.3, 0.1), b=(0.2, 0.9, -0.8),
                           alpha=(0.5, 0.4, -0.6), beta=(0.2, 0.7, 0.1))
    cfg = SystemConfig(n=3, k=1, orders=(oc,))
    assert v_coefficients(cfg) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    for r in (0.5, 1.0, 2.0):
        assert m1_closed(cfg, r) == pytest.approx(0.0, abs=1e-15)


def test_cov_roundtrip_and_monotonicity():
    for n in range(2, 8):
        xs = np.geomspace(1e-2, 10.0, 250)
        rs = np.array([cov_r_of_x(float(x), n) for x in xs])
        assert np.all(np.diff(rs) > 0)
        for x, r in zip(xs[::25], rs[::25]):
            assert abs(crossing_abscissa(r, n) - x) <= 1e-12 * max(1.0, x)
    assert crossing_abscissa(1.0, 1) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert cov_r_of_x(1.0, 3) == pytest.approx(math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_q_identity(rng, n):
    for _ in range(3):
        cfg = random_config(rng, n, 1)
        xs = np.geomspace(0.2, 2.5, 12)
        lhs = q_values(v_coefficients(cfg), n, xs) / q_denominator(xs, n)
        rhs = [m1_closed(cfg, cov_r_of_x(float(x), n)) for x in xs]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_m1_closed_matches_quadrature_even(rng):
    from test_recursion import melfun_quadrature
    cfg = random_config(rng, 4, 1)
    for r in (0.5, 1.0, 2.0):
        assert m1_closed(cfg, r) == pytest.approx(melfun_quadrature(cfg, r), abs=1e-10)


def test_denominator_positivity():
    xs = np.geomspace(1e-3, 1e3, 500)
    for n in (2, 3, 4, 5):
        assert np.all(q_denominator(xs, n) > 0)
        k = (n - 1) // 2 if n % 2 else n // 2
        assert np.all((1 + 2 * xs**2) ** 2 > 0)
        assert np.all((1 + (1 + 2 * k) * xs ** (4 * max(k, 1))) ** 2 > 0)


def test_n1_reduced_polynomial_single_zero(rng):
    # q for n = 1 is affine; never more than one positive zero
    xs = np.geomspace(1e-3, 1e3, 1024)
    for _ in range(50):
        signs = np.sign(q_values(v_coefficients(random_config(rng, 1, 1)), 1, xs))
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes <= 1


def test_fit_zero_samples_gives_zero_fit():
    samples = [(x, 0.0) for x in np.geomspace(0.3, 2.0, 30)]
    fit = fit_to_span(samples, 3, 1)
    assert fit.residual == 0.0
    assert all(c == 0.0 for c in fit.coefficients)


def test_fit_first_order_exact(rng):
    # M1 samples land exactly on the declared order-1 span
    for n in (2, 3):
        cfg = random_config(rng, n, 1)
        xs = np.geomspace(0.3, 2.0, 36)
        samples = [(float(x), m1_closed(cfg, cov_r_of_x(float(x), n))) for x in xs]
        fit = fit_to_span(samples, n, 1)
        assert fit.residual < 1e-11


def test_structural_span_table():
    name, fam, den = structural_span(2, 3)
    assert name == "F3^1" and len(fam) == 5
    name, fam, den = structural_span(4, 2)
    assert name == "F6^2" and len(fam) == 7
    name, fam, den = structural_span(3, 4)
    assert name == "F5^1" and len(fam) == 8
    name, fam, den = structural_span(3, 6)
    assert name.startswith("F7^1") and len(fam) == 7


def test_sign_pattern_search_n3():
    found = sign_pattern_search(3, 3, seed=1)
    assert found is not None
    v, zeros = found
    assert len(zeros) == 3
    assert isinstance(v, tuple) and len(v) == 3
    scale = max(1.0, abs(q_values(v, 3, 1.0)[0]))
    assert np.max(np.abs(q_values(v, 3, zeros))) <= 1e-9 * scale


def _sign_pattern_search_per_trial(n, zero_count, seed):
    """The search with one draw, screen and design per trial, as a reference."""
    from melnlab.certify import isolate_zeros

    rng = np.random.default_rng(seed)
    funcs = closedforms.q_basis(n)
    a, b = closedforms.SEARCH_INTERVAL
    npts = zero_count + 1
    signs = np.array([(-1.0) ** m for m in range(npts)])
    for _ in range(closedforms.SEARCH_TRIALS):
        pts = np.sort(np.exp(rng.uniform(math.log(a), math.log(b), size=npts)))
        if np.min(np.diff(np.log(pts))) < 0.05:
            continue
        design = np.column_stack([g(pts) for g in funcs])
        targets = signs * np.linalg.norm(design, axis=1)
        vv, *_ = np.linalg.lstsq(design, targets, rcond=None)
        if np.any(np.sign(design @ vv) != signs):
            continue
        report = isolate_zeros(lambda x: q_values(vv, n, x), a / 4.0, b * 4.0,
                               budget=40_000, initial=2048)
        simple = [z for z in report.zeros if z.simple]
        if len(simple) == zero_count and report.count == zero_count:
            return tuple(float(c) for c in vv), tuple(z.location for z in simple)
    return None


@pytest.mark.parametrize("n, zero_count", [(1, 1), (2, 3), (3, 3), (5, 3), (4, 4)])
def test_sign_pattern_search_equals_the_per_trial_search(n, zero_count):
    def hexes(found):
        return found and tuple(tuple(v.hex() for v in part) for part in found)

    for seed in range(10):
        assert (hexes(sign_pattern_search(n, zero_count, seed=seed))
                == hexes(_sign_pattern_search_per_trial(n, zero_count, seed))), seed


def test_order6_divided_span_self_consistent(rng):
    # a synthetic member of the divided order-6 family must fit its own span
    # at machine precision; probes the last generator's printed formula wiring
    name, fam, den = structural_span(3, 6)
    assert "F7" in name
    coeffs = rng.uniform(-1.0, 1.0, len(fam))
    xs = np.geomspace(0.4, 1.6, 3 * len(fam) + 4)

    def m6(x):
        num = sum(c * bf(x) for c, bf in zip(coeffs, fam))
        return num / den(x)

    samples = [(float(x), float(m6(float(x)))) for x in xs]
    fit = fit_to_span(samples, 3, 6)
    assert fit.residual < 1e-10
    assert fit.coefficients == pytest.approx(tuple(coeffs), rel=1e-7, abs=1e-9)


def test_vanishing_order_configs_lower_orders_zero(rng):
    cfg2 = vanishing_order_config(3, 2, seed=5)
    assert abs(melnikov(cfg2, 1, 1.1)) < 1e-12
    cfg4 = vanishing_order_config(2, 4, seed=5)
    for i in (1, 2, 3):
        assert abs(melnikov(cfg4, i, 1.1)) < 1e-11
    assert abs(melnikov(cfg4, 4, 1.1)) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polarized_form_on_jets_matches_the_recursion(n):
    # the quadratic form the searches run on, from eps-jet passes, against
    # the same polarization of recursion values
    null = _v_kernel(n)
    rs = np.geomspace(0.5, 1.9, 4)

    def m2_recursion(c1vecs):
        return np.array([melnikov(SystemConfig(n=n, k=2, orders=(_oc_from_vec(v),
                                                                 OrderCoefficients())), 2, rs)
                         for v in c1vecs])

    jets = _polarized_second_order(_m2_on_grid(n, rs), null)
    want = _polarized_second_order(m2_recursion, null)
    assert np.max(np.abs(jets - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_polarization_is_the_per_direction_loop(n):
    # one stacked pass over all d + d(d-1)/2 directions gives the bits of one
    # pass per direction
    null = _v_kernel(n)
    m2 = _m2_on_grid(n, np.geomspace(0.5, 1.9, 5))
    d = null.shape[0]
    diag = [m2(v) for v in null]
    loop = np.zeros((d, d, 5))
    for j in range(d):
        loop[j, j] = diag[j]
        for i in range(j):
            loop[i, j] = loop[j, i] = 0.5 * (m2(null[i] + null[j]) - diag[i] - diag[j])
    G = _polarized_second_order(m2, null)
    assert np.array_equal(G.view(np.uint64), loop.view(np.uint64))


def test_kernel_residual_jacobian_matches_central_difference(rng):
    d, g, rows = 9, 18, 13
    G = rng.standard_normal((d, d, g))
    G = G + G.transpose(1, 0, 2)
    proj = rng.standard_normal((rows, g))
    fun, jac = _kernel_residual(G, proj)
    h = 1e-6
    for _ in range(3):
        c = rng.standard_normal(d)
        central = np.column_stack([(fun(c + h * e) - fun(c - h * e)) / (2.0 * h)
                                   for e in np.eye(d)])
        assert jac(c).shape == (rows + 1, d)
        assert np.max(np.abs(jac(c) - central)) <= 1e-8 * np.max(np.abs(central))


def test_levenberg_marquardt_reaches_a_planted_kernel_zero(rng):
    # proj_rows annihilate M_2(c_star) = c_star G c_star, so the residual has
    # an isolated zero at the unit vector c_star; start near it
    d, g = 9, 14
    G = rng.standard_normal((d, d, g))
    G = G + G.transpose(1, 0, 2)
    c_star = rng.standard_normal(d)
    c_star /= np.linalg.norm(c_star)
    m = np.einsum("i,j,ijg->g", c_star, c_star, G)
    proj = np.eye(g) - np.outer(m, m) / (m @ m)
    fun, jac = _kernel_residual(G, proj)
    c0 = c_star + 0.05 * rng.standard_normal(d)
    c, f = _levenberg_marquardt(fun, jac, c0 / np.linalg.norm(c0))
    assert np.array_equal(f, fun(c))
    assert np.linalg.norm(f) <= 1e-11
    assert min(np.linalg.norm(c - c_star), np.linalg.norm(c + c_star)) <= 1e-9


def test_levenberg_marquardt_reaches_a_singular_zero():
    # M_2(c) = (c_0 - c_1)^2 has a double zero on the unit circle at
    # +-(1, 1)/sqrt(2), where J is rank-deficient and convergence only linear
    G = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    fun, jac = _kernel_residual(G, np.eye(1))
    c, f = _levenberg_marquardt(fun, jac, np.array([1.0, 0.0]))
    assert np.linalg.norm(f) <= 1e-11


def test_levenberg_marquardt_stops_on_a_residual_floor():
    # the large-residual problem f = (x + 1, 0.99 x^2 + x - 1) has its
    # least-squares minimum |f| = sqrt(2) at x = 0, which Gauss-Newton steps
    # approach only linearly, at rate 0.99; without the stall stop the run
    # spends the whole step cap
    calls = []

    def fun(x):
        calls.append(1)
        return np.array([x[0] + 1.0, 0.99 * x[0] ** 2 + x[0] - 1.0])

    def jac(x):
        return np.array([[1.0], [1.98 * x[0] + 1.0]])

    _, f = _levenberg_marquardt(fun, jac, np.array([1.0]))
    assert np.linalg.norm(f) == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert len(calls) < LM_MAX_STEPS // 2


def test_searches_leave_the_recursion_to_verify(monkeypatch):
    # the structure search builds no recursion table; the order-3 search
    # checks its accepted candidate with one order-3 table over its check points
    builds = mock.Mock(wraps=recursion.ZTable)
    monkeypatch.setattr(recursion, "ZTable", builds)
    table3_structure_config(3, seed=1)
    assert builds.call_count == 0
    cfg = vanishing_order_config(3, 3, seed=2024)
    assert builds.call_count == 1
    assert builds.call_args.args[1].tolist() == [0.8, 1.3] and builds.call_args.args[2] == 3
    assert max(abs(melnikov(cfg, i, r)) for i in (1, 2) for r in (0.8, 1.3)) < 1e-11


def test_structure_search_makes_two_m2_passes_per_candidate(monkeypatch):
    # one stacked pass polarizes M_2 over the kernel; each candidate then
    # takes one pass on the search grid, for its order-2 block, and one on
    # the screen grid, which the degeneracy guard reads too
    passes = mock.Mock(wraps=closedforms.extract_melnikov)
    monkeypatch.setattr(closedforms, "extract_melnikov", passes)
    search = closedforms._kernel_quadratic_search
    candidates = []

    def counted(n, proj, m2, rng, starts, accept, **kw):
        return search(n, proj, m2, rng, starts,
                      lambda c1: candidates.append(c1) or accept(c1), **kw)

    monkeypatch.setattr(closedforms, "_kernel_quadratic_search", counted)
    table3_structure_config(3, seed=2)
    assert passes.call_count == 1 + 2 * len(candidates)
    assert len(candidates) == 2                    # the first fails the screen


def test_levenberg_marquardt_runs_only_on_starts_above_tol(monkeypatch):
    # every random start of the structure search is already under its 1e-7
    # relative tol and goes to accept as it is; the order-3 search's starts lie
    # far above its 1e-11 absolute tol, so LM still finds its kernel zero
    lm = mock.Mock(wraps=_levenberg_marquardt)
    monkeypatch.setattr(closedforms, "_levenberg_marquardt", lm)
    for n in (2, 3, 5):
        table3_structure_config(n, seed=7)
        assert lm.call_count == 0, n
    cfg = vanishing_order_config(3, 3, seed=2024)
    assert lm.call_count >= 1
    assert max(abs(melnikov(cfg, i, r)) for i in (1, 2) for r in (0.8, 1.3)) < 1e-11


@pytest.mark.parametrize("starts, search", [
    ("STRUCTURE_STARTS", table3_structure_config),
    ("ORDER3_STARTS", lambda n: vanishing_order_config(n, 3)),
], ids=["structure", "order3"])
def test_searches_out_of_starts_raise_numerical_error(monkeypatch, starts, search):
    monkeypatch.setattr(closedforms, starts, 0)
    with pytest.raises(NumericalError, match=r"failed \(n = 3, seed 0, 0 starts\)"):
        search(3)
