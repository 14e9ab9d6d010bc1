"""Cross-route oracles: recursion quantities vs direct simulation.

The crossing-time coefficients and the perturbed-crossing expansion terms
are recomputed from the integrated return orbit (root-solved events), which
shares nothing with the jet/series path.
"""

import math

import numpy as np
import pytest

from conftest import random_config
from melnlab.recursion import ZTable, melnikov
from melnlab.simulate import integrate_return
from test_simulate import ladder_melnikov


def crossing_angle(cfg, x0, eps, j):
    res = integrate_return(x0, eps, cfg, eps_max=0.05)
    return res.crossing_angles[j - 1]


def crossing_radius(cfg, x0, eps, j):
    res = integrate_return(x0, eps, cfg, eps_max=0.05)
    px, py = res.crossing_points[j - 1]
    return math.hypot(px, py)


@pytest.mark.parametrize("j", [1, 2])
def test_alpha2_matches_crossing_time_differences(rng, j):
    # alpha_j^2 = d^2/deps^2 of the root-solved crossing time at eps = 0;
    # the table must be built one order above q
    from melnlab.config import OrderCoefficients, SystemConfig

    base = random_config(rng, 3, 2, scale=0.7)
    cfg = SystemConfig(n=3, k=3, orders=base.orders + (OrderCoefficients(),))
    x0 = 1.15
    table = ZTable(cfg, x0, 3)
    h = 2e-3
    a_plus = crossing_angle(cfg, x0, +h, j)
    a_zero = crossing_angle(cfg, x0, 0.0, j)
    a_minus = crossing_angle(cfg, x0, -h, j)
    fd2 = (a_plus - 2.0 * a_zero + a_minus) / h**2
    assert table.alpha(2, j) == pytest.approx(fd2, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("j", [1, 2])
def test_alpha1_matches_crossing_time_differences(rng, j):
    cfg = random_config(rng, 2, 2, scale=0.7)
    x0 = 0.9
    table = ZTable(cfg, x0, 2)
    h = 1e-3
    f1 = (crossing_angle(cfg, x0, +h, j) - crossing_angle(cfg, x0, -h, j)) / (2 * h)
    f2 = (crossing_angle(cfg, x0, +h / 2, j) - crossing_angle(cfg, x0, -h / 2, j)) / h
    richardson = (4.0 * f2 - f1) / 3.0
    assert table.alpha(1, j) == pytest.approx(richardson, rel=1e-8, abs=1e-11)


@pytest.mark.parametrize("j", [1, 2])
def test_w_coefficients_match_crossing_radius_ladder(rng, j):
    # w_i^j are the eps-Taylor coefficients of (radius at crossing j) - x0
    from melnlab.config import OrderCoefficients, SystemConfig

    base = random_config(rng, 3, 3, scale=0.6)
    cfg = SystemConfig(n=3, k=4, orders=base.orders + (OrderCoefficients(),))
    x0 = 1.1
    table = ZTable(cfg, x0, 4)
    eps = 1.5e-2 / 2.0 ** np.arange(3)
    ladder = np.concatenate([eps, -eps])
    vals = np.array([crossing_radius(cfg, x0, e, j) - x0 for e in ladder])
    V = np.vander(ladder, 6, increasing=True)[:, 1:]  # columns eps^1..eps^5
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    for i in (1, 2, 3):
        want = table.w(i, j)
        scale = max(1.0, abs(want))
        tol = 1e-6 if i < 3 else 1e-4
        assert abs(coef[i - 1] - want) / scale < tol, (i, coef[i - 1], want)


def test_oracle_agreement_random_configs(rng):
    # ten random order-2 configs: recursion vs the jet-free ladder of
    # simulated returns at 1e-3 relative
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        cfg = random_config(rng, n, 2)
        for x0 in (0.8, 1.3):
            for i in (1, 2):
                want = melnikov(cfg, i, x0)
                ref = ladder_melnikov(x0, i, cfg)
                worst = max(worst, abs(ref - want) / max(1.0, abs(want)))
    assert worst <= 1e-3, worst
