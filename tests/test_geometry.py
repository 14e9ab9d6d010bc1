import math

import numpy as np
import pytest

from melnlab.config import OrderCoefficients, SystemConfig
from melnlab.errors import DomainError
from melnlab.geometry import (SECTOR_SIGNS, crossing_abscissa, switching_angles,
                              switching_function, theta1_jet)
from melnlab.recursion import ZTable


def test_n1_angles_are_constant():
    for r in (0.3, 1.0, 7.5):
        t1, t2 = switching_angles(r, 1)
        assert t1 == pytest.approx(math.pi / 4, abs=1e-15)
        assert t2 == pytest.approx(math.pi + math.pi / 4, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("r", [0.2, 1.0, 2.0, 9.0])
def test_defining_equation_residual(n, r):
    t1, t2 = switching_angles(r, n)
    assert abs(switching_function(r, t1, n)) < 1e-13 * max(1.0, r ** (n - 1))
    assert abs(switching_function(r, t2, n)) < 1e-12 * max(1.0, r ** (n - 1))
    assert 0.0 < t1 < t2 < 2.0 * math.pi
    assert t2 == pytest.approx(math.pi - (-1.0) ** n * t1, abs=1e-14)


def test_crossing_abscissa_solves_radius_relation():
    for n in (2, 3, 5):
        for r in (0.4, 1.0, 3.0):
            x = crossing_abscissa(r, n)
            assert x * x + x ** (2 * n) == pytest.approx(r * r, rel=1e-14)
            t1, _ = switching_angles(r, n)
            assert x == pytest.approx(r * math.cos(t1), rel=1e-13)


def test_domain_errors():
    with pytest.raises(DomainError):
        switching_angles(0.0, 2)
    with pytest.raises(DomainError):
        switching_angles(-1.0, 3)
    with pytest.raises(DomainError):
        switching_angles(1e-9, 3)  # below the admissible radius floor


def test_region_classification_random_sample(rng):
    # sign of y - x^n must agree with the sector labels everywhere
    for n in (1, 2, 3, 4):
        rs = rng.uniform(0.05, 5.0, 2500)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 2500)
        for r, th in zip(rs, thetas):
            s = switching_function(r, th, n)
            if abs(s) < 1e-12:
                continue
            j = int(np.searchsorted(switching_angles(r, n), th, side="right"))
            assert SECTOR_SIGNS[j] == (1 if s > 0 else -1), (n, r, th)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_theta1_jet_matches_finite_differences(n):
    r0, h = 1.3, 1e-4
    jet = theta1_jet(r0, n, 3)

    def t1(r):
        return switching_angles(r, n)[0]

    fd1 = (t1(r0 + h) - t1(r0 - h)) / (2 * h)
    fd2 = (t1(r0 + h) - 2 * t1(r0) + t1(r0 - h)) / h**2
    fd3 = (t1(r0 + 2 * h) - 2 * t1(r0 + h) + 2 * t1(r0 - h) - t1(r0 - 2 * h)) / (2 * h**3)
    assert jet.derivative(1) == pytest.approx(fd1, rel=1e-7)
    assert jet.derivative(2) == pytest.approx(fd2, rel=1e-4)
    assert jet.derivative(3) == pytest.approx(fd3, rel=1e-3)


def test_theta_jet_of_second_angle():
    def theta_jets(n):
        cfg = SystemConfig(n=n, k=2, orders=(OrderCoefficients(), OrderCoefficients()))
        return ZTable(cfg, 1.1, 2)._theta_jets

    j1, j2 = theta_jets(2)
    assert j2.value == pytest.approx(math.pi - j1.value, abs=1e-14)
    assert j2.derivative(1) == pytest.approx(-j1.derivative(1), abs=1e-14)
    j13, j23 = theta_jets(3)
    assert j23.derivative(1) == pytest.approx(j13.derivative(1), abs=1e-14)
