"""Closed-form scalar building blocks: profile, well, comparison functions,
auxiliary ODE solutions, coordinate maps."""

import numpy as np
import pytest

from oracles import rho1, rho_quadrature, subsolution_defect
from saddlecheck.scalars import (SQRT2, double_well, g_profile, heteroclinic,
                                 hh_supersolution, rho, st_to_yz)

RNG = np.random.default_rng(20240817)


def test_heteroclinic_values():
    assert heteroclinic(0.0) == 0.0
    assert heteroclinic(0.0, 1) == pytest.approx(1.0 / SQRT2, abs=1e-15)
    for order in (-1, 2):
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            heteroclinic(0.0, order)


def test_heteroclinic_shape():
    x = RNG.uniform(-20, 20, 10_000)
    h = np.asarray(heteroclinic(x))
    assert np.all(np.abs(h) < 1.0)
    assert np.allclose(heteroclinic(-x), -h, atol=0)
    # strict monotonicity where tanh is not saturated in float64
    xs = np.sort(x[np.abs(x) < 8.0])
    assert np.all(np.diff(np.asarray(heteroclinic(xs))) > 0)


def test_modica_identity():
    x = RNG.uniform(-10, 10, 10_000)
    lhs = 0.5 * np.asarray(heteroclinic(x, 1)) ** 2
    rhs = double_well(np.asarray(heteroclinic(x)))
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_double_well():
    assert double_well(1.0) == 0.0
    assert double_well(0.0) == 0.25
    u = RNG.uniform(-2, 2, 100)
    assert np.allclose(double_well(-u), double_well(u), atol=0)


def test_hh_supersolution():
    y = RNG.uniform(0, 10, 50)
    assert np.allclose(hh_supersolution(y, 0.0), 0.0, atol=0)
    assert hh_supersolution(0.1, 0.1) == pytest.approx(0.5 * 0.01, rel=0.05)
    # 1 - H(10)^2 = 2.9e-6 exactly (tail 2e^(-sqrt2 x) per factor)
    assert hh_supersolution(10.0, 10.0) == pytest.approx(1.0, abs=5e-6)


def test_g_profile_limits():
    assert g_profile(0.0) == 0.0
    assert g_profile(15.0) == pytest.approx(0.5, abs=1e-6)


def test_coordinate_roundtrip():
    s = RNG.uniform(0, 20, 10_000)
    t = RNG.uniform(0, 20, 10_000)
    y, z = st_to_yz(s, t)
    s2, t2 = (y + z) / SQRT2, (y - z) / SQRT2
    assert np.max(np.abs(s2 - s)) <= 2 * np.spacing(np.maximum(np.abs(s), 1))\
        .max()
    assert np.max(np.abs(t2 - t)) <= 2 * np.spacing(np.maximum(np.abs(t), 1))\
        .max()


def test_defect_reference_point():
    # the 60-digit oracle of the printed two-term form against an earlier,
    # independent 50-digit evaluation of the definition
    val = subsolution_defect(0.3, 3.0, 0.5, 3.0)
    assert val == pytest.approx(-0.2497967676318935697, rel=1e-14)


def test_defect_negative_in_claimed_range():
    assert subsolution_defect(0.45, 2.0, 1.0, 3.0) < 0.0


def test_rho_at_zero_and_slope():
    assert rho(0.0) == 0.0
    eps = 1e-6
    slope = (rho(eps) - rho(0.0)) / eps
    assert slope == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_rho_closed_form_matches_quadrature():
    # the closed form against adaptive Simpson quadrature of its outer
    # integrand on [0, 30] (measured: 2.2e-16 absolute)
    z = np.concatenate([[0.0, 1e-8], np.linspace(0.0, 30.0, 3001)[1:]])
    assert np.max(np.abs(rho(z) - rho_quadrature(z))) < 1e-13
    assert rho(2.5) == pytest.approx(rho_quadrature(2.5), abs=1e-13)
    with pytest.raises(ValueError):
        rho(-1e-3)


@pytest.mark.parametrize("which,forcing", [
    (rho, lambda z: np.asarray(heteroclinic(z, 1))),
    (rho1, lambda z: z * np.asarray(heteroclinic(z, 1))),
])
def test_rho_ode_residual(which, forcing):
    # -r'' + (3H^2 - 1) r = forcing; fourth-order five-point second
    # derivative so the stencil truncation stays below the 1e-6 budget
    z = np.linspace(0.005, 8.0, 1600)
    dz = z[1] - z[0]
    r = which(z)
    assert np.all(r >= 0.0)
    rpp = (-r[4:] + 16 * r[3:-1] - 30 * r[2:-2] + 16 * r[1:-3] - r[:-4]) \
        / (12 * dz**2)
    zi = z[2:-2]
    h = np.asarray(heteroclinic(zi))
    residual = -rpp + (3 * h**2 - 1) * r[2:-2] - forcing(zi)
    assert np.max(np.abs(residual)) < 1e-6
