"""Closed-form scalar objects: heteroclinic profile, double well, comparison
functions, the auxiliary ODE solution rho, and the rotation st_to_yz, which
maps the open wedge {s > t > 0} to {y > 0, 0 < z < y}.

Everything here is a pure function of its arguments in closed form,
accurate to rounding.  All functions accept floats or numpy arrays and
return numpy values.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def st_to_yz(s, t):
    """Rotate (s, t) to (y, z) with y = (s+t)/sqrt(2), z = (s-t)/sqrt(2)."""
    return (s + t) / SQRT2, (s - t) / SQRT2


def heteroclinic(x, order: int = 0):
    """One-dimensional heteroclinic profile H(x) = tanh(x/sqrt(2)).

    order 0 returns H, order 1 returns H' = (1 - H^2)/sqrt(2).
    """
    h = np.tanh(np.asarray(x, dtype=float) / SQRT2)
    if order == 0:
        return h
    if order == 1:
        return (1.0 - h * h) / SQRT2
    raise ValueError(f"order must be 0 or 1, got {order}")


def double_well(u):
    """Double-well potential F(u) = (1 - u^2)^2 / 4."""
    u = np.asarray(u, dtype=float)
    return (1.0 - u * u) ** 2 / 4.0


def hh_supersolution(y, z):
    """Product profile H(y)H(z); a supersolution of the saddle solution."""
    return heteroclinic(y) * heteroclinic(z)


def g_profile(z):
    """g(z) = (H(z) + z H'(z)) / 2; vanishes at 0 and tends to 1/2."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (heteroclinic(z) + z * heteroclinic(z, 1))


def rho(z):
    """rho(z) = H'(z) * int_0^z (H'^-2 int_sigma^inf H'^2) dsigma, z >= 0.

    With w = e^(-sqrt2 sigma) the outer integrand is
    sqrt2 (2+T)/(3(1+T)^2) = sqrt2 (3/4 + w + w^2/4)/3, T = tanh(sigma/sqrt2),
    so the integral is sqrt2 z/4 - expm1(-sqrt2 z)/3 - expm1(-2 sqrt2 z)/24.
    Satisfies rho'' - (3H^2 - 1) rho = -H'.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("defined for z >= 0 only")
    return heteroclinic(z, 1) * (
        SQRT2 * z / 4.0 - np.expm1(-SQRT2 * z) / 3.0
        - np.expm1(-2.0 * SQRT2 * z) / 24.0)
