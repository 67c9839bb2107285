"""Closed-form scalar objects: heteroclinic profile, double well, comparison
functions, and the auxiliary ODE solution rho.

Everything here is a pure function of its arguments in closed form,
accurate to rounding.  All functions accept floats or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from saddlecheck.params import SQRT2


def heteroclinic(x, order: int = 0):
    """One-dimensional heteroclinic profile H(x) = tanh(x/sqrt(2)).

    order 0 returns H, order 1 returns H' = (1 - H^2)/sqrt(2), order 2
    returns H'' = H^3 - H.
    """
    h = np.tanh(np.asarray(x, dtype=float) / SQRT2)
    if order == 0:
        out = h
    elif order == 1:
        out = (1.0 - h * h) / SQRT2
    elif order == 2:
        out = h * h * h - h
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    return out if out.ndim else float(out)


def double_well(u):
    """Double-well potential F(u) = (1 - u^2)^2 / 4."""
    u = np.asarray(u, dtype=float)
    out = (1.0 - u * u) ** 2 / 4.0
    return out if out.ndim else float(out)


def hh_supersolution(y, z):
    """Product profile H(y)H(z); a supersolution of the saddle solution."""
    out = np.asarray(heteroclinic(y)) * np.asarray(heteroclinic(z))
    return out if out.ndim else float(out)


def g_profile(z):
    """g(z) = (H(z) + z H'(z)) / 2; vanishes at 0 and tends to 1/2."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * (heteroclinic(z) + z * np.asarray(heteroclinic(z, 1)))
    return out if out.ndim else float(out)


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
    out = np.asarray(heteroclinic(z, 1)) * (
        SQRT2 * z / 4.0 - np.expm1(-SQRT2 * z) / 3.0
        - np.expm1(-2.0 * SQRT2 * z) / 24.0)
    return out if out.ndim else float(out)
