"""Closed-form scalar objects: heteroclinic profile, double well, comparison
functions, and the auxiliary ODE solution rho.

Everything here is a pure function of its arguments, accurate to rounding
except for rho, where the outer quadrature tolerance (1e-10) dominates.
All functions accept floats or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from saddlecheck.params import SQRT2

_SIMPSON_TOL = 1e-10


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


def _rho_integrand(sigma):
    """Outer integrand of rho: (int_sigma^inf H'^2) / H'(sigma)^2 in the
    cancellation-free form sqrt(2)(2+T)/(3(1+T)^2), T = tanh(sigma/sqrt(2))."""
    t = np.tanh(np.asarray(sigma, dtype=float) / SQRT2)
    return SQRT2 * (2.0 + t) / (3.0 * (1.0 + t) ** 2)


def _adaptive_simpson(f, a: float, b: float, tol: float = _SIMPSON_TOL) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to absolute tolerance tol."""

    def _recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1l = 0.5 * (x0 + 0.5 * (x0 + x2))
        x1r = 0.5 * (0.5 * (x0 + x2) + x2)
        fl = float(f(x1l))
        fr = float(f(x1r))
        hq = (x2 - x0) / 12.0
        left = hq * (f0 + 4.0 * fl + f1)
        right = hq * (f1 + 4.0 * fr + f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return _recurse(x0, 0.5 * (x0 + x2), f0, fl, f1, left, eps / 2.0, depth - 1) + _recurse(
            0.5 * (x0 + x2), x2, f1, fr, f2, right, eps / 2.0, depth - 1
        )

    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    f0, f1, f2 = float(f(a)), float(f(m)), float(f(b))
    whole = (b - a) / 6.0 * (f0 + 4.0 * f1 + f2)
    return _recurse(a, b, f0, f1, f2, whole, tol, 48)


def _rho_generic(z, integrand):
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0.0):
        raise ValueError("defined for z >= 0 only")
    # one cumulative sweep over the distinct arguments (grids repeat values)
    uniq, inverse = np.unique(z_arr.ravel(), return_inverse=True)
    integrals = np.empty_like(uniq)
    acc = 0.0
    prev = 0.0
    for k, zk in enumerate(uniq):
        if zk > prev:
            acc += _adaptive_simpson(integrand, prev, float(zk))
            prev = float(zk)
        integrals[k] = acc
    out = integrals[inverse].reshape(z_arr.shape)
    out = out * np.asarray(heteroclinic(z_arr, 1))
    return out.reshape(np.asarray(z).shape) if np.asarray(z).ndim else float(out[0])


def rho(z):
    """rho(z) = H'(z) * int_0^z (H'^-2 int_sigma^inf H'^2) dsigma.

    Satisfies rho'' - (3H^2 - 1) rho = -H'.
    """
    return _rho_generic(z, _rho_integrand)

