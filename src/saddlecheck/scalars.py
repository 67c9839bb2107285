"""Closed-form scalar objects: heteroclinic profile, double well, comparison
functions, and the auxiliary ODE solutions rho and rho1.

Everything here is a pure function of its arguments, accurate to rounding
except for rho/rho1 where the outer quadrature tolerance (1e-10) dominates.
All functions accept floats or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from saddlecheck.params import DimensionParams, SQRT2

#: callers of subsolution_defect must stay this far off the diagonal yt = zt
DIAGONAL_GUARD = 1e-6

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


def subsolution_defect_terms(a, yt, zt, params: DimensionParams):
    """Potential and drift terms of -Delta(eta) - eta + eta^3 for
    eta = H(a y)H(a z), written in the scaled variables yt = a*y, zt = a*z.

    The drift coefficient generalizes the planar-factor value 3 to m - 1.
    Requires yt > zt + DIAGONAL_GUARD: the drift term has a removable 0/0 on
    the diagonal that callers never need.
    """
    a = np.asarray(a, dtype=float)
    yt = np.asarray(yt, dtype=float)
    zt = np.asarray(zt, dtype=float)
    if np.any(yt <= zt + DIAGONAL_GUARD):
        raise ValueError(
            f"subsolution defect requires yt > zt + {DIAGONAL_GUARD}; "
            "the diagonal is a removable singularity"
        )
    if np.any(zt < 0.0):
        raise ValueError("subsolution defect requires zt >= 0")
    hy = np.asarray(heteroclinic(yt))
    hz = np.asarray(heteroclinic(zt))
    a2 = a * a
    potential = hy * hz * (2.0 * a2 - 1.0 - a2 * hy**2 - a2 * hz**2 + hy**2 * hz**2)
    bracket = yt * hz - zt * hy + hy * hz * (zt * hz - yt * hy)
    drift = -(params.drift * SQRT2 * a2 / (yt * yt - zt * zt)) * bracket
    return potential, drift


def subsolution_defect(a, yt, zt, params: DimensionParams):
    """Defect of the comparison function H(a y)H(a z); negative for a in
    (0, 0.45), which makes the product a subsolution."""
    potential, drift = subsolution_defect_terms(a, yt, zt, params)
    out = potential + drift
    return out if out.ndim else float(out)


def _rho_integrand(sigma):
    """Outer integrand of rho: (int_sigma^inf H'^2) / H'(sigma)^2 in the
    cancellation-free form sqrt(2)(2+T)/(3(1+T)^2), T = tanh(sigma/sqrt(2))."""
    t = np.tanh(np.asarray(sigma, dtype=float) / SQRT2)
    return SQRT2 * (2.0 + t) / (3.0 * (1.0 + t) ** 2)


def _rho1_integrand(sigma):
    """Outer integrand of rho1: (int_sigma^inf tau H'^2 dtau) / H'(sigma)^2.

    The inner tail integral has the closed form
    w(1-T)^2(2+T)/3 + (2/3) log1p(e^{-2w}) - (1-T^2)/6 with w = sigma/sqrt(2);
    the rearrangement avoids the w - log cosh(w) cancellation at large w.
    """
    sigma = np.asarray(sigma, dtype=float)
    w = sigma / SQRT2
    t = np.tanh(w)
    one_minus_t = 2.0 * np.exp(-2.0 * w) / (1.0 + np.exp(-2.0 * w))
    one_minus_t2 = one_minus_t * (1.0 + t)
    inner = (
        w * one_minus_t**2 * (2.0 + t) / 3.0
        + (2.0 / 3.0) * np.log1p(np.exp(-2.0 * w))
        - one_minus_t2 / 6.0
    )
    hprime2 = one_minus_t2**2 / 2.0
    return inner / hprime2


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
        raise ValueError("rho/rho1 defined for z >= 0")
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


def rho1(z):
    """Weighted variant with inner integrand tau*H'(tau)^2.

    Satisfies -rho1'' + (3H^2 - 1) rho1 = z H'(z).
    """
    return _rho_generic(z, _rho1_integrand)
