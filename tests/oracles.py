"""Reference implementations the tests compare the program against.

Nothing here runs in `saddlecheck run` or `plot`.  Each function is a
second, independent route to a quantity the program computes another way
(the subsolution defect in 60-digit arithmetic, forward-mode jets of the
candidate profile and of its corrector Phi_0 against the program's symbolic
partials, the kernel rho by adaptive quadrature, a dense eigensolve, a
Rayleigh quotient, an expression DAG at points, its divided-difference
nodes in plain floats included, which the program only encloses over
intervals), a closed form the program or the discretization must
reproduce (L Phi_0 derived by hand, the sine-Gordon saddle, the indicial
roots), or a reader for what the program writes.  mpmath is a test-only
dependency and is imported only here.
"""

import csv
import math
import operator
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from saddlecheck.candidate import (CandidateParams, CoefficientSet, f_generic,
                                   phi0_generic)
from saddlecheck.grid import build_grid
from saddlecheck.rigor import Tape
from saddlecheck.scalars import SQRT2, heteroclinic, st_to_yz
from saddlecheck.solver import weighted_form


def evaluate(expr, env):
    """The value of one expression DAG over whatever value type env supplies
    (floats, ndarrays, IntervalArray), by a tape of that one root; a DAG
    with a dd node only over IntervalArray (evaluate_floats takes floats)."""
    return Tape([expr]).run(env)[0]


def variables(expr):
    """The names of the variables an expression DAG reads."""
    return {node.name for node in dag_nodes(expr) if node.kind == "var"}


def dag_nodes(expr):
    """Every node of the DAG once, each after its children."""
    seen, order, stack = set(), [], [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if node.children and not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        seen.add(id(node))
        order.append(node)
    return order


_FLOAT_BINARY = {"add": operator.add, "sub": operator.sub,
                 "mul": operator.mul, "div": operator.truediv}


def evaluate_floats(expr, env):
    """The value of one expression DAG at points: env maps each variable to
    a float or an ndarray.  Written apart from rigor.Tape: each node object
    is evaluated once, and a dd, dd_z or dd_u node by
    divided_difference_float."""
    values = {}
    for node in dag_nodes(expr):
        args = [values[id(c)] for c in node.children]
        kind = node.kind
        if kind == "const":
            out = node.value
        elif kind == "var":
            out = env[node.name]
        elif kind in _FLOAT_BINARY:
            out = _FLOAT_BINARY[kind](*args)
        elif kind == "pow":
            out = args[0] ** node.value
        elif kind in ("exp", "tanh", "sqrt"):
            out = getattr(np, kind)(args[0])
        else:
            out = divided_difference_float(*args, kind)
        values[id(node)] = out
    return values[id(expr)]


def subsolution_defect(a, y, z, d):
    """Defect -Delta(eta) - eta + eta^3 of eta = H(a y)H(a z), drift
    coefficient d = m - 1, in the scaled variables (y, z) <- (a y, a z), by
    the printed two-term form

      Hy Hz (2a^2 - 1 - a^2 Hy^2 - a^2 Hz^2 + Hy^2 Hz^2)
        - d sqrt2 a^2 (y Hz - z Hy + Hy Hz (z Hz - y Hy)) / (y^2 - z^2)

    in 60-digit arithmetic, point by point (arrays broadcast)."""
    def point(a, y, z, d):
        with mpmath.workdps(60):
            a, y, z, d = (mpmath.mpf(float(v)) for v in (a, y, z, d))
            hy, hz = mpmath.tanh(y / mpmath.sqrt(2)), mpmath.tanh(z / mpmath.sqrt(2))
            a2 = a * a
            potential = hy * hz * (2 * a2 - 1 - a2 * hy**2 - a2 * hz**2
                                   + hy**2 * hz**2)
            bracket = y * hz - z * hy + hy * hz * (z * hz - y * hy)
            return float(potential
                         - d * mpmath.sqrt(2) * a2 / (y * y - z * z) * bracket)

    out = np.vectorize(point, otypes=[float])(a, y, z, d)
    return out if out.ndim else float(out)


def _sinhc(t):
    """sinh(sqrt t) / sqrt t, real on both sides of t = 0 (so that numerical
    differentiation may step across it)."""
    if t > 0:
        return mpmath.sinh(mpmath.sqrt(t)) / mpmath.sqrt(t)
    if t < 0:
        return mpmath.sin(mpmath.sqrt(-t)) / mpmath.sqrt(-t)
    return mpmath.mpf(1)


def psi(t, k=0):
    """The k-th derivative of psi(t) = sqrt(t) / sinh(sqrt(t)) at one point,
    by mpmath's numerical differentiation in 60-digit arithmetic."""
    with mpmath.workdps(60):
        return mpmath.diff(lambda x: 1 / _sinhc(x), mpmath.mpf(t), k)


def divided_difference(z, u):
    """(DD, dDD/dz, dDD/du) at one point in 60-digit arithmetic, where
    DD = (G(y^2) - G(z^2)) / (y^2 - z^2), y = z + u, G(w) = sqrt2 psi(2w),
    from the quotient and its partials

      dDD/du = 2y (G'(y^2) - DD) / h,
      dDD/dz = (2y G'(y^2) - 2z G'(z^2) - (2y - 2z) DD) / h,  h = y^2 - z^2,

    and at u = 0 from their limits G'(z^2), 2z G''(z^2) and z G''(z^2)."""
    with mpmath.workdps(60):
        z, u = mpmath.mpf(float(z)), mpmath.mpf(float(u))
        r2 = mpmath.sqrt(2)
        y = z + u

        def g(w, k=0):
            return r2 * 2**k * psi(2 * w, k)

        if u == 0:
            return tuple(float(v) for v in
                         (g(z * z, 1), 2 * z * g(z * z, 2), z * g(z * z, 2)))
        h = y * y - z * z
        dd = (g(y * y) - g(z * z)) / h
        d_u = 2 * y * (g(y * y, 1) - dd) / h
        d_z = (2 * y * g(y * y, 1) - 2 * z * g(z * z, 1)
               - (2 * y - 2 * z) * dd) / h
        return float(dd), float(d_z), float(d_u)


# The float route of psi = sqrt(t) / sinh(sqrt(t)): below _PSI_SWITCH from
# S(t) = sinh(s)/s = sum t^k / (2k+1)! and its t-derivatives, whose terms
# past the 14th sum to below 2e-20 relative there; above it from closed forms
# in E = e^-s, s = sqrt(t), where the series form of psi'' cancels
_PSI_SWITCH = 4.0
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(14)]
_SINHC_SERIES = (_SINHC, [k * c for k, c in enumerate(_SINHC)][1:],
                 [k * (k - 1) * c for k, c in enumerate(_SINHC)][2:])


def _psi_floats(t):
    """[psi, psi', psi''] at the points t >= 0 (a float array), in plain
    floats."""
    t = np.asarray(t, dtype=float)
    out = [np.empty(t.shape) for _ in range(3)]
    small = t < _PSI_SWITCH
    ts = t[small]
    s0, s1, s2 = (np.polynomial.polynomial.polyval(ts, c)
                  for c in _SINHC_SERIES)
    for k, v in enumerate((1.0 / s0, -s1 / (s0 * s0),
                           (2.0 * s1 * s1 - s0 * s2) / (s0 * s0 * s0))):
        out[k][small] = v
    s = np.sqrt(t[~small])
    e = np.exp(-s)
    e2 = e * e
    om = 1.0 - e2
    bracket = (s * (s - 1.0) - 1.0 + e2 * (6.0 * s * s + 2.0)
               + e2 * e2 * (s * (s + 1.0) - 1.0))
    for k, v in enumerate((2.0 * s * e / om,
                           -e * ((s - 1.0) + e2 * (s + 1.0)) / (s * om * om),
                           e * bracket / (2.0 * s**3 * om**3))):
        out[k][~small] = v
    return out


# Gauss-Legendre nodes and weights on [0, 1]; eight nodes integrate G' and
# G'' over [z^2, z^2 + h] to below 1e-20 relative while h <= 1 + 2z^2/pi^2:
# their nearest singularity, w = -pi^2/2, then lies at least 1 + pi^2
# half-lengths from the interval's centre, as for h = 1 at z = 0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def divided_difference_float(z, u, kind):
    """DD(z, u) (kind "dd") or its partial in z ("dd_z") or u ("dd_u") at
    points z, u >= 0, in plain floats: by Gauss-Legendre quadrature of the
    integral forms

      DD = int_0^1 G'(z^2 + tau h) dtau,
      dDD/dz = int_0^1 G''(z^2 + tau h) (2z + 2 tau u) dtau,
      dDD/du = int_0^1 G''(z^2 + tau h) 2 tau y dtau

    where h = y^2 - z^2 <= 1 + 2z^2/pi^2, y = z + u, else from the quotient
    DD and its partials 2y (G'(y^2) - DD) / h in u and
    [2y (G'(y^2) - DD) + 2z (DD - G'(z^2))] / h in z, sums of terms of one
    sign.  G(w) = sqrt2 psi(2w).  The quotient cancels where h is small
    against z^2 (dd_u by 2e-13 relative at (z, u) = (11.28, 0.083), where
    h = 1.87), which the bound on h keeps it from."""
    z, u = np.broadcast_arrays(np.asarray(z, dtype=float),
                               np.asarray(u, dtype=float))
    shape = z.shape
    z, u = z.ravel(), u.ravel()
    y = z + u
    h = u * (2.0 * z + u)
    out = np.empty(len(z))
    order = 1 if kind == "dd" else 2
    near = h <= 1.0 + 2.0 * z * z / np.pi**2
    if near.any():
        zn, un, yn = z[near, None], u[near, None], y[near, None]
        w = zn * zn + _GL_NODES * h[near, None]
        g = _psi_floats(2.0 * w.ravel())[order].reshape(w.shape)
        if kind == "dd":
            out[near] = 2.0 * SQRT2 * (g @ _GL_WEIGHTS)
        else:
            weight = (2.0 * zn + 2.0 * un * _GL_NODES if kind == "dd_z"
                      else 2.0 * yn * _GL_NODES)
            out[near] = 4.0 * SQRT2 * ((g * weight) @ _GL_WEIGHTS)
    far = ~near
    if far.any():
        zf, yf, hf = z[far], y[far], h[far]
        m = len(zf)
        p0, p1, _ = _psi_floats(2.0 * np.concatenate([zf * zf, yf * yf]))
        dd = SQRT2 * (p0[m:] - p0[:m]) / hf
        g1_z, g1_y = 2.0 * SQRT2 * p1[:m], 2.0 * SQRT2 * p1[m:]
        if kind == "dd":
            out[far] = dd
        else:
            upper = 2.0 * yf * (g1_y - dd)
            out[far] = (upper if kind == "dd_u"
                        else upper + 2.0 * zf * (dd - g1_z)) / hf
    return out.reshape(shape)[()]


@dataclass(frozen=True)
class Jet2:
    """Forward-mode second-order jet in two variables (s, t): a value and
    its first and second partials.  numpy's object ufuncs call the
    tanh/exp/sqrt methods, so np.tanh(jet) is a jet."""
    v: np.ndarray
    ds: np.ndarray
    dt: np.ndarray
    dss: np.ndarray
    dst: np.ndarray
    dtt: np.ndarray

    @staticmethod
    def variable_s(s, t):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return Jet2(s, np.ones_like(s), z, z, z, z)

    @staticmethod
    def variable_t(s, t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return Jet2(t, z, np.ones_like(t), z, z, z)

    @staticmethod
    def constant(c, like):
        z = np.zeros_like(like.v)
        return Jet2(np.full_like(like.v, c), z, z, z, z, z)

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self)

    def _unary(self, g, g1, g2):
        """Compose an elementwise map with value g, derivative g1, second
        derivative g2 (all evaluated at self.v) onto this jet."""
        return Jet2(g, g1 * self.ds, g1 * self.dt,
                    g2 * self.ds**2 + g1 * self.dss,
                    g2 * self.ds * self.dt + g1 * self.dst,
                    g2 * self.dt**2 + g1 * self.dtt)

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.v + o.v, self.ds + o.ds, self.dt + o.dt,
                    self.dss + o.dss, self.dst + o.dst, self.dtt + o.dtt)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.ds, -self.dt, -self.dss, -self.dst, -self.dtt)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return Jet2(
            self.v * o.v,
            self.ds * o.v + self.v * o.ds,
            self.dt * o.v + self.v * o.dt,
            self.dss * o.v + 2.0 * self.ds * o.ds + self.v * o.dss,
            self.dst * o.v + self.ds * o.dt + self.dt * o.ds + self.v * o.dst,
            self.dtt * o.v + 2.0 * self.dt * o.dt + self.v * o.dtt,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o._unary(1.0 / o.v, -1.0 / o.v**2, 2.0 / o.v**3)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, p):
        p = float(p)
        return self._unary(self.v**p, p * self.v**(p - 1.0),
                           p * (p - 1.0) * self.v**(p - 2.0))

    def tanh(self):
        v = np.tanh(self.v)
        sech2 = 1.0 - v**2
        return self._unary(v, sech2, -2.0 * v * sech2)

    def exp(self):
        v = np.exp(self.v)
        return self._unary(v, v, v)

    def sqrt(self):
        v = np.sqrt(self.v)
        return self._unary(v, 0.5 / v, -0.25 / v**3)


def f_partials(s, t, cand: CandidateParams, profile=f_generic):
    """(f, f_s, f_t, f_ss, f_st, f_tt) at (s, t) by forward-mode jets
    through candidate.f_generic, or through the profile given (say
    candidate.phi0_generic)."""
    j = profile(Jet2.variable_s(s, t), Jet2.variable_t(s, t), cand)
    return (j.v, j.ds, j.dt, j.dss, j.dst, j.dtt)


def jet_coefficients(s, t, cand: CandidateParams) -> CoefficientSet:
    """Every CoefficientSet field at (s, t) from jet partials: f, h and the
    five C coefficients from those of f and of h(s,t) = -f(t,s),
    C_s = Delta_m f + ((m-1)/s^2) f, C_t its mirror in h, C_ss = 2 f_s,
    C_st = 2 f_t + 2 h_s, C_tt = 2 h_t; Phi_0 and Delta_m Phi_0 from those
    of phi0_generic."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    d = cand.m - 1
    f, fs, ft, fss, _, ftt = f_partials(s, t, cand)
    g, gs, gt, gss, _, gtt = f_partials(t, s, cand)    # f(t, s), slot order
    h, h_s, h_t, h_ss, h_tt = -g, -gt, -gs, -gtt, -gss
    p, ps, pt, pss, _, ptt = f_partials(s, t, cand, phi0_generic)
    return CoefficientSet(
        f=f, h=h,
        c_s=fss + ftt + d / s * fs + d / t * ft + d / s**2 * f,
        c_t=h_ss + h_tt + d / s * h_s + d / t * h_t + d / t**2 * h,
        c_ss=2.0 * fs,
        c_st=2.0 * ft + 2.0 * h_s,
        c_tt=2.0 * h_t,
        phi0=p,
        lap_phi0=pss + ptt + d / s * ps + d / t * pt)


def l_phi0_summand(s, t, u_value, cand: CandidateParams):
    """L = Delta_m + (1 - 3u^2) applied to the single summand
    psi = c s^(-p) e^(-t/3) of Phi_0, by hand.

    Closed form: the radial part contributes c (p^2 + p - (m-1)p) s^(-p-2)
    e^(-t/3) (identically zero when p = m-1, i.e. n = 10, 12); the rest is
    psi (1/9 + 1 - (m-1)/(3t) - 3u^2).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    c, p, d = cand.phi0_coeff, cand.phi0_exponent, cand.m - 1
    psi = c * s ** (-p) * np.exp(-t / 3.0)
    lead = c * (p * p + p - d * p) * s ** (-p - 2.0) * np.exp(-t / 3.0)
    return lead + psi * (1.0 / 9.0 + 1.0 - d / (3.0 * t)
                         - 3.0 * np.asarray(u_value) ** 2)


def l_phi0(s, t, u_value, cand: CandidateParams):
    """L Phi_0 in closed form, both symmetric summands (u is symmetric up to
    sign, and only u^2 enters)."""
    return (l_phi0_summand(s, t, u_value, cand)
            + l_phi0_summand(t, s, u_value, cand))


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
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
    """H'(z) * int_0^z integrand, by one cumulative adaptive-Simpson sweep
    over the distinct arguments (grids repeat values)."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0.0):
        raise ValueError("defined for z >= 0 only")
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


def _rho_integrand(sigma):
    """Outer integrand of rho: (int_sigma^inf H'^2) / H'(sigma)^2 in the
    cancellation-free form sqrt(2)(2+T)/(3(1+T)^2), T = tanh(sigma/sqrt(2))."""
    t = np.tanh(np.asarray(sigma, dtype=float) / SQRT2)
    return SQRT2 * (2.0 + t) / (3.0 * (1.0 + t) ** 2)


def rho_quadrature(z):
    """scalars.rho by adaptive quadrature of its outer integrand."""
    return _rho_generic(z, _rho_integrand)


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


def rho1(z):
    """Weighted variant of scalars.rho with inner integrand tau*H'(tau)^2.

    Satisfies -rho1'' + (3H^2 - 1) rho1 = z H'(z).
    """
    return _rho_generic(z, _rho1_integrand)


def indicial_roots(n: int) -> tuple[float, float]:
    """Roots of a^2 + (n-3)a + (n-2) = 0 (real for n >= 8)."""
    b, c = n - 3, n - 2
    r = math.sqrt(b * b - 4 * c)
    return ((-b - r) / 2.0, (-b + r) / 2.0)


def even_sector_values(grid, field: np.ndarray) -> np.ndarray:
    """A full-grid field at the dofs of spectral.assemble (the triangle
    nodes with s < R), in their order."""
    i, j = np.nonzero(grid.mask_triangle[:grid.N])
    return field[i, j]


def rayleigh_quotient(asm, v: np.ndarray) -> float:
    """v.Kv / v.Bv of the assembled pencil: an upper bound of lambda_min."""
    return float(v @ (asm.stiffness @ v)) / float(v @ (asm.mass @ v))


def dense_eigenvalues(asm, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the pencil by LAPACK on the dense
    matrices; only sensible on coarse grids."""
    return scipy.linalg.eigh(asm.stiffness.toarray(), asm.mass.toarray(),
                             eigvals_only=True, subset_by_index=[0, k - 1])


def dense_min_eigenvalue(asm) -> float:
    """Smallest eigenvalue of the pencil by LAPACK on the dense matrices."""
    return float(dense_eigenvalues(asm, 1)[0])


def residual_yz_form(sol, guard: float | None = None):
    """Residual of the solved field in the rotated frame

        -u_yy - u_zz - (2(m-1)/(y^2-z^2)) (y u_y - z u_z) - u + u^3,

    with diagonal stencils for u_yy, u_zz.  y^2 - z^2 = 2 s t vanishes on
    the axes, so nodes with min(s, t) below the guard (default h) are masked
    out.  Returns (field, mask).
    """
    grid, h = sol.grid, sol.grid.h
    if guard is None:
        guard = h
    U = sol.u
    P = np.pad(U, 1, mode="reflect")
    u_yy = np.zeros_like(U)
    u_zz = np.zeros_like(U)
    u_yy[:-1, :-1] = (P[2:-1, 2:-1] - 2.0 * P[1:-2, 1:-2] + P[:-3, :-3]) / (2.0 * h**2)
    u_zz[:-1, :-1] = (P[2:-1, :-3] - 2.0 * P[1:-2, 1:-2] + P[:-3, 2:-1]) / (2.0 * h**2)

    S, T = grid.meshgrid()
    y, z = st_to_yz(S, T)
    mask = (np.minimum(S, T) >= guard - 1e-12) & (S < grid.R - h / 2) & (T < grid.R - h / 2)
    denom = np.where(mask, y**2 - z**2, 1.0)
    uyd = np.where(mask, sol.u_y, 0.0)
    uzd = np.where(mask, sol.u_z, 0.0)
    res = (-u_yy - u_zz
           - 2.0 * (sol.m - 1) / denom * (y * uyd - z * uzd)
           - U + U**3)
    return np.where(mask, res, 0.0), mask


def weighted_residual(U: np.ndarray, m: int, grid, nonlinearity) -> np.ndarray:
    """(K u)/V - g(u) of solver.weighted_form at the unknown nodes of grid,
    for the full-quadrant field U (fixed nodes taken from U as given)."""
    K, V = weighted_form(m, grid)
    ii, jj = grid.ii, grid.jj
    KU = (K @ U.ravel()).reshape(U.shape)
    return KU[ii, jj] / V[ii, jj] - nonlinearity(U[ii, jj])


def sine_gordon_saddle(s, t):
    """Exact planar saddle of -Delta u = sin(u):
    4*arctan(cosh(s/sqrt 2)/cosh(t/sqrt 2)) - pi; vanishes on s = t."""
    return 4.0 * np.arctan(np.cosh(np.asarray(s) / SQRT2)
                           / np.cosh(np.asarray(t) / SQRT2)) - math.pi


def validate_exact(grid) -> dict:
    """Discrete residual of the exact sine-Gordon saddle under the m = 1
    weighted operator at spacing h and h/2, plus the observed convergence
    rate (should be close to 2)."""
    def max_residual(g) -> float:
        S, T = g.meshgrid()
        return float(np.abs(weighted_residual(sine_gordon_saddle(S, T), 1, g,
                                              np.sin)).max())

    res_h = max_residual(grid)
    res_h2 = max_residual(build_grid(grid.R, grid.h / 2.0))
    return {"h": grid.h, "residual_h": res_h, "residual_h_half": res_h2,
            "rate": math.log2(res_h / res_h2)}


def import_csv(path) -> tuple[np.ndarray, dict]:
    """Read a reporting.export_csv dump back; raises ValueError when the
    shape does not match its header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        meta = {"name": head[1], "rows": int(head[3]), "cols": int(head[5]),
                "h": float(head[7])}
        field = np.array([[float(v) for v in row] for row in reader])
    if field.shape != (meta["rows"], meta["cols"]):
        raise ValueError(f"{path}: shape {field.shape} does not match header")
    return field, meta
