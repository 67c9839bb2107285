"""Forward-mode second-order jets in two variables.

A Jet2 carries a value and its first and second partials with respect to two
independent variables (s, t).  Formulas written against the helper functions
here (tanh/exp/sqrt/power) evaluate on plain numpy arrays, on jets, and on
rigor.ExprNode DAGs (numpy's object ufuncs call the nodes' own methods).  So
one formula yields both forward-mode partials and a DAG for symbolic
differentiation, two independent derivative routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Jet2:
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
        return self * _unary(o, 1.0 / o.v, -1.0 / o.v**2, 2.0 / o.v**3)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, p):
        p = float(p)
        return _unary(self, self.v**p, p * self.v**(p - 1.0),
                      p * (p - 1.0) * self.v**(p - 2.0))


def _unary(f: Jet2, g, g1, g2) -> Jet2:
    """Compose an elementwise map with value g, derivative g1, second
    derivative g2 (all evaluated at f.v) onto the jet f."""
    return Jet2(
        g,
        g1 * f.ds,
        g1 * f.dt,
        g2 * f.ds**2 + g1 * f.dss,
        g2 * f.ds * f.dt + g1 * f.dst,
        g2 * f.dt**2 + g1 * f.dtt,
    )


def tanh(x):
    if isinstance(x, Jet2):
        v = np.tanh(x.v)
        sech2 = 1.0 - v**2
        return _unary(x, v, sech2, -2.0 * v * sech2)
    return np.tanh(x)


def exp(x):
    if isinstance(x, Jet2):
        v = np.exp(x.v)
        return _unary(x, v, v, v)
    return np.exp(x)


def sqrt(x):
    if isinstance(x, Jet2):
        v = np.sqrt(x.v)
        return _unary(x, v, 0.5 / v, -0.25 / v**3)
    return np.sqrt(x)
