"""Interval-arithmetic branch-and-bound prover for the closed-form sign
claims: the subsolution defect and the candidate coefficient fields.
claims(n) is the one table of what is proven for dimension n and on which
domain; the CLI, the acceptance gate and the libm audit all read it.

Intervals are vectorized (arrays of boxes evaluated at once) with outward
rounding by two ulps around every primitive operation: one integer step on
the float64 bit pattern, with nextafter for the lanes where that step would
cross zero or pass +-inf, and for NaN.  Two ulps cover the correctly rounded
+ - * / sqrt and the libm exp, tanh and pow, whose measured error stays
below it (tests/test_libm_audit.py).  Partial operations
(division through zero, roots/powers of nonpositive bases) mark a box "bad"
instead of failing; bad boxes are simply split further.  A claim is proven
when every leaf box has an enclosure with hi < 0; a NaN bound decides
nothing.

One node kind stands for a special function: dd(z, u), the divided
difference of G(w) = 2 sqrt(w) / sinh(sqrt(2w)) over [z^2, (z + u)^2], which
the defect claim needs, with its partials dd_z and dd_u.  It is enclosed
over intervals only (a Tape refuses it over floats): from G' and G'' at the
two ends of the box's w-range, which bound them because
sqrt(t)/sinh(sqrt(t)) is completely monotone, and those end values from the
same rounded operations, with exp and sqrt the only libm calls.

A proof merges the claim and its gradients into one DAG in which
structurally equal subtrees are one node, and runs it as a Tape: a
topological list of operations that drops each intermediate value after
its last reader, so a batch of boxes holds only the arrays still to be
read.  Constants are 0-d intervals that broadcast.  A product takes fewer
than the four endpoint products when it can: a finite point constant c
needs c*lo and c*hi, and two operands of one sign each (x * x included)
need only the two corner products that are extreme in exact arithmetic.
Rounding to nearest is monotone, so those corners are also the extremes of
the four rounded products, equal in value and at most different in the sign
of a zero, which the two-ulp step maps to the same bound.  A fast path whose
result is not finite everywhere is redone by the four-product path, whose
clamp of inf and NaN it would otherwise skip.
Every enclosure is therefore bit for bit the one of the plain four-product
evaluation of the unmerged DAG (tests/test_rigor.py).

Every interval the prover builds has lo <= hi in every lane, and most of its
endpoint arrays are of one sign and far from zero and from +-inf.  _wrap
reads the min and max of each endpoint array once (a product hands over the
ones it read to test its result for finiteness).  An array whose extremes
lie inside (1e-300, 1e300) or (-1e300, -1e-300) holds only normal numbers
of one sign, for which the integer step +-2 on the bit pattern is exactly
two ulps and lands on no NaN pattern; it is rounded by that one step, in
place, and every other array by the lane-by-lane kernel.  The same
extremes give the interval's sign when no lane is bad, and _wrap records
it: a later product takes it in place of reading the arrays again, and a
divisor of one strict sign has the reciprocal [1/hi, 1/lo] lane by lane,
which is what the min and max of the two reciprocals give when lo <= hi.
The extremes thus decide which passes over memory run, never a bit of an
enclosure.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field

import numpy as np

_NEG = np.float64(-np.inf)
_POS = np.float64(np.inf)


def _two_ulps(x, direction):
    """x moved two ulps toward direction (-1: -inf, +1: +inf), lane by lane.

    Read as an int64 b, the bit pattern of a float orders positive floats
    upward and negative ones downward (sign-magnitude), so two ulps toward
    +inf is b + 2 for a positive x and b - 2 for a negative one.  The step
    2 + 4 (b >> 63), that is +2 or -2, is added for +inf and subtracted for
    -inf.  It is exact except where it lands on a NaN pattern: crossing
    zero (x = +-0, +-5e-324), stepping past +-inf (x = +-inf, +-max), and
    NaN inputs, whose payload the step may turn into a number.  Those lanes
    are redone with nextafter.
    """
    x = np.asarray(x, dtype=np.float64)
    b = x.view(np.int64)
    step = np.right_shift(b, 63, out=np.empty_like(b))  # 0 or -1
    step *= 4
    step += 2
    if direction < 0:
        np.subtract(b, step, out=step)
    else:
        np.add(b, step, out=step)
    out = step.view(np.float64)
    redo = np.isnan(out)
    redo |= np.isnan(x)
    if redo.any():
        toward = _NEG if direction < 0 else _POS
        with np.errstate(over="ignore"):
            out[redo] = np.nextafter(np.nextafter(x[redo], toward), toward)
    return out


def _down(x):
    return _two_ulps(x, -1)


def _up(x):
    return _two_ulps(x, +1)


# An array whose lanes all lie inside (1e-300, 1e300), or all inside
# (-1e300, -1e-300), holds only normal numbers of one sign, far from zero and
# from +-inf, so one integer step rounds every lane.
_FAST_MIN, _FAST_MAX = 1e-300, 1e300


def _extremes(x):
    """(min, max) of x, or None when x is empty."""
    return (x.min(), x.max()) if x.size else None


def _finite(ext):
    """True when an array with these extremes is finite in every lane (a NaN
    lane makes the min NaN, which fails both comparisons)."""
    return ext is None or (-np.inf < ext[0] and ext[1] < np.inf)


def _round(x, direction, ext):
    """x, an array the caller owns, moved two ulps toward direction, and +1
    or -1 when every lane was in the one-step range of that sign, else 0.
    ext are the extremes of x, read here when None."""
    ext = _extremes(x) if ext is None else ext
    if ext is not None:
        lb, ub = ext
        sign = 1 if _FAST_MIN < lb and ub < _FAST_MAX else \
            -1 if -_FAST_MAX < lb and ub < -_FAST_MIN else 0
        if sign:
            bits = x.view(np.int64)
            bits += 2 * sign * direction
            return x, sign
    return _two_ulps(x, direction), 0


# the sign of an interval whose lo and hi arrays each lie in the one-step
# range of the given signs
_SIGNS = {(1, 1): 1, (-1, -1): -1, (-1, 1): 0}


@dataclass(frozen=True)
class IntervalArray:
    """Axis-aligned enclosures [lo, hi] with a per-entry failure flag.

    Constants and fixed values are 0-d intervals that broadcast against the
    per-box arrays.  sign, recorded by _wrap when known, is what _sign()
    would read from the arrays, and more: no lane is bad, and every endpoint
    is finite and nonzero, of one sign (+1, -1) or with every lo < 0 < hi
    (0)."""
    lo: np.ndarray
    hi: np.ndarray
    bad: np.ndarray
    sign: int | None = None

    @staticmethod
    def from_bounds(lo, hi):
        """The intervals [lo, hi], lane by lane.  A lane with lo > hi is a
        ValueError: the two-product paths and the signed reciprocal would
        hand it back with its ends swapped.  NaN lanes pass."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise ValueError("an interval has lo > hi")
        return IntervalArray(lo, hi, np.zeros(lo.shape, dtype=bool))

    @staticmethod
    def point(x):
        x = np.asarray(x, dtype=float)
        return IntervalArray(x.copy(), x.copy(), np.zeros(x.shape, dtype=bool))

    def _wrap(self, lo, hi, bad=None, lo_ext=None, hi_ext=None):
        """The rounded-out interval of lo, hi (arrays the caller owns, rounded
        in place where one step does it) with bad lanes set to [-inf, inf].
        bad defaults to self's; lo_ext, hi_ext are the extremes of lo and hi
        when the caller has read them."""
        b = self.bad if bad is None else bad
        lo, s_lo = _round(np.asarray(lo), -1, lo_ext)
        hi, s_hi = _round(np.asarray(hi), +1, hi_ext)
        if b.any():
            lo = np.where(b, -np.inf, lo)
            hi = np.where(b, np.inf, hi)
            return IntervalArray(lo, hi, b)
        return IntervalArray(lo, hi, b, _SIGNS.get((s_lo, s_hi)))

    def __add__(self, o):
        o = _lift(o)
        return self._wrap(self.lo + o.lo, self.hi + o.hi, self.bad | o.bad)

    def __sub__(self, o):
        o = _lift(o)
        return self._wrap(self.lo - o.hi, self.hi - o.lo, self.bad | o.bad)

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo, self.bad,
                             None if self.sign is None else -self.sign)

    def _point_value(self):
        """The value of a finite 0-d point interval, else None."""
        if self.lo.ndim == 0 and self.lo == self.hi and not self.bad \
                and np.isfinite(self.lo):
            return self.lo
        return None

    def _sign(self):
        """+1 if every lane is >= 0, -1 if every lane is <= 0, else 0 (NaN
        and bad lanes make it 0).  The recorded sign when there is one."""
        if self.sign is not None:
            return self.sign
        if self.lo.size:
            if self.lo.min() >= 0.0:
                return 1
            if self.hi.max() <= 0.0:
                return -1
        return 0

    def __mul__(self, o):
        o = _lift(o)
        bad = self.bad | o.bad
        # fast paths take the products that can be extreme; each keeps its
        # result only where all of it is finite, and then all four products
        # are finite too, so the general path would not clamp
        c, x = self._point_value(), o
        if c is None:
            c, x = o._point_value(), self
        if c is not None:                               # finite point c
            lo, hi = (c * x.lo, c * x.hi) if c >= 0.0 else (c * x.hi, c * x.lo)
        elif (sx := self._sign()) and (so := o._sign()):
            # each operand of one sign (x * x included): the extremes are
            # fixed corners
            lo = ((self.lo if so > 0 else self.hi)
                  * (o.lo if sx > 0 else o.hi))
            hi = ((self.hi if so > 0 else self.lo)
                  * (o.hi if sx > 0 else o.lo))
        else:
            lo = None
        if lo is not None:
            lo_ext, hi_ext = _extremes(lo), _extremes(hi)
            if _finite(lo_ext) and _finite(hi_ext):
                return self._wrap(lo, hi, bad, lo_ext, hi_ext)
        ll, lh = self.lo * o.lo, self.lo * o.hi
        hl, hh = self.hi * o.lo, self.hi * o.hi
        lo = np.minimum(np.minimum(ll, lh), np.minimum(hl, hh))
        hi = np.maximum(np.maximum(ll, lh), np.maximum(hl, hh))
        # min/max propagate NaN and keep +-inf, so both are finite exactly
        # when all four products are; otherwise clamp as nan_to_num does
        # (0 * inf only comes from bad lanes, which _wrap overwrites)
        lo_ext, hi_ext = _extremes(lo), _extremes(hi)
        if not (_finite(lo_ext) and _finite(hi_ext)):
            cands = np.nan_to_num(np.stack([ll, lh, hl, hh]), nan=0.0)
            lo, hi = cands.min(axis=0), cands.max(axis=0)
            lo_ext = hi_ext = None
        return self._wrap(lo, hi, bad, lo_ext, hi_ext)

    def __truediv__(self, o):
        o = _lift(o)
        if o.sign:
            # no bad lane, every endpoint finite, nonzero and of one sign,
            # and lo <= hi, so the reciprocal is [1/hi, 1/lo] lane by lane
            return self * IntervalArray(1.0 / o.hi, 1.0 / o.lo, o.bad, o.sign)
        # the product flags self's bad lanes, so the reciprocal needs only o's
        bad = o.bad | ((o.lo <= 0.0) & (o.hi >= 0.0))
        # a lane through zero is bad whatever these give; a divisor below
        # 1/max overflows to inf, which the product clamps
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r_lo, r_hi = 1.0 / o.lo, 1.0 / o.hi
        lo, hi = np.minimum(r_lo, r_hi), np.maximum(r_lo, r_hi)
        if bad.any():
            lo = np.where(bad, -np.inf, lo)
            hi = np.where(bad, np.inf, hi)
        return self * IntervalArray(lo, hi, bad)

    def __pow__(self, p):
        p = float(p)
        bad = self.bad | (self.lo <= 0.0)
        with np.errstate(invalid="ignore"):
            a, b = self.lo**p, self.hi**p
        return self._wrap(np.minimum(a, b), np.maximum(a, b), bad)

    def exp(self):
        return self._wrap(np.exp(self.lo), np.exp(self.hi))

    def tanh(self):
        return self._wrap(np.tanh(self.lo), np.tanh(self.hi))

    def sqrt(self):
        bad = self.bad | (self.lo < 0.0)
        with np.errstate(invalid="ignore"):
            return self._wrap(np.sqrt(np.maximum(self.lo, 0.0)),
                              np.sqrt(np.maximum(self.hi, 0.0)), bad)


def _lift(x) -> IntervalArray:
    """x as an interval: a float becomes a 0-d point that broadcasts."""
    return x if isinstance(x, IntervalArray) else IntervalArray.point(float(x))


# ---------------------------------------------------------------------------
# the divided difference of G(w) = 2 sqrt(w) / sinh(sqrt(2w))
# ---------------------------------------------------------------------------
#
# By Euler's product psi(t) = sqrt(t) / sinh(sqrt(t)) = prod_k (1 +
# t/(k pi)^2)^-1, a product of completely monotone factors, so psi is
# completely monotone on t >= 0.  G(w) = sqrt2 psi(2w), hence
# G' = 2 sqrt2 psi'(2w) is negative and increasing and G'' = 4 sqrt2 psi''(2w)
# positive and decreasing, and each is enclosed over an interval of w by its
# values at the two ends.  Those values come from the rounded interval
# operations above, with no libm function but exp and sqrt: a positive
# series in t below _PSI_SWITCH, closed forms in E = e^-s, s = sqrt(t), above
# it (where the series form of psi'' cancels catastrophically).

_PSI_SWITCH = 4.0
_PSI_TERMS = 14     # series terms kept; the rest is a tail enclosed in [0, T]
_SQRT2 = IntervalArray.point(2.0).sqrt()


def _series_tables():
    """Enclosures of the coefficients of S(t) = sinh(s)/s = sum t^k/(2k+1)!,
    S' and S'' (lowest power first), and of their tails for t < _PSI_SWITCH.
    From the K-th term on, consecutive terms of each of the three series
    have ratio <= t/(2(K-1)(2K+3)) = rho, so a tail is at most its first
    term at t = _PSI_SWITCH over 1 - rho."""
    K, t = _PSI_TERMS, _PSI_SWITCH
    one = IntervalArray.point(1.0)
    r = [one]                                           # 1/(2k+1)!
    for k in range(1, K + 1):
        r.append(r[-1] / float(2 * k * (2 * k + 1)))
    coefs = ([r[k] for k in range(K)],
             [r[k] * float(k) for k in range(1, K)],
             [r[k] * float(k * (k - 1)) for k in range(2, K)])
    geometric = one / (one - IntervalArray.point(t)
                       / float(2 * (K - 1) * (2 * K + 3)))
    tails = [IntervalArray.from_bounds(
        0.0, (r[K] * float(factor * t ** power) * geometric).hi)
        for factor, power in ((1, K), (K, K - 1), (K * (K - 1), K - 2))]
    return coefs, tails


_SERIES, _TAILS = _series_tables()


def _psi_series(t):
    """[psi, psi', psi''] from S = sinh(s)/s and its t-derivatives, each by
    Horner's rule (positive terms only) plus its tail."""
    series = []
    for coefs, tail in zip(_SERIES, _TAILS):
        acc = coefs[-1]
        for c in reversed(coefs[:-1]):
            acc = acc * t + c
        series.append(acc + tail)
    s0, s1, s2 = series
    return [IntervalArray.point(1.0) / s0, -(s1 / (s0 * s0)),
            (s1 * s1 * 2.0 - s0 * s2) / (s0 * s0 * s0)]


def _psi_closed(t):
    """[psi, psi', psi''] for t >= _PSI_SWITCH (s >= 2) in E = e^-s:
      psi   = 2 s E / (1 - E^2),
      psi'  = -E [(s - 1) + E^2 (s + 1)] / (s (1 - E^2)^2),
      psi'' = E [s(s - 1) - 1 + E^2 (6s^2 + 2) + E^4 (s(s + 1) - 1)]
              / (2 s^3 (1 - E^2)^3),
    every bracketed term positive for s >= 2."""
    s = t.sqrt()
    e = (-s).exp()
    e2 = e * e
    om = IntervalArray.point(1.0) - e2
    bracket = ((s * (s - 1.0) - 1.0) + e2 * (s * s * 6.0 + 2.0)
               + e2 * e2 * (s * (s + 1.0) - 1.0))
    return [s * e * 2.0 / om,
            -(e * ((s - 1.0) + e2 * (s + 1.0)) / (s * om * om)),
            e * bracket / (s * s * s * om * om * om * 2.0)]


def _psi(t):
    """Enclosures [psi, psi', psi''] at the points t >= 0 (a float array)."""
    small = t < _PSI_SWITCH
    parts = [(m, form(IntervalArray.point(t[m])))
             for m, form in ((small, _psi_series), (~small, _psi_closed))
             if m.any()]
    out = []
    for j in range(3):
        lo, hi = np.empty(t.shape), np.empty(t.shape)
        bad = np.zeros(t.shape, dtype=bool)
        for m, vals in parts:
            lo[m], hi[m], bad[m] = vals[j].lo, vals[j].hi, vals[j].bad
        out.append(IntervalArray(lo, hi, bad))
    return out


def _dd_interval(z, u, kind, shared=None):
    """Enclosure of DD(z, u) = (G(y^2) - G(z^2)) / (y^2 - z^2), y = z + u
    (kind "dd"), or of its partial in z ("dd_z") or u ("dd_u"), over boxes
    with z, u >= 0; every other lane is bad.

    DD = int_0^1 G'(z^2 + tau (y^2 - z^2)) dtau lies in G' over the hull
    W = [z_lo^2, y_hi^2], which is intersected, where u_lo > 0, with the
    quotient itself.  The partials are int G'' (2z + 2 tau u) dtau and
    int G'' 2 tau y dtau, so they lie in G''(W) [2 z_lo, 2 y_hi] and
    G''(W) [0, 2 y_hi].

    The three kinds need psi, psi' and psi'' at the same four ends
    z_lo^2, z_hi^2, y_lo^2, y_hi^2, so the first of them to run on (z, u)
    evaluates all of it into the dict shared, and the others read it."""
    if shared is None:
        shared = {}
    if not shared:
        lo_z, hi_z, lo_u, hi_u, bad_z, bad_u = (
            np.ravel(x) for x in np.broadcast_arrays(z.lo, z.hi, u.lo, u.hi,
                                                     z.bad, u.bad))
        bad = bad_z | bad_u | ~(lo_z >= 0.0) | ~(lo_u >= 0.0) \
            | ~(hi_z + hi_u < 1e150)
        zs = IntervalArray(np.where(bad, 0.0, lo_z), np.where(bad, 0.0, hi_z),
                           bad)
        us = IntervalArray(np.where(bad, 0.0, lo_u), np.where(bad, 0.0, hi_u),
                           bad)
        y = zs + us
        zz, yy = zs * zs, y * y
        # z_lo^2 and y_lo^2 rounded down stay >= 0
        t = 2.0 * np.concatenate([np.maximum(zz.lo, 0.0), zz.hi,
                                  np.maximum(yy.lo, 0.0), yy.hi])
        shared.update(shape=np.broadcast(z.lo, u.lo).shape, bad=bad, z=zs,
                      u=us, y=y, psi=_psi(t))
    bad, z, u, y = shared["bad"], shared["z"], shared["u"], shared["y"]
    p0, p1, p2 = shared["psi"]
    n = len(bad)
    z_lo, z_hi, y_lo, y_hi = (slice(k * n, (k + 1) * n) for k in range(4))
    # every result below has bad lanes [-inf, inf]
    if kind == "dd":
        hull = IntervalArray(p1.lo[z_lo], p1.hi[y_hi], bad) * (_SQRT2 * 2.0)
        g_y = IntervalArray(p0.lo[y_hi], p0.hi[y_lo], bad)
        g_z = IntervalArray(p0.lo[z_hi], p0.hi[z_lo], bad)
        quotient = (g_y - g_z) * _SQRT2 / (u * (z * 2.0 + u))
        # a lane with u_lo = 0 divides by zero, and its [-inf, inf] leaves
        # the hull as it is
        out = IntervalArray(np.maximum(hull.lo, quotient.lo),
                            np.minimum(hull.hi, quotient.hi), bad)
    else:
        g2 = IntervalArray(p2.lo[y_hi], p2.hi[z_lo], bad) * (_SQRT2 * 4.0)
        out = g2 * IntervalArray(z.lo * 2.0 if kind == "dd_z"
                                 else np.zeros(n), y.hi * 2.0, bad)
    shape = shared["shape"]
    return IntervalArray(out.lo.reshape(shape), out.hi.reshape(shape),
                         bad.reshape(shape))


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

_UNARY = {"exp": np.exp, "tanh": np.tanh, "sqrt": np.sqrt}


class ExprNode:
    """Expression DAG over {const, var, +, -, *, /, pow, exp, tanh, sqrt} and
    the divided difference dd(z, u) of G (see _dd_interval) with its partials
    dd_z and dd_u, evaluable over IntervalArray through a Tape, and over
    floats where it has no dd node."""

    __slots__ = ("kind", "children", "value", "name")

    def __init__(self, kind, children=(), value=None, name=None):
        self.kind = kind
        self.children = children
        self.value = value
        self.name = name

    # -- construction -----------------------------------------------------
    @staticmethod
    def const(c):
        return ExprNode("const", value=float(c))

    @staticmethod
    def var(name):
        return ExprNode("var", name=name)

    def _lift(self, o):
        return o if isinstance(o, ExprNode) else ExprNode.const(o)

    def __add__(self, o):
        return ExprNode("add", (self, self._lift(o)))

    __radd__ = __add__

    def __sub__(self, o):
        return ExprNode("sub", (self, self._lift(o)))

    def __rsub__(self, o):
        return ExprNode("sub", (self._lift(o), self))

    def __mul__(self, o):
        return ExprNode("mul", (self, self._lift(o)))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return ExprNode("div", (self, self._lift(o)))

    def __rtruediv__(self, o):
        return ExprNode("div", (self._lift(o), self))

    def __neg__(self):
        return ExprNode("sub", (ExprNode.const(0.0), self))

    def __pow__(self, p):
        return ExprNode("pow", (self,), value=float(p))

    # numpy's object-dtype ufuncs call these, so np.exp(node) builds a node
    def exp(self):
        return ExprNode("exp", (self,))

    def tanh(self):
        return ExprNode("tanh", (self,))

    def sqrt(self):
        return ExprNode("sqrt", (self,))


nexp = ExprNode.exp

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}
_DIVIDED = ("dd", "dd_z", "dd_u")


class Tape:
    """Straight-line program of one or more expression DAGs.

    The roots are merged into one DAG in which structurally equal subtrees
    are a single slot: a node is keyed by its kind, its children's slots and
    its name or value, constants by their float bit pattern (so 0.0 and -0.0
    stay apart).  The slots are laid out in topological order, and run()
    drops each intermediate value as soon as its last consumer has run, so a
    pass holds only the values still to be read, not every node's arrays.
    """

    __slots__ = ("ops", "roots", "release")

    def __init__(self, roots):
        slot_of = {}        # id(node) -> slot
        slot_by_key = {}    # structural key -> slot
        self.ops = []       # (kind, argument slots, value, name)
        for root in roots:
            stack = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if id(node) in slot_of:
                    continue
                if node.children and not expanded:
                    stack.append((node, True))
                    stack.extend((c, False) for c in reversed(node.children))
                    continue
                args = tuple(slot_of[id(c)] for c in node.children)
                value = None if node.value is None else \
                    struct.pack("<d", node.value)
                key = (node.kind, args, value, node.name)
                if key not in slot_by_key:
                    slot_by_key[key] = len(self.ops)
                    self.ops.append((node.kind, args, node.value, node.name))
                slot_of[id(node)] = slot_by_key[key]
        self.roots = [slot_of[id(r)] for r in roots]
        last_read = {}
        for i, (_, args, _, _) in enumerate(self.ops):
            for a in args:
                last_read[a] = i
        for r in self.roots:
            last_read.pop(r, None)
        self.release = [[] for _ in self.ops]
        for slot, i in last_read.items():
            self.release[i].append(slot)

    def run(self, env) -> list:
        """Values of the roots over env, in the order the roots were given.
        A dd node over floats is a ValueError: it is enclosed over
        intervals only."""
        interval = isinstance(next(iter(env.values())), IntervalArray)
        values = [None] * len(self.ops)
        shared = {}     # per (z, u) slots, what the dd kinds share
        for i, (kind, args, value, name) in enumerate(self.ops):
            if kind == "const":
                out = IntervalArray.point(value) if interval else value
            elif kind == "var":
                out = env[name]
            elif kind in _BINARY:
                out = _BINARY[kind](values[args[0]], values[args[1]])
            elif kind == "pow":
                out = values[args[0]] ** value
            elif kind in _UNARY:
                x = values[args[0]]
                out = getattr(x, kind)() if interval else _UNARY[kind](x)
            elif kind in _DIVIDED:
                if not interval:
                    raise ValueError(f"node kind {kind!r} is enclosed over "
                                     f"intervals only, not over floats")
                out = _dd_interval(values[args[0]], values[args[1]], kind,
                                   shared.setdefault(args, {}))
            else:
                raise ValueError(f"unknown node kind {kind!r}")
            values[i] = out
            for slot in self.release[i]:
                values[slot] = None
        return [values[r] for r in self.roots]


def _smart_add(a, b):
    if a.kind == "const" and a.value == 0.0:
        return b
    if b.kind == "const" and b.value == 0.0:
        return a
    if a.kind == "const" and b.kind == "const":
        return ExprNode.const(a.value + b.value)
    return a + b


def _smart_sub(a, b):
    if b.kind == "const" and b.value == 0.0:
        return a
    if a.kind == "const" and b.kind == "const":
        return ExprNode.const(a.value - b.value)
    return a - b


def _smart_mul(a, b):
    for x, y in ((a, b), (b, a)):
        if x.kind == "const":
            if x.value == 0.0:
                return ExprNode.const(0.0)
            if x.value == 1.0:
                return y
    if a.kind == "const" and b.kind == "const":
        return ExprNode.const(a.value * b.value)
    return a * b


def _smart_div(a, b):
    if a.kind == "const" and a.value == 0.0:
        return ExprNode.const(0.0)
    if b.kind == "const" and b.value == 1.0:
        return a
    return a / b


def differentiate(expr: ExprNode, name: str, memo=None) -> ExprNode:
    """Symbolic partial derivative as a new DAG.

    Unary results reuse the original subtree (e.g. d/dx exp(g) multiplies by
    the *same* exp node), so a Tape over the function and its partials
    merges that node into one slot and evaluates it once.
    """
    if memo is None:
        memo = {}
    key = id(expr)
    if key in memo:
        return memo[key]
    k = expr.kind
    if k == "const":
        out = ExprNode.const(0.0)
    elif k == "var":
        out = ExprNode.const(1.0 if expr.name == name else 0.0)
    else:
        d = [differentiate(c, name, memo) for c in expr.children]
        a = expr.children[0]
        if k == "add":
            out = _smart_add(d[0], d[1])
        elif k == "sub":
            out = _smart_sub(d[0], d[1])
        elif k == "mul":
            b = expr.children[1]
            out = _smart_add(_smart_mul(d[0], b), _smart_mul(a, d[1]))
        elif k == "div":
            b = expr.children[1]
            out = _smart_sub(_smart_div(d[0], b),
                             _smart_div(_smart_mul(a, d[1]), _smart_mul(b, b)))
        elif k == "pow":
            p = expr.value
            inner = a if p == 2.0 else ExprNode("pow", (a,), value=p - 1.0)
            out = _smart_mul(ExprNode.const(p), _smart_mul(inner, d[0]))
        elif k == "exp":
            out = _smart_mul(expr, d[0])
        elif k == "tanh":
            out = _smart_mul(_smart_sub(ExprNode.const(1.0),
                                        _smart_mul(expr, expr)), d[0])
        elif k == "sqrt":
            out = _smart_div(d[0], _smart_mul(ExprNode.const(2.0), expr))
        elif k == "dd":
            out = _smart_add(
                _smart_mul(ExprNode("dd_z", expr.children), d[0]),
                _smart_mul(ExprNode("dd_u", expr.children), d[1]))
        else:
            raise ValueError(f"no partial derivative of node kind {k!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# claim catalog
# ---------------------------------------------------------------------------

def defect_quotient_expression() -> ExprNode:
    """Q = D / (H(y) H(z)), where D = -Delta(eta) - eta + eta^3 is the defect
    of eta = H(a y)H(a z) with drift coefficient d = m - 1, in gap
    coordinates (a, u, z) of the scaled variables (y, z) <- (a y, a z),
    y = z + u.  With p = 1 - H(y)^2, q = 1 - H(z)^2 and
    g(x) = x/H(x) - x H(x) = 2x / sinh(sqrt2 x) = G(x^2), the printed form

      D = Hy Hz (2a^2 - 1 - a^2 Hy^2 - a^2 Hz^2 + Hy^2 Hz^2)
          - d sqrt2 a^2 (y Hz p - z Hy q) / (y^2 - z^2)

    divided by Hy Hz > 0 is

      Q = pq - (1 - a^2)(p + q) - d sqrt2 a^2 DD
        = -(p Hz^2 + q) + a^2 (p + q - d sqrt2 DD),

    DD = (G(y^2) - G(z^2)) / (y^2 - z^2), one node (_dd_interval) with no
    0/0 at u = 0 or z = 0.  So D <= 0 exactly where Q <= 0, and Q is defined
    on the closed quadrant: at the corner it tends to
    2a^2 - 1 + 2 d a^2 / 3, since G'(0) = -sqrt2/3.

    Q is linear in a^2 and written with a single occurrence of ``a``, so
    interval evaluation is exact in the a-direction, and every term in the
    bracket is >= 0 (DD < 0): nothing cancels where p, q and DD decay
    together in the far field.  H(x) = (1 - e^(-sqrt2 x))/(1 + e^(-sqrt2 x)),
    with sqrt2 the rounded-out enclosure of sqrt(2).
    """
    a, u, z, d = (ExprNode.var(n) for n in ("a", "u", "z", "d"))
    s2 = ExprNode.const(2.0).sqrt()
    one = ExprNode.const(1.0)
    big_e = nexp(-s2 * z)
    e_y = big_e * nexp(-s2 * u)
    hz = (one - big_e) / (one + big_e)
    q = 4.0 * big_e / ((one + big_e) * (one + big_e))
    p = 4.0 * e_y / ((one + e_y) * (one + e_y))
    dd = ExprNode("dd", (z, u))
    base = ExprNode.const(0.0) - (p * (hz * hz) + q)
    coef = p + q - d * s2 * dd
    return base + (a * a) * coef


def builtin_expressions(n: int = 8) -> dict:
    """Expression-tree catalog for dimension n: the profile f and its mirror
    h, the five coefficient fields, the corrector Phi_0 and its drift
    Laplacian ("phi0", "lap_phi0", which no claim reads) and, under
    "defect_gap", the subsolution defect divided by H(y)H(z) in gap
    coordinates."""
    # candidate builds its DAGs with this module, so it is imported late
    from saddlecheck.candidate import CandidateParams, candidate_expressions
    cat = candidate_expressions(CandidateParams(n=n))
    cat["defect_gap"] = defect_quotient_expression()
    return cat


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfPlane:
    """Constraint x[greater] >= x[lesser] + delta, used to clip boxes."""
    greater: int
    lesser: int
    delta: float = 0.0


# Upper end of the defect claim's a-range for each dimension n.  No a-range
# can pass the corner bound sqrt(3/(6 + 2d)), where Q(u = z = 0) =
# 2a^2 - 1 + 2da^2/3 turns positive: 0.5, 0.4629 and 0.4330 for d = 3, 4, 5.
# At n = 12 (d = 5) the defect turns positive between a = 0.43 and 0.435
# (+1.6e-3 at (a, u, z) = (0.45, 0.014, 0.28)), so 0.43 stays below that
# bound.
DEFECT_A_MAX = {8: 0.45, 10: 0.45, 12: 0.43}


def claims(n: int) -> list[tuple[str, str, dict]]:
    """The interval claims proven for dimension n, in report order, as rows
    (label, key into builtin_expressions(n), keyword arguments of
    prove_nonpositive).

    Every row is proven as its expression < 0 on every leaf box.  The defect
    claim is Q = D / (H(y)H(z)) < 0 (defect_quotient_expression) in gap
    coordinates, for a in [0.01, DEFECT_A_MAX[n]], u in [0, 11.99] and
    z in [0, 12], with d = m - 1 fixed and the single-occurrence a frozen;
    its label says D <= 0, since H(y)H(z) >= 0 vanishes on the axes.  It
    starts at the corner u = z = 0, where Q is 2a^2 - 1 + 2da^2/3 < 0; the
    far field z > 12 or u > 11.99, where Q tends to 0, is not proven.  The
    coefficient claims (n = 8 only) hold on the wedge s >= t + 0.05.
    """
    rows = [("defect<=0", "defect_gap",
             {"names": ["a", "u", "z"],
              "box": [[0.01, DEFECT_A_MAX[n]], [0.0, 11.99], [0.0, 12.0]],
              "fixed": {"d": n / 2 - 1}, "frozen_dims": ("a",),
              "min_width": 1e-6})]
    if n == 8:
        rows += [(f"{key}<0", key,
                  {"names": ["s", "t"], "box": [[0.2, 20.0], [0.2, 20.0]],
                   "constraints": [HalfPlane(0, 1, 0.05)]})
                 for key in ("c_s", "c_ss", "c_st")]
    return rows


MAX_DEPTH = 60              # bisections of one box before it counts as stuck
MAX_BOXES = 2_000_000       # boxes examined before a proof stops undecided
MIN_BATCH = 1024            # boxes split up to before a batch evaluation
CHUNK = 65536               # bounds peak memory of a vectorized enclosure pass


@dataclass(frozen=True)
class ProofResult:
    """Outcome of one proof.  min_undecided_width is the largest width of an
    undecided box over its splittable dimensions, relative to the claim box
    (0.0 when proven); frontier holds the undecided boxes.  batches counts
    the batch evaluations and max_depth is the most bisections of any box
    evaluated."""
    status: str                       # "proven" | "undecided"
    boxes_examined: int
    min_undecided_width: float
    frontier: np.ndarray = field(repr=False)
    batches: int
    max_depth: int


def _clip(boxes: np.ndarray, constraints):
    for c in constraints:
        boxes[:, c.greater, 0] = np.maximum(boxes[:, c.greater, 0],
                                            boxes[:, c.lesser, 0] + c.delta)
        boxes[:, c.lesser, 1] = np.minimum(boxes[:, c.lesser, 1],
                                           boxes[:, c.greater, 1] - c.delta)
    feasible = np.all(boxes[:, :, 0] <= boxes[:, :, 1], axis=1)
    return boxes[feasible], feasible


def _max_width(boxes: np.ndarray, splittable, scale) -> float:
    """Largest width of the boxes over the splittable dims, relative to the
    claim box (0.0 for no boxes)."""
    if not len(boxes):
        return 0.0
    return float(((boxes[:, splittable, 1] - boxes[:, splittable, 0])
                  / scale[splittable]).max())


def _bisect(boxes: np.ndarray, depth: np.ndarray, widths: np.ndarray,
            constraints):
    """Both halves of every box, split across its scaled-widest dim and
    clipped to the constraints, with their depths."""
    split_dim = np.argmax(widths, axis=1)
    rng = np.arange(len(boxes))
    mid = 0.5 * (boxes[rng, split_dim, 0] + boxes[rng, split_dim, 1])
    left = boxes.copy()
    right = boxes.copy()
    left[rng, split_dim, 1] = mid
    right[rng, split_dim, 0] = mid
    children, feasible = _clip(np.concatenate([left, right]), constraints)
    return children, (np.concatenate([depth, depth]) + 1)[feasible]


def prove_nonpositive(expr: ExprNode, names, box, constraints=(),
                      fixed=None, frozen_dims=(),
                      min_width: float = 1e-4) -> ProofResult:
    """Prove expr < 0 on the box (list of per-variable [lo, hi]) intersected
    with the half-plane constraints: a box is decided only when the upper
    end of its enclosure is below 0, so an upper end of 0 or NaN is not.

    Bisects the scaled-widest dimension of every undecided box; stops
    refining a box once it falls below min_width or MAX_DEPTH, and the
    proof once it has examined more than MAX_BOXES boxes, and reports
    undecided with the surviving frontier.  A batch of fewer than MIN_BATCH
    boxes, the root included, is bisected again before it is evaluated
    while one of its boxes can be refined and twice its size fits
    MAX_BOXES: a tape pass costs about as much on one box as on a thousand.

    Each box is bounded twice and the tighter bound wins: once by direct
    interval evaluation, and once by the mean-value form
    f(c) + grad f(B) . (B - c), which is immune to the dependency blow-up of
    the direct form on narrow boxes.  Its center c is Baumann's, which
    minimises the upper bound of each gradient term (Baumann, "Optimal
    centered forms", BIT 28, 1988).

    Dimensions named in frozen_dims are never bisected; use this for
    variables the expression depends on monotonically-by-construction (e.g.
    a single-occurrence factor), where splitting cannot tighten the bound.
    """
    names = list(names)
    dims = len(names)
    splittable = np.array([nm not in frozen_dims for nm in names])
    # a partial in a variable expr does not read is const 0.0: used drops it
    grads = {k: differentiate(expr, nm) for k, nm in enumerate(names)
             if splittable[k]}
    used = [k for k, g in grads.items()
            if not (g.kind == "const" and g.value == 0.0)]
    # one pass over the box gives the direct enclosure and the gradient
    # enclosures of the mean-value form, one pass over the centers f(c)
    box_tape = Tape([expr] + [grads[k] for k in used])
    center_tape = Tape([expr])
    fixed_env = {nm: _lift(v) for nm, v in (fixed or {}).items()}

    def upper_bound(boxes):
        env = {nm: IntervalArray.from_bounds(boxes[:, k, 0], boxes[:, k, 1])
               for k, nm in enumerate(names)} | fixed_env
        iv, *slopes = box_tape.run(env)
        hi = np.where(iv.bad, np.inf, iv.hi)
        # mean-value form over the splittable dims: center evaluation plus
        # gradient times (box - center); frozen dims stay as full intervals
        # (the expansion holds for each of their values, so the hull is sound).
        # Any center in the box is sound.  Over a gradient enclosure [gl, gh]
        # the term's upper bound is least at Baumann's center
        # (gh hi - gl lo) / (gh - gl): the face the claim rises toward where
        # the enclosure has one sign.  The midpoint stands in where that is
        # not finite (bad lanes)
        centers = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
        for k, dk in zip(used, slopes):
            x_lo, x_hi = boxes[:, k, 0], boxes[:, k, 1]
            gl, gh = dk.lo, dk.hi
            with np.errstate(all="ignore"):
                c = np.where(gl >= 0.0, x_hi, np.where(
                    gh <= 0.0, x_lo, (gh * x_hi - gl * x_lo) / (gh - gl)))
            centers[:, k] = np.where(np.isfinite(c), np.clip(c, x_lo, x_hi),
                                     centers[:, k])
        cenv = {nm: (IntervalArray.point(centers[:, k]) if splittable[k]
                     else env[nm])
                for k, nm in enumerate(names)} | fixed_env
        mv, = center_tape.run(cenv)
        for k, dk in zip(used, slopes):
            delta = env[names[k]] - IntervalArray.point(centers[:, k])
            mv = mv + dk * delta
        return np.minimum(hi, np.where(mv.bad, np.inf, mv.hi))

    boxes = np.array(box, dtype=float).reshape(1, dims, 2)
    scale = np.maximum(boxes[0, :, 1] - boxes[0, :, 0], 1e-30)
    boxes, _ = _clip(boxes.copy(), constraints)
    queue = [(boxes, np.zeros(len(boxes), dtype=np.int32))]
    examined = batches = max_depth = 0
    stuck = []

    def refinable(boxes, depth):
        widths = np.where(splittable, (boxes[:, :, 1] - boxes[:, :, 0]) / scale,
                          -np.inf)
        return widths, (widths.max(axis=1) > min_width) & (depth < MAX_DEPTH)

    while queue:
        boxes, depth = queue.pop()
        if len(boxes) > CHUNK:
            # a copy, not a view: a queued view would pin its whole parent
            queue.append((boxes[CHUNK:].copy(), depth[CHUNK:].copy()))
            boxes, depth = boxes[:CHUNK], depth[:CHUNK]
        while len(boxes) < MIN_BATCH and \
                examined + 2 * len(boxes) <= MAX_BOXES:
            widths, split = refinable(boxes, depth)
            if not split.any():
                break
            children, child_depth = _bisect(boxes[split], depth[split],
                                            widths[split], constraints)
            boxes = np.concatenate([boxes[~split], children])
            depth = np.concatenate([depth[~split], child_depth])
        examined += len(boxes)
        if examined > MAX_BOXES:
            # the frontier is this batch, then the queue
            stuck += [boxes.copy()] + [b for b, _ in queue]
            break
        batches += 1
        max_depth = max(max_depth, int(depth.max(initial=0)))
        live = np.broadcast_to(~(upper_bound(boxes) < 0.0), len(boxes))
        boxes, depth = boxes[live], depth[live]
        if not len(boxes):
            continue
        widths, split = refinable(boxes, depth)
        if not split.all():
            stuck.append(boxes[~split])
            boxes, depth, widths = boxes[split], depth[split], widths[split]
        if not len(boxes):
            continue
        queue.append(_bisect(boxes, depth, widths, constraints))
    # piece by piece, then the frontier: neither stacks its temporaries on
    # the other's or on a batch evaluation's
    width = max((_max_width(b, splittable, scale) for b in stuck), default=0.0)
    frontier = np.concatenate(stuck) if stuck else np.zeros((0, dims, 2))
    status = "proven" if len(frontier) == 0 else "undecided"
    return ProofResult(status=status, boxes_examined=examined,
                       min_undecided_width=width, frontier=frontier,
                       batches=batches, max_depth=max_depth)
