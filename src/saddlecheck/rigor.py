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
when every surviving leaf box has an enclosure with hi <= -margin.

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

from saddlecheck.params import CandidateParams

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
        with np.errstate(divide="ignore", invalid="ignore"):
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
# expression trees
# ---------------------------------------------------------------------------

_UNARY = {"exp": np.exp, "tanh": np.tanh, "sqrt": np.sqrt}


class ExprNode:
    """Expression DAG over {const, var, +, -, *, /, pow, exp, tanh, sqrt},
    evaluable over floats or IntervalArray through a Tape."""

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

    def variables(self):
        out = set()
        stack = [self]
        while stack:
            n = stack.pop()
            if n.kind == "var":
                out.add(n.name)
            stack.extend(n.children)
        return out


nexp = ExprNode.exp

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}


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
        """Values of the roots over env, in the order the roots were given."""
        interval = isinstance(next(iter(env.values())), IntervalArray)
        values = [None] * len(self.ops)
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
        else:
            raise ValueError(f"unknown node kind {k!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# claim catalog
# ---------------------------------------------------------------------------

def defect_gap_expression() -> ExprNode:
    """Defect -Delta(eta) - eta + eta^3 of eta = H(a y)H(a z), drift
    coefficient d = m - 1, in gap coordinates (a, u, z) of the scaled
    variables (y, z) <- (a y, a z), u = y - z > 0.  With Hy = H(y),
    p = 1 - Hy^2 and q = 1 - Hz^2 the printed form is

      Hy Hz (2a^2 - 1 - a^2 Hy^2 - a^2 Hz^2 + Hy^2 Hz^2)
        - d sqrt2 a^2 (y Hz p - z Hy q) / (y^2 - z^2),

    and here the two removable cancellations of its drift term are
    eliminated algebraically:

      * the denominator y^2 - z^2 becomes u (2z + u) exactly, and
      * the bracket y Hz p(y) - z Hy q(z) equals
            4E [u eps (1 - E^2) - z (1 - eps)(1 + eps E^2)] / D,
        D = (1 + E)^2 (1 + eps E)^2,  E = e^(-sqrt2 z),  eps = e^(-sqrt2 u),
        so the factor u divides out before any interval subtraction.

    Every remaining subtraction is between quantities of different scales,
    which keeps enclosure widths proportional to box widths even on boxes
    hugging the diagonal u -> 0 or deep in the exponential tail.

    The defect is linear in a^2, so the expression is arranged as
    base(u, z) + a^2 * coef(u, z) with a single occurrence of ``a``: interval
    evaluation is then exact in the a-direction (the extreme value sits at an
    endpoint), and the branch-and-bound effectively only refines (u, z).
    """
    a, u, z, d = (ExprNode.var(n) for n in ("a", "u", "z", "d"))
    s2 = ExprNode.const(np.sqrt(2.0))
    one = ExprNode.const(1.0)
    big_e = nexp(ExprNode.const(-np.sqrt(2.0)) * z)
    eps = nexp(ExprNode.const(-np.sqrt(2.0)) * u)
    eE = eps * big_e
    hz = (one - big_e) / (one + big_e)
    hy = (one - eE) / (one + eE)
    q = 4.0 * big_e / ((one + big_e) * (one + big_e))
    p = 4.0 * eE / ((one + eE) * (one + eE))
    n_over_u = (eps * (one - big_e * big_e)
                - z * (one + eps * big_e * big_e) * ((one - eps) / u))
    denom = ((one + big_e) * (one + big_e) * (one + eE) * (one + eE)
             * (2.0 * z + u))
    drift_coef = d * s2 * 4.0 * big_e * n_over_u / denom
    base = ExprNode.const(0.0) - hy * hz * (p + hy * hy * q)
    coef = hy * hz * (p + q) - drift_coef
    return base + (a * a) * coef


def builtin_expressions(n: int = 8) -> dict:
    """Expression-tree catalog for dimension n: the profile f and its mirror
    h, the five coefficient fields and the subsolution defect in gap
    coordinates."""
    # candidate builds its DAGs with this module, so it is imported late
    from saddlecheck.candidate import candidate_expressions
    cat = candidate_expressions(CandidateParams(n=n))
    cat["defect_gap"] = defect_gap_expression()
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


# Upper end of the defect claim's a-range for each dimension n.  At n = 12
# (d = 5) the defect turns positive between a = 0.43 and 0.435: it is
# +1.6e-3 at (a, u, z) = (0.45, 0.014, 0.28).
DEFECT_A_MAX = {8: 0.45, 10: 0.45, 12: 0.42}


def claims(n: int) -> list[tuple[str, str, dict]]:
    """The interval claims proven for dimension n, in report order, as rows
    (label, key into builtin_expressions(n), keyword arguments of
    prove_nonpositive).

    The defect is proven in gap coordinates for a in [0.01, DEFECT_A_MAX[n]],
    with d = m - 1 fixed and the single-occurrence a frozen; the coefficient
    claims (n = 8 only) on the wedge s >= t + 0.05.
    """
    rows = [("defect<=0", "defect_gap",
             {"names": ["a", "u", "z"],
              "box": [[0.01, DEFECT_A_MAX[n]], [0.01, 11.99], [0.01, 12.0]],
              "fixed": {"d": n / 2 - 1}, "frozen_dims": ("a",),
              "min_width": 1e-6})]
    if n == 8:
        rows += [(f"{key}<0", key,
                  {"names": ["s", "t"], "box": [[0.2, 20.0], [0.2, 20.0]],
                   "constraints": [HalfPlane(0, 1, 0.05)]})
                 for key in ("c_s", "c_ss", "c_st")]
    return rows


MAX_DEPTH = 60              # bisections of one box before it counts as stuck


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
                      margin: float = 0.0, fixed=None, frozen_dims=(),
                      min_width: float = 1e-4,
                      max_boxes: int = 2_000_000) -> ProofResult:
    """Prove expr <= -margin on the box (list of per-variable [lo, hi])
    intersected with the half-plane constraints.

    Bisects the scaled-widest dimension of every undecided box; stops
    refining a box once it falls below min_width or MAX_DEPTH and reports
    undecided with the surviving frontier.

    Each box is bounded twice and the tighter bound wins: once by direct
    interval evaluation, and once by the mean-value form
    f(c) + grad f(B) . (B - c), which is immune to the dependency blow-up of
    the direct form on narrow boxes.

    Dimensions named in frozen_dims are never bisected; use this for
    variables the expression depends on monotonically-by-construction (e.g.
    a single-occurrence factor), where splitting cannot tighten the bound.
    """
    names = list(names)
    dims = len(names)
    splittable = np.array([nm not in frozen_dims for nm in names])
    active = expr.variables()
    grads = {k: differentiate(expr, nm) for k, nm in enumerate(names)
             if splittable[k] and nm in active}
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
        # gradient times half-widths; frozen dims stay as full intervals
        # (the expansion holds for each of their values, so the hull is sound)
        centers = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
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
    chunk = 65536  # bounds peak memory of a vectorized enclosure pass

    while queue:
        boxes, depth = queue.pop()
        if len(boxes) > chunk:
            # a copy, not a view: a queued view would pin its whole parent
            queue.append((boxes[chunk:].copy(), depth[chunk:].copy()))
            boxes, depth = boxes[:chunk], depth[:chunk]
        examined += len(boxes)
        if examined > max_boxes:
            # the frontier is this batch, then the queue
            stuck += [boxes.copy()] + [b for b, _ in queue]
            break
        batches += 1
        max_depth = max(max_depth, int(depth.max(initial=0)))
        live = np.broadcast_to(upper_bound(boxes) > -margin, len(boxes))
        boxes, depth = boxes[live], depth[live]
        if not len(boxes):
            continue
        widths = np.where(splittable, (boxes[:, :, 1] - boxes[:, :, 0]) / scale,
                          -np.inf)
        refinable = (widths.max(axis=1) > min_width) & (depth < MAX_DEPTH)
        if not refinable.all():
            stuck.append(boxes[~refinable])
            boxes, depth = boxes[refinable], depth[refinable]
            widths = widths[refinable]
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
