"""Interval-arithmetic branch-and-bound prover for the closed-form sign
claims: the subsolution defect and the candidate coefficient fields.
claims(n) is the one table of what is proven for dimension n and on which
domain; the CLI, the acceptance gate and the libm audit all read it.

Intervals are vectorized (arrays of boxes evaluated at once) with outward
rounding by two ulps around every primitive operation: one integer step on
the float64 bit pattern, with nextafter for the lanes where that step would
cross zero or pass +-inf, and for NaN.  Two ulps cover the correctly rounded
+ - * / sqrt and the libm exp, tanh, log and pow, whose measured error stays
below it (tests/test_libm_audit.py).  Partial operations
(division through zero, roots/powers of nonpositive bases) mark a box "bad"
instead of failing; bad boxes are simply split further.  A claim is proven
when every surviving leaf box has an enclosure with hi <= -margin.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class IntervalArray:
    """Axis-aligned enclosures [lo, hi] with a per-entry failure flag."""
    lo: np.ndarray
    hi: np.ndarray
    bad: np.ndarray

    @staticmethod
    def from_bounds(lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return IntervalArray(lo, hi, np.zeros(lo.shape, dtype=bool))

    @staticmethod
    def point(x):
        x = np.asarray(x, dtype=float)
        return IntervalArray(x.copy(), x.copy(), np.zeros(x.shape, dtype=bool))

    def _wrap(self, lo, hi, bad=None):
        b = self.bad if bad is None else bad
        lo = np.where(b, -np.inf, _down(lo))
        hi = np.where(b, np.inf, _up(hi))
        return IntervalArray(lo, hi, b)

    def __add__(self, o):
        o = _lift(o, self)
        return self._wrap(self.lo + o.lo, self.hi + o.hi, self.bad | o.bad)

    def __sub__(self, o):
        o = _lift(o, self)
        return self._wrap(self.lo - o.hi, self.hi - o.lo, self.bad | o.bad)

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo, self.bad)

    def __mul__(self, o):
        o = _lift(o, self)
        ll, lh = self.lo * o.lo, self.lo * o.hi
        hl, hh = self.hi * o.lo, self.hi * o.hi
        lo = np.minimum(np.minimum(ll, lh), np.minimum(hl, hh))
        hi = np.maximum(np.maximum(ll, lh), np.maximum(hl, hh))
        # min/max propagate NaN and keep +-inf, so both are finite exactly
        # when all four products are; otherwise clamp as nan_to_num does
        # (0 * inf only comes from bad lanes, which _wrap overwrites)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            cands = np.nan_to_num(np.stack([ll, lh, hl, hh]), nan=0.0)
            lo, hi = cands.min(axis=0), cands.max(axis=0)
        return self._wrap(lo, hi, self.bad | o.bad)

    def __truediv__(self, o):
        o = _lift(o, self)
        bad = self.bad | o.bad | ((o.lo <= 0.0) & (o.hi >= 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = IntervalArray(
                np.where(bad, -np.inf, np.minimum(1.0 / o.lo, 1.0 / o.hi)),
                np.where(bad, np.inf, np.maximum(1.0 / o.lo, 1.0 / o.hi)),
                bad)
        return self * inv

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

    def log(self):
        bad = self.bad | (self.lo <= 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._wrap(np.log(np.maximum(self.lo, 1e-300)),
                              np.log(np.maximum(self.hi, 1e-300)), bad)


def _lift(x, like: IntervalArray) -> IntervalArray:
    if isinstance(x, IntervalArray):
        return x
    return IntervalArray.point(np.full_like(like.lo, float(x)))


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

_UNARY = {"exp": np.exp, "tanh": np.tanh, "sqrt": np.sqrt, "log": np.log}


class ExprNode:
    """Expression DAG over {const, var, +, -, *, /, pow, exp, tanh, sqrt,
    log}, evaluable over floats or IntervalArray with memoized sharing."""

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

    def log(self):
        return ExprNode("log", (self,))

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, env, memo=None):
        """Evaluate over whatever value type env supplies (floats, ndarrays,
        IntervalArray, Jet2...)."""
        if memo is None:
            memo = {}
        key = id(self)
        if key in memo:
            return memo[key]
        k = self.kind
        if k == "const":
            first = next(iter(env.values()))
            if isinstance(first, IntervalArray):
                out = _lift(self.value, first)
            else:
                out = self.value
        elif k == "var":
            out = env[self.name]
        else:
            args = [c.evaluate(env, memo) for c in self.children]
            if k == "add":
                out = args[0] + args[1]
            elif k == "sub":
                out = args[0] - args[1]
            elif k == "mul":
                out = args[0] * args[1]
            elif k == "div":
                out = args[0] / args[1]
            elif k == "pow":
                out = args[0] ** self.value
            elif k in _UNARY:
                a = args[0]
                out = getattr(a, k)() if isinstance(a, IntervalArray) else _UNARY[k](a)
            else:
                raise ValueError(f"unknown node kind {k!r}")
        memo[key] = out
        return out

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
    the *same* exp node), so a shared evaluation memo computes the function
    and all of its partials in one pass.
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
        elif k == "log":
            out = _smart_div(d[0], a)
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


def claims(n: int) -> list[tuple[str, str, dict]]:
    """The interval claims proven for dimension n, in report order, as rows
    (label, key into builtin_expressions(n), keyword arguments of
    prove_nonpositive other than max_boxes).

    The defect is proven in gap coordinates with d = m - 1 fixed and the
    single-occurrence a frozen; the coefficient claims (n = 8 only) on the
    wedge s >= t + 0.05.
    """
    rows = [("defect<=0", "defect_gap",
             {"names": ["a", "u", "z"],
              "box": [[0.01, 0.45], [0.01, 11.99], [0.01, 12.0]],
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
    status: str                       # "proven" | "undecided"
    boxes_examined: int
    min_undecided_width: float
    frontier: np.ndarray = field(repr=False)

    @property
    def proven(self) -> bool:
        return self.status == "proven"


def _clip(boxes: np.ndarray, constraints):
    for c in constraints:
        boxes[:, c.greater, 0] = np.maximum(boxes[:, c.greater, 0],
                                            boxes[:, c.lesser, 0] + c.delta)
        boxes[:, c.lesser, 1] = np.minimum(boxes[:, c.lesser, 1],
                                           boxes[:, c.greater, 1] - c.delta)
    feasible = np.all(boxes[:, :, 0] <= boxes[:, :, 1], axis=1)
    return boxes[feasible], feasible


def prove_nonpositive(expr: ExprNode, names, box, constraints=(),
                      margin: float = 0.0, fixed=None, frozen_dims=(),
                      min_width: float = 1e-4,
                      max_boxes: int = 400_000) -> ProofResult:
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
    grads = [differentiate(expr, nm) if nm in active else ExprNode.const(0.0)
             for nm in names]
    boxes = np.array(box, dtype=float).reshape(1, dims, 2)
    scale = np.maximum(boxes[0, :, 1] - boxes[0, :, 0], 1e-30)
    boxes, _ = _clip(boxes.copy(), constraints)
    queue = [(boxes, np.zeros(len(boxes), dtype=np.int32))]
    examined = 0
    stuck = []
    chunk = 65536  # bounds peak memory of a vectorized enclosure pass

    while queue:
        boxes, depth = queue.pop()
        if len(boxes) > chunk:
            queue.append((boxes[chunk:], depth[chunk:]))
            boxes, depth = boxes[:chunk], depth[:chunk]
        examined += len(boxes)
        if examined > max_boxes:
            stuck.append(boxes)
            stuck.extend(b for b, _ in queue)
            break
        env = {nm: IntervalArray.from_bounds(boxes[:, k, 0], boxes[:, k, 1])
               for k, nm in enumerate(names)}
        if fixed:
            env.update({nm: _lift(v, env[names[0]]) for nm, v in fixed.items()})
        shared = {}
        iv = expr.evaluate(env, shared)
        hi = np.where(iv.bad, np.inf, iv.hi)
        # mean-value form over the splittable dims: center evaluation plus
        # gradient times half-widths; frozen dims stay as full intervals
        # (the expansion holds for each of their values, so the hull is sound)
        centers = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
        cenv = {nm: (IntervalArray.point(centers[:, k]) if splittable[k]
                     else env[nm])
                for k, nm in enumerate(names)}
        if fixed:
            cenv.update({nm: _lift(v, cenv[names[0]])
                         for nm, v in fixed.items()})
        mv = expr.evaluate(cenv)
        for k, g in enumerate(grads):
            if not splittable[k] or (g.kind == "const" and g.value == 0.0):
                continue
            dk = g.evaluate(env, shared)
            delta = (IntervalArray.from_bounds(boxes[:, k, 0], boxes[:, k, 1])
                     - IntervalArray.point(centers[:, k]))
            mv = mv + dk * delta
        hi = np.minimum(hi, np.where(mv.bad, np.inf, mv.hi))
        live = hi > -margin
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
        split_dim = np.argmax(widths, axis=1)
        rng = np.arange(len(boxes))
        mid = 0.5 * (boxes[rng, split_dim, 0] + boxes[rng, split_dim, 1])
        left = boxes.copy()
        right = boxes.copy()
        left[rng, split_dim, 1] = mid
        right[rng, split_dim, 0] = mid
        children = np.concatenate([left, right])
        child_depth = np.concatenate([depth, depth]) + 1
        children, feasible = _clip(children, constraints)
        queue.append((children, child_depth[feasible]))
    frontier = np.concatenate(stuck) if stuck else np.zeros((0, dims, 2))
    width = float(((frontier[:, :, 1] - frontier[:, :, 0]) / scale).max()) \
        if len(frontier) else 0.0
    status = "proven" if len(frontier) == 0 else "undecided"
    return ProofResult(status=status, boxes_examined=examined,
                       min_undecided_width=width, frontier=frontier)
