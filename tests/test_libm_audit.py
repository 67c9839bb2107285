"""Audit of the rounding assumption behind the interval prover.

Interval bounds are padded outward by two ulps.  That is sound for the
correctly rounded +, -, *, / and sqrt, but exp, tanh, log and pow come from
the platform's libm (possibly SIMD paths), which promises no error bound.
This measures their error against 200-bit mpmath on the arguments the
claims actually produce and fails unless it stays below the padding.
"""

from collections import defaultdict

import mpmath
import numpy as np

from saddlecheck.rigor import builtin_expressions

PADDING_ULPS = 2.0
SAMPLES = 1500          # arguments audited per (function, exponent)


def _claim_samples(rng, n):
    """Points of the domains run_rigor proves its claims on."""
    t = rng.uniform(0.2, 19.95, n)
    coef = {"s": rng.uniform(t + 0.05, 20.0), "t": t}
    defect = [{"a": rng.uniform(0.01, 0.45, n), "u": rng.uniform(0.01, 11.99, n),
               "z": rng.uniform(0.01, 12.0, n), "d": d} for d in (3.0, 4.0, 5.0)]
    return coef, defect


def _nodes(expr):
    """Every node of the DAG once."""
    stack, seen = [expr], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(node.children)


def _unary_arguments(expr, env, out):
    """Collect the argument values of every exp/tanh/log/pow node of expr
    evaluated at the points env."""
    memo = {}
    expr.evaluate(env, memo)
    for node in _nodes(expr):
        if node.kind in ("exp", "tanh", "log", "pow"):
            arg = np.atleast_1d(memo[id(node.children[0])])
            out[(node.kind, node.value)].append(arg)


def _catalog_arguments(rng):
    coef, defect = _claim_samples(rng, 4000)
    args = defaultdict(list)
    for n in (8, 10, 12):
        # the coefficient claims and every other (s, t) entry of the catalogue
        for expr in builtin_expressions(n).values():
            if expr.variables() <= {"s", "t"}:
                _unary_arguments(expr, coef, args)
    gap = builtin_expressions(8)["defect_gap"]
    for env in defect:
        _unary_arguments(gap, env, args)
    return {key: np.concatenate(v) for key, v in args.items()}


def _ulp(exact):
    """Spacing of the doubles in the binade of the exact value."""
    if exact == 0:
        return mpmath.mpf(2) ** -1074
    _, e = mpmath.frexp(exact)
    return max(mpmath.mpf(2) ** (e - 53), mpmath.mpf(2) ** -1074)


def _max_ulp_error(np_fn, mp_fn, x):
    got = np_fn(x)
    worst = 0.0
    with mpmath.workprec(200):
        for xi, gi in zip(x.tolist(), got.tolist()):
            exact = mp_fn(mpmath.mpf(xi))
            worst = max(worst, float(abs(mpmath.mpf(gi) - exact) / _ulp(exact)))
    return worst


def test_libm_error_below_rounding_padding():
    rng = np.random.default_rng(2024)
    args = _catalog_arguments(rng)
    # the catalogue has no log node; IntervalArray.log is audited over the
    # values the claims' exponentials and variables take
    args[("log", None)] = np.concatenate([np.exp(args[("exp", None)]),
                                          rng.uniform(0.01, 20.0, 4000)])
    funcs = {"exp": (np.exp, mpmath.exp), "tanh": (np.tanh, mpmath.tanh),
             "log": (np.log, mpmath.log)}
    exponents = {node.value for n in (8, 10, 12)
                 for expr in builtin_expressions(n).values()
                 for node in _nodes(expr) if node.kind == "pow"}
    assert set(args) >= {("pow", p) for p in exponents}
    assert {kind for kind, _ in args} == {"exp", "tanh", "log", "pow"}
    report = {}
    for (kind, p), x in sorted(args.items(), key=str):
        x = rng.choice(x[np.isfinite(x)], SAMPLES)
        if kind == "pow":
            np_fn = lambda v, p=p: v ** p
            mp_fn = lambda v, p=p: v ** mpmath.mpf(p)
        else:
            np_fn, mp_fn = funcs[kind]
        report[f"{kind}{'' if p is None else f'^{p:g}'}"] = \
            _max_ulp_error(np_fn, mp_fn, x)
    print("max ulp error:", ", ".join(f"{k} {v:.3f}" for k, v in report.items()))
    assert all(err < PADDING_ULPS for err in report.values()), report
