"""Audit of the rounding assumption behind the interval prover.

Interval bounds are padded outward by two ulps.  That is sound for the
correctly rounded +, -, *, / and sqrt, but exp, tanh and pow come from
the platform's libm (possibly SIMD paths), which promises no error bound.
This measures their error against 200-bit mpmath on the arguments the
claims actually produce and fails unless it stays below the padding: the
arguments of the DAGs' exp, tanh and pow nodes, and those the
divided-difference nodes pass to exp inside their own enclosures.
"""

from collections import defaultdict

import mpmath
import numpy as np
import pytest

from oracles import dag_nodes, variables
from saddlecheck import rigor
from saddlecheck.rigor import (IntervalArray, Tape, builtin_expressions,
                               claims, differentiate)

PADDING_ULPS = 2.0
SAMPLES = 1500          # arguments audited per (function, exponent)
POINTS = 4000           # domain points sampled per claim


def _domain_points(rng, kwargs, n):
    """Points of a claim's domain: uniform in its box, kept where its
    half-plane constraints hold, with its fixed values."""
    lo, hi = np.array(kwargs["box"], dtype=float).T
    x = rng.uniform(lo, hi, (n, len(lo)))
    for c in kwargs.get("constraints", ()):
        x = x[x[:, c.greater] >= x[:, c.lesser] + c.delta]
    return dict(zip(kwargs["names"], x.T)) | kwargs.get("fixed", {})


def _proof_expressions(expr, kwargs):
    """What prove_nonpositive evaluates: the claim and its partials in the
    bisected variables."""
    frozen = kwargs.get("frozen_dims", ())
    return [expr] + [differentiate(expr, nm) for nm in kwargs["names"]
                     if nm not in frozen and nm in variables(expr)]


def _divided_difference_exp_arguments(nodes, env):
    """What the dd, dd_z and dd_u nodes pass to IntervalArray.exp while they
    enclose themselves over the point boxes env."""
    seen = []

    def recorded(self):
        seen.extend([np.ravel(self.lo), np.ravel(self.hi)])
        return exp(self)

    exp = IntervalArray.exp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntervalArray, "exp", recorded)
        for node in nodes:
            z, u = (IntervalArray.point(v) for v in
                    Tape(list(node.children)).run(env))
            rigor._dd_interval(z, u, node.kind)
    return seen


def _claim_arguments(rng):
    """Argument values of every exp/tanh/pow node the proofs of
    rigor.claims(n), n = 8, 10, 12, evaluate, at points of each claim's
    domain, and of the exp calls inside their divided-difference nodes
    (key ("exp", "dd"))."""
    args = defaultdict(list)
    for n in (8, 10, 12):
        cat = builtin_expressions(n)
        for _, key, kwargs in claims(n):
            env = _domain_points(rng, kwargs, POINTS)
            nodes = [node for expr in _proof_expressions(cat[key], kwargs)
                     for node in dag_nodes(expr)]
            calls = [node for node in nodes
                     if node.kind in ("exp", "tanh", "pow")]
            values = Tape([node.children[0] for node in calls]).run(env)
            for node, arg in zip(calls, values):
                args[(node.kind, node.value)].append(np.atleast_1d(arg))
            args[("exp", "dd")] += _divided_difference_exp_arguments(
                [node for node in nodes if node.kind in rigor._DIVIDED], env)
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
    args = _claim_arguments(rng)
    funcs = {"exp": (np.exp, mpmath.exp), "tanh": (np.tanh, mpmath.tanh)}
    exponents = {node.value for n in (8, 10, 12)
                 for _, key, kwargs in claims(n)
                 for expr in _proof_expressions(builtin_expressions(n)[key],
                                                kwargs)
                 for node in dag_nodes(expr) if node.kind == "pow"}
    assert set(args) >= {("pow", p) for p in exponents} | {("exp", "dd")}
    assert {kind for kind, _ in args} == {"exp", "tanh", "pow"}
    report = {}
    for (kind, p), x in sorted(args.items(), key=str):
        x = rng.choice(x[np.isfinite(x)], SAMPLES)
        if kind == "pow":
            np_fn = lambda v, p=p: v ** p
            mp_fn = lambda v, p=p: v ** mpmath.mpf(p)
        else:
            np_fn, mp_fn = funcs[kind]
        label = kind if p is None else f"{kind} in {p}" if p == "dd" \
            else f"{kind}^{p:g}"
        report[label] = _max_ulp_error(np_fn, mp_fn, x)
    print("max ulp error:", ", ".join(f"{k} {v:.3f}" for k, v in report.items()))
    assert all(err < PADDING_ULPS for err in report.values()), report
