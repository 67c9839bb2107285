"""Comparison-function candidate Phi = f u_s + h u_t + Phi_0 and its
coefficient fields for the linearized operator L = Delta_m + (1 - 3u^2).

A product rule plus the differentiated equation collapses L(Phi) to

    L Phi = C_s u_s + C_t u_t + C_ss u_ss + C_st u_st + C_tt u_tt + L Phi_0,

with C_s = Delta_m f + ((m-1)/s^2) f, C_ss = 2 f_s, C_tt = 2 h_t,
C_st = 2 f_t + 2 h_s, and C_t the s<->t mirror of C_s.  Stability follows
once Phi > 0 and L Phi <= 0, so the verifier needs tight point values of the
five C coefficients.  f and Phi_0 are written once each, in f_generic and
phi0_generic, and their partials come one way: symbolic differentiation of
the expression DAGs that those functions build, which gives L Phi_0 =
Delta_m Phi_0 + (1 - 3u^2) Phi_0 too.  wedge_fields runs one rigor.Tape of
f, h, the five C DAGs, Phi_0 and Delta_m Phi_0 over the wedge nodes
0 < t < s alone, as 1-D arrays, and gives Phi and L Phi there, for the
dimension n = 2m the solution carries; the interval proofs bound the same
DAGs over boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from saddlecheck.rigor import ExprNode, Tape, differentiate
from saddlecheck.scalars import SQRT2

CANDIDATE_DIMENSIONS = (8, 10, 12)


@dataclass(frozen=True)
class CandidateParams:
    """Parameters of the supersolution candidate Phi = f*u_s + h*u_t + Phi0.

    The power carried by f and h is (n-3)/2, which must lie strictly between
    the magnitudes of the indicial roots of a^2 + (n-3)a + (n-2) = 0.  The
    small additive term Phi0 = c*(s^-p exp(-t/3) + t^-p exp(-s/3)) fixes the
    far field, where f*u_s + h*u_t decays too fast to stay a supersolution.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n not in CANDIDATE_DIMENSIONS:
            raise ValueError(f"candidate defined for n in "
                             f"{CANDIDATE_DIMENSIONS}, got n={self.n}")

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def decay_exponent(self) -> float:
        return (self.n - 3) / 2.0

    @property
    def phi0_coeff(self) -> float:
        return 0.00007 if self.n == 8 else 0.001

    @property
    def phi0_exponent(self) -> float:
        return 1.8 if self.n == 8 else (self.n - 4) / 2.0

    @property
    def has_exp_term(self) -> bool:
        return self.n == 8


def f_generic(s, t, cand: CandidateParams):
    """The anisotropic decay profile f(s,t).

    Works on plain arrays and on ExprNode DAGs (numpy's object ufuncs call
    the nodes' sqrt/tanh/exp methods).  The leading factor interpolates
    between the cone direction and the s-axis; the power enforces the decay
    rate (s+t)^-(n-3)/2 that sits strictly between the indicial rates at
    infinity.  n = 8 carries an extra short-range term and
    a sqrt(2) factor.
    """
    radial = np.sqrt(s * s + t * t)
    if cand.has_exp_term:
        core = (np.tanh(s / t) * SQRT2 * s / radial
                + (1.0 / 4.2) * (1.0 - np.exp(-s / (2.0 * t))))
    else:
        core = np.tanh(s / t) * s / radial
    return core * (s + t) ** (-cand.decay_exponent)


def phi0_generic(s, t, cand: CandidateParams):
    """Additive far-field corrector Phi_0, symmetric in (s,t).  Its leading
    harmonic-like term is tuned to dominate the e^(t-s) tail that f u_s + h u_t
    alone fails to control.  Works on plain arrays and on ExprNode DAGs, as
    f_generic does."""
    c, p = cand.phi0_coeff, cand.phi0_exponent
    return c * (s ** (-p) * np.exp(-t / 3.0) + t ** (-p) * np.exp(-s / 3.0))


def _f_dags(cand: CandidateParams, first: str, second: str,
            profile=f_generic):
    """(f, f_1, f_2, f_11, f_12, f_22) as DAGs in the variables s and t, with
    the variable named `first` in f's first slot; f is f_generic, or the
    profile given."""
    e = profile(ExprNode.var(first), ExprNode.var(second), cand)
    memo_1, memo_2 = {}, {}
    e1, e2 = differentiate(e, first, memo_1), differentiate(e, second, memo_2)
    return (e, e1, e2, differentiate(e1, first, memo_1),
            differentiate(e1, second, memo_2),
            differentiate(e2, second, memo_2))


@dataclass(frozen=True)
class CoefficientSet:
    """Point values of f, h, the five coefficient fields, Phi_0 and its drift
    Laplacian Delta_m Phi_0 at (s, t)."""
    f: np.ndarray
    h: np.ndarray
    c_s: np.ndarray
    c_t: np.ndarray
    c_ss: np.ndarray
    c_st: np.ndarray
    c_tt: np.ndarray
    phi0: np.ndarray
    lap_phi0: np.ndarray


def candidate_expressions(cand: CandidateParams) -> dict:
    """f, h, the five C's, Phi_0 and Delta_m Phi_0 as expression DAGs in the
    variables s and t, keyed by the CoefficientSet field names.

    h(s,t) = -f(t,s), so every h partial is a mirrored f partial:
    h_s = -g_t, h_t = -g_s, h_ss = -g_tt, h_st = -g_st, h_tt = -g_ss with
    g = f(t, s) and its partials in slot order.
    """
    s, t, d = ExprNode.var("s"), ExprNode.var("t"), cand.m - 1
    f, fs, ft, fss, _, ftt = _f_dags(cand, "s", "t")
    g, gs, gt, gss, _, gtt = _f_dags(cand, "t", "s")
    p, ps, pt, pss, _, ptt = _f_dags(cand, "s", "t", phi0_generic)
    return {"f": f, "h": -g,
            "c_s": fss + ftt + d / s * fs + d / t * ft + d / s**2 * f,
            "c_t": -(gss + gtt + d / s * gt + d / t * gs + d / t**2 * g),
            "c_ss": 2.0 * fs,
            "c_st": 2.0 * ft - 2.0 * gt,
            "c_tt": -2.0 * gs,
            "phi0": p,
            "lap_phi0": pss + ptt + d / s * ps + d / t * pt}


def coefficient_set(s, t, cand: CandidateParams) -> CoefficientSet:
    """Every CoefficientSet field at (s, t): one Tape of the catalogue's
    DAGs (the proofs bound the same ones), run over float arrays."""
    cat = candidate_expressions(cand)
    tape = Tape([cat[c.name] for c in fields(CoefficientSet)])
    env = {"s": np.asarray(s, dtype=float), "t": np.asarray(t, dtype=float)}
    return CoefficientSet(*tape.run(env))


def wedge_fields(sol):
    """f, h, the five C's, Phi and L Phi at the N(N-1)/2 wedge nodes
    0 < t < s <= R, outer edge included, from one run of the
    coefficient_set tape, for the candidate of the solution's n = 2m.

    Returns (i, j, cs, phi, l_phi): the nodes' s- and t-indices in
    row-major order, their CoefficientSet, Phi = f u_s + h u_t + Phi_0 and
    L Phi from the coefficient identity, with L Phi_0 = Delta_m Phi_0 +
    (1 - 3u^2) Phi_0, all 1-D over the nodes.
    """
    cand = CandidateParams(n=2 * sol.m)
    i, j = np.tril_indices(sol.grid.N, -1)      # 0 <= j < i < N, shifted
    i, j = i + 1, j + 1                         # by one: 0 < j < i <= N
    s, t = sol.grid.coords[i], sol.grid.coords[j]
    cs = coefficient_set(s, t, cand)
    u_s, u_t = sol.u_s[i, j], sol.u_t[i, j]
    phi = cs.f * u_s + cs.h * u_t + cs.phi0
    l_phi = (cs.c_s * u_s + cs.c_t * u_t + cs.c_ss * sol.u_ss[i, j]
             + cs.c_st * sol.u_st[i, j] + cs.c_tt * sol.u_tt[i, j]
             + cs.lap_phi0 + (1.0 - 3.0 * sol.u[i, j] ** 2) * cs.phi0)
    return i, j, cs, phi, l_phi


# ---------------------------------------------------------------------------
# region and ratio diagnostics
# ---------------------------------------------------------------------------

REGION_E1 = 1
REGION_E2 = 2
REGION_E3 = 3


def region_classify(s, t):
    """Partition of the triangle: E1 = {0.65 s < t < s, t > 1/2},
    E3 = {t < 1/2}, E2 = the rest (1/2 <= t <= 0.65 s)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.full(np.broadcast(s, t).shape, REGION_E2, dtype=np.int8)
    out[np.broadcast_to(t < 0.5, out.shape)] = REGION_E3
    e1 = (t > 0.65 * s) & (t < s) & (t > 0.5)
    out[np.broadcast_to(e1, out.shape)] = REGION_E1
    return out


def lambda_coeff(s, t, n: int):
    """lambda = ((n-2)/4)(1/t - 1/s), the weight in the directional convexity
    bound lambda*u_s + u_st + u_ss >= 0."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (n - 2) / 4.0 * (1.0 / t - 1.0 / s)


def t_ratio(cs: CoefficientSet, r):
    """T(r) = (1-r) C_ss / (C_s + (1-r) max(C_st - C_ss, 0) - r C_t).

    Returns (value, ok); ok is False where the denominator is >= 0, in which
    case the ratio is reported as nan rather than clamped.
    """
    r = np.asarray(r, dtype=float)
    denom = cs.c_s + (1.0 - r) * np.maximum(cs.c_st - cs.c_ss, 0.0) - r * cs.c_t
    ok = denom < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(ok, (1.0 - r) * cs.c_ss / np.where(ok, denom, 1.0), np.nan)
    return val, ok
