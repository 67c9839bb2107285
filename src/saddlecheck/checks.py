"""Grid verification suite: the catalog of pointwise inequalities satisfied
by the saddle solution, plus the supersolution condition for the stability
candidate.

Each check evaluates a closed-form combination of solution fields over an
explicit node set and returns its worst margin as a report entry, a dict of
plain JSON values.  All inequalities are exact in the continuum, so the
tolerance model is tau = kappa * h^2 * scale with scale the local magnitude
of the participating terms (discretization error is second order).
Failures are entries with passed False, not exceptions.
"""

from __future__ import annotations

import numpy as np

from saddlecheck.candidate import wedge_fields
from saddlecheck.rigor import DEFECT_A_MAX
from saddlecheck.scalars import (SQRT2, double_well, g_profile, heteroclinic,
                                 hh_supersolution, rho, st_to_yz)
from saddlecheck.solver import SaddleSolution

KAPPA_DEFAULT = 10.0
TOL_FLOOR = 1e-12

# Physical width excluded at the truncation edge.  The Dirichlet data there
# is the product supersolution, whose deficit relative to the true solution
# decays only like e^(-s) into the domain; within ~2.5 length units the
# solution error still exceeds the h^2 tolerance scale of the tight checks.
OUTER_MARGIN = 2.5

# Constant for the weighted deficit bound phi <= C (1/t - 1/s) H(y) rho(z)
# on z > 1.  C is fixed by requiring the z = 1 trace to follow from the
# unweighted bound 4 H(y)(H(z) + z H'(z))/(y^2 - z^2), which is the anchor of
# the maximum-principle argument; with rho normalized by rho(0) = 0,
# rho'(0) = 2/3 this gives C ~= 5.19.
def _deficit_rho_constant() -> float:
    h1 = float(heteroclinic(1.0))
    hp1 = float(heteroclinic(1.0, 1))
    return 4.0 * (h1 + hp1) / (2.0 * SQRT2 * float(rho(1.0)))


def summary(entry: dict) -> str:
    """The log line of a check entry."""
    flag = "pass" if entry["passed"] else "FAIL"
    return (f"[{flag}] {entry['id']}: worst {entry['worst_margin']:+.3e} "
            f"(tol {entry['tolerance_used']:.1e}) at "
            f"{tuple(entry['worst_point'])}, {entry['nodes_checked']} nodes")


def tri_mask(grid, cone: int = 2, axis: int = 2,
             outer: float = OUTER_MARGIN) -> np.ndarray:
    """Triangle nodes at least `cone` nodes above the diagonal, `axis` nodes
    off the t=0 axis, and `outer` length units inside the truncation edge.
    cone=0 includes the diagonal itself."""
    n = grid.N + 1
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    outer_nodes = max(int(round(outer / grid.h)), 3)
    return (i - j >= cone) & (j >= axis) & (i <= grid.N - outer_nodes)


def cone_interp(sol: SaddleSolution, F: np.ndarray) -> np.ndarray:
    """Interpolate the diagonal trace of a field at the cone foot of each
    node: the point on s=t with the same y-coordinate, i.e. s'=t'=(s+t)/2."""
    grid = sol.grid
    k = np.arange(grid.N + 1)
    S, T = grid.meshgrid()
    return np.interp((S + T) / 2.0, k * grid.h, F[k, k])


def _fields(sol: SaddleSolution):
    g = sol.grid
    S, T = g.meshgrid()
    y, z = st_to_yz(S, T)
    return S, T, y, z


def _sqrt_pos(x):
    return np.sqrt(np.maximum(x, 0.0))


def _build_suite(sol: SaddleSolution):
    """Yield (id, description, margin, scale, mask), one check at a time.

    margin >= 0 is the satisfied direction for every entry; scale is the sum
    of term magnitudes used by the tolerance model.  A check's one-shot
    temporaries are released after its yield, so the generator holds only
    the fields later checks read.
    """
    g = sol.grid
    m = sol.m
    d = float(m - 1)           # drift coefficient, 3 in the base dimension
    c2 = (m - 1) / 2.0         # the (n-2)/4 coefficient with n = 2m
    S, T, y, z = _fields(sol)
    u, us, ut = sol.u, sol.u_s, sol.u_t
    uss, ust, utt = sol.u_ss, sol.u_st, sol.u_tt
    uy, uz = sol.u_y, sol.u_z

    std = tri_mask(g)                      # 2nd derivatives / 1/t factors
    first = tri_mask(g, cone=1, axis=1)    # first derivatives only
    with_diag = tri_mask(g, cone=0, axis=1)

    inv_t2s2 = np.zeros_like(u)
    msk = (S > 0) & (T > 0)
    inv_t2s2[msk] = 1.0 / T[msk] ** 2 - 1.0 / S[msk] ** 2
    inv_ts = np.zeros_like(u)
    inv_ts[msk] = 1.0 / T[msk] - 1.0 / S[msk]

    # 1. energy-gradient (Modica-type) bound
    grad2 = 0.5 * (us**2 + ut**2)
    yield ("01-modica", "F(u) - |grad u|^2/2 >= 0",
           double_well(u) - grad2, double_well(u) + grad2, first)
    del grad2

    # 2. t u_s + s u_t <= 0 (equality on the diagonal)
    yield ("02-tus-sut", "-(t u_s + s u_t) >= 0",
           -(T * us + S * ut), np.abs(T * us) + np.abs(S * ut), with_diag)

    # 3. 0 <= u_s + u_t <= (2z/(y+z)) u_s.  The factor comes from
    # |u_t| >= (t/s) u_s (a consequence of check 2): u_s + u_t <=
    # ((s-t)/s) u_s = (2z/(y+z)) u_s, with equality in the axis limit.
    m3a = us + ut
    m3b = 2.0 * z / (y + z + 1e-300) * us - (us + ut)
    yield ("03-usut-decay", "u_s+u_t in [0, (2z/(y+z)) u_s]",
           np.minimum(m3a, m3b), np.abs(us) + np.abs(ut), first)
    del m3a, m3b

    # 4. explicit exponential decay of u_s
    bound4 = 2.0 * (np.exp(0.85 * T) + 4.9 / _sqrt_pos(T + (T <= 0))) * np.exp(-0.85 * S)
    yield ("04-us-decay", "2(e^{0.85t}+4.9/sqrt t)e^{-0.85s} - u_s >= 0",
           bound4 - us, bound4 + np.abs(us), tri_mask(g, cone=1))
    del bound4

    # 5. u_s/s - u_ss >= 0
    t5 = np.where(msk, us / np.where(msk, S, 1.0), 0.0)
    yield ("05-uss", "u_s/s - u_ss >= 0",
           t5 - uss, np.abs(t5) + np.abs(uss), std)

    # 6. u_s/s + u_t/t - u_ss - u_tt >= 0
    t6 = np.where(msk, ut / np.where(msk, T, 1.0), 0.0)
    yield ("06-laplace-split", "u_s/s + u_t/t - u_ss - u_tt >= 0",
           t5 + t6 - uss - utt,
           np.abs(t5) + np.abs(t6) + np.abs(uss) + np.abs(utt), std)

    # 7. u_s+u_t <= (1/t^2 - 1/s^2)(2(u_s-u_t) + sqrt(u_s-u_t))
    rhs7 = inv_t2s2 * (2.0 * (us - ut) + _sqrt_pos(us - ut))
    yield ("07-usut-bound", "(1/t^2-1/s^2)(2(u_s-u_t)+sqrt(u_s-u_t)) - (u_s+u_t) >= 0",
           rhs7 - (us + ut), np.abs(rhs7) + np.abs(us + ut), std)

    # 8. u - u^3 + u_ss >= 0
    yield ("08-u-u3-uss", "u - u^3 + u_ss >= 0",
           u - u**3 + uss, np.abs(u - u**3) + np.abs(uss), std)

    # 9. sqrt2 u_s u + u_ss >= 0
    yield ("09-uus", "sqrt2 u_s u + u_ss >= 0",
           SQRT2 * us * u + uss, SQRT2 * np.abs(us * u) + np.abs(uss), std)

    # 10. sqrt2 u_t u + u_st <= 0
    yield ("10-utust", "-(sqrt2 u_t u + u_st) >= 0",
           -(SQRT2 * ut * u + ust), SQRT2 * np.abs(ut * u) + np.abs(ust), std)

    # 11. 2(u_s+u_t) + u_st + u_ss >= 0
    yield ("11-2us-ust-uss", "2(u_s+u_t) + u_st + u_ss >= 0",
           2.0 * (us + ut) + ust + uss,
           2.0 * np.abs(us + ut) + np.abs(ust) + np.abs(uss), std)

    # 12. 2(u_s+u_t) - u_st - u_tt >= 0
    yield ("12-2us-ust-utt", "2(u_s+u_t) - u_st - u_tt >= 0",
           2.0 * (us + ut) - ust - utt,
           2.0 * np.abs(us + ut) + np.abs(ust) + np.abs(utt), std)

    # 13. u/y + u/z - u_y - u_z >= 0, and u >= y u_y
    zsafe = np.where(z > 0, z, 1.0)
    m13a = np.where(z > 0, u / np.where(y > 0, y, 1.0) + u / zsafe - uy - uz, 0.0)
    m13b = u - y * uy
    yield ("13-radial", "u/y + u/z - u_y - u_z >= 0 and u - y u_y >= 0",
           np.minimum(m13a, m13b),
           np.abs(u / zsafe) + np.abs(uy) + np.abs(uz) + np.abs(y * uy), std)
    del zsafe, m13a, m13b

    # 14. u_z - y u_yz >= 0 on the cone (z = 0); diagonal trace with a
    # looser tolerance, four times the scale, since the cross term needs a
    # one-sided read.
    k = np.arange(g.N + 1)
    uz_diag = uz[k, k]
    uyz_diag = np.zeros_like(uz_diag)
    uyz_diag[1:-1] = (uz_diag[2:] - uz_diag[:-2]) / (2.0 * SQRT2 * g.h)
    m14 = np.full_like(u, np.inf)
    s14 = np.zeros_like(u)
    np.fill_diagonal(m14, uz_diag - SQRT2 * k * g.h * uyz_diag)
    np.fill_diagonal(s14, np.abs(uz_diag) + np.abs(SQRT2 * k * g.h * uyz_diag))
    mask14 = np.zeros_like(u, dtype=bool)
    np.fill_diagonal(mask14, (k >= 2) & (k <= g.N - 3))
    yield ("14-cone-uz", "u_z - y u_yz >= 0 on the cone",
           m14, 4.0 * s14, mask14)
    del m14, s14, mask14

    # 15. -u_t/t + u_st + u_tt >= 0
    yield ("15-ut-over-t", "-u_t/t + u_st + u_tt >= 0",
           -t6 + ust + utt, np.abs(t6) + np.abs(ust) + np.abs(utt), std)

    # 16. (m-1)(1/t - 1/s) u_s + u_ss + 2 u_st >= 0
    yield ("16-uss-2ust", "(m-1)(1/t-1/s) u_s + u_ss + 2u_st >= 0",
           d * inv_ts * us + uss + 2.0 * ust,
           d * np.abs(inv_ts * us) + np.abs(uss) + 2.0 * np.abs(ust), std)

    # 17. (m-1)(1/t - 1/s)(u_s - u_t) + 2u_st + u_ss + u_tt >= 0
    yield ("17-ust-uss", "(m-1)(1/t-1/s)(u_s-u_t) + 2u_st + u_ss + u_tt >= 0",
           d * inv_ts * (us - ut) + 2.0 * ust + uss + utt,
           d * np.abs(inv_ts * (us - ut)) + 2.0 * np.abs(ust)
           + np.abs(uss) + np.abs(utt), std)

    # 18. u_st + u_ss + (1/t^2-1/s^2)(2(u_s-u_t)+sqrt(u_s-u_t)) >= 0
    yield ("18-a1", "u_st + u_ss + (1/t^2-1/s^2)(2(u_s-u_t)+sqrt(u_s-u_t)) >= 0",
           ust + uss + rhs7, np.abs(ust) + np.abs(uss) + np.abs(rhs7), std)

    # 19. u_s u + u_ss >= 0
    yield ("19-usu-uss", "u_s u + u_ss >= 0",
           us * u + uss, np.abs(us * u) + np.abs(uss), std)

    # 20. -u_t u - u_st >= 0
    yield ("20-utu-ust", "-u_t u - u_st >= 0",
           -ut * u - ust, np.abs(ut * u) + np.abs(ust), std)

    # 21. ((n-2)/4)(1/t - 1/s) u_s + u_ss + u_st >= 0
    yield ("21-half-uss-ust", "((n-2)/4)(1/t-1/s) u_s + u_ss + u_st >= 0",
           c2 * inv_ts * us + uss + ust,
           c2 * np.abs(inv_ts * us) + np.abs(uss) + np.abs(ust), std)

    # 22. ((n-2)/4)(1/s - 1/t) u_t - u_st - u_tt >= 0
    yield ("22-half-ust-utt", "((n-2)/4)(1/s-1/t) u_t - u_st - u_tt >= 0",
           -c2 * inv_ts * ut - ust - utt,
           c2 * np.abs(inv_ts * ut) + np.abs(ust) + np.abs(utt), std)

    # 23. u_s + u_t - u_st - u_tt >= 0
    yield ("23-st-tt", "u_s + u_t - u_st - u_tt >= 0",
           us + ut - ust - utt,
           np.abs(us + ut) + np.abs(ust) + np.abs(utt), std)

    # 24. u_s + u_t + u_st + u_ss >= 0
    yield ("24-us-ut-ust", "u_s + u_t + u_st + u_ss >= 0",
           us + ut + ust + uss,
           np.abs(us + ut) + np.abs(ust) + np.abs(uss), std)

    # 25. bootstrapped bound and its corollary
    rhs25 = inv_t2s2 * (us - ut + 0.5 * _sqrt_pos(us - ut))
    m25a = rhs25 - (us + ut)
    m25b = rhs25 + ust + uss
    yield ("25-bootstrap", "u_s+u_t <= (1/t^2-1/s^2)(u_s-u_t+sqrt(u_s-u_t)/2); "
           "same bound + u_st + u_ss >= 0",
           np.minimum(m25a, m25b),
           np.abs(rhs25) + np.abs(us + ut) + np.abs(ust) + np.abs(uss), std)
    del rhs25, m25a, m25b

    # 26. dE/dz >= 0 for E = u^2 + 2u_s, and the cone-anchored lower bound
    m26a = us * u - ut * u + uss - ust
    us_cone = cone_interp(sol, us)
    m26b = 2.0 * us + u**2 - 2.0 * us_cone
    yield ("26-E-monotone", "d(u^2+2u_s)/dz >= 0 and 2u_s + u^2 - 2u_s(y,0) >= 0",
           np.minimum(m26a, m26b),
           np.abs(us * u) + np.abs(ut * u) + np.abs(uss) + np.abs(ust)
           + 2.0 * np.abs(us) + 2.0 * np.abs(us_cone) + u**2, std)
    del m26a, m26b

    # 27. deficit phi = H(y)H(z) - u: nonnegative and two upper bounds
    phi = hh_supersolution(y, z) - u
    denom = np.where(msk, y**2 - z**2, 1.0)
    Hy = heteroclinic(y)
    b27a = 8.0 * Hy * g_profile(z) / denom   # 4H(y)(H(z)+zH'(z))
    m27 = np.minimum(phi, b27a - phi)
    zgt1 = z > 1.0
    rho_z = np.zeros_like(u)
    rho_z[zgt1] = rho(z[zgt1])
    b27b = _deficit_rho_constant() * inv_ts * Hy * rho_z
    m27 = np.where(zgt1, np.minimum(m27, b27b - phi), m27)
    yield ("27-deficit", "0 <= H(y)H(z)-u <= 4H(y)(H+zH')/(y^2-z^2); "
           "<= C (1/t-1/s)H(y)rho(z) for z>1",
           m27, phi + np.abs(b27a), std)
    del phi, denom, Hy, b27a, m27, zgt1, rho_z, b27b

    # 28. subsolution bound u >= H(0.45y)H(0.45z); where the proven a-range
    # of the defect claim stops below 0.45 it is a grid check only
    sub = hh_supersolution(0.45 * y, 0.45 * z)
    desc28 = "u - H(0.45y)H(0.45z) >= 0"
    a_max = DEFECT_A_MAX.get(2 * m, 0.45)
    if a_max < 0.45:
        desc28 += (f" (grid check only: a = 0.45 is above the proven "
                   f"a-range a <= {a_max:g} at n = {2 * m})")
    yield ("28-subsolution", desc28, u - sub, np.abs(u) + sub, first)
    del sub

    # 29. lower bound on the Laplacian combination (controls |u_tt|)
    lhs29 = uss + utt + d * t5 + d * t6
    rhs29 = -u * (2.0 * us + 1.0 - 2.0 * us_cone)
    yield ("29-utt-bound", "u_ss+u_tt+(m-1)(u_s/s+u_t/t) + u(2u_s+1-2u_s(y,0)) >= 0",
           lhs29 - rhs29, np.abs(lhs29) + np.abs(rhs29), std)


def _entry(cid: str, description: str, passed: bool, worst_margin: float,
           worst_point: tuple, nodes_checked: int, nodes_excluded: int,
           tolerance_used: float) -> dict:
    """A check's report entry, in plain JSON values."""
    return {"id": cid, "description": description, "passed": bool(passed),
            "worst_margin": float(worst_margin),
            "worst_point": [float(x) for x in worst_point],
            "nodes_checked": int(nodes_checked),
            "nodes_excluded": int(nodes_excluded),
            "tolerance_used": float(tolerance_used)}


def run_inequality_suite(sol: SaddleSolution) -> list[dict]:
    """Evaluate every catalog inequality; returns its report entries."""
    h = sol.grid.h
    entries = []
    total_nodes = int(sol.grid.mask_triangle.sum())
    for cid, desc, margin, scale, mask in _build_suite(sol):
        tol = np.maximum(KAPPA_DEFAULT * h * h * scale, TOL_FLOOR)
        slack = np.where(mask, margin + tol, np.inf)
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        checked = int(mask.sum())
        entries.append(_entry(cid, desc, slack[i, j] >= 0.0, margin[i, j],
                              (i * h, j * h), checked, total_nodes - checked,
                              tol[i, j]))
    return entries


def verify_supersolution(sol: SaddleSolution) -> dict:
    """Check L Phi < 0 and Phi > 0 for the candidate of n = 2 sol.m at the
    interior nodes 0 < t < s < R, with no tolerance (max L Phi is -1.1e-8
    at m = 6, R12 h.05); returns its report entry."""
    i, j, _, ph, lp = wedge_fields(sol)
    inner = i < sol.grid.N              # the outer edge carries data
    i, j, ph, lp = i[inner], j[inner], ph[inner], lp[inner]
    h = sol.grid.h
    k = int(np.argmax(lp))
    worst = float(lp[k])
    return _entry(f"supersolution-n{2 * sol.m}",
                  "L Phi < 0 and Phi > 0 at interior nodes",
                  worst < 0.0 and ph.min() > 0.0, -worst,
                  (i[k] * h, j[k] * h), lp.size,
                  int(sol.grid.mask_triangle.sum()) - lp.size, 0.0)
