"""Acceptance gate: the nine top-level criteria, one pass/fail line each.

Each test prints a single summary line (visible with -s or in captured
output) and then asserts, so the gate doubles as a human-readable scorecard.
"""

import numpy as np
import pytest

from oracles import dense_min_eigenvalue, evaluate, rho1, validate_exact
from saddlecheck.candidate import (CandidateParams, coefficient_set, l_phi0,
                                   wedge_fields)
from saddlecheck.checks import run_inequality_suite, verify_supersolution
from saddlecheck.grid import build_grid
from saddlecheck.params import st_to_yz
from saddlecheck.rigor import (IntervalArray, builtin_expressions, claims,
                               prove_nonpositive)
from saddlecheck.scalars import (double_well, heteroclinic, hh_supersolution,
                                 rho)
from saddlecheck.spectral import assemble, min_eigenvalue

SQRT2 = np.sqrt(2.0)


def _line(num, name, passed, detail):
    flag = "pass" if passed else "FAIL"
    print(f"criterion-{num} {name}: {flag} ({detail})")
    assert passed, f"criterion-{num} {name}: {detail}"


def test_criterion_1_exact_solution_oracle():
    out = validate_exact(build_grid(12.0, 0.1))
    rate = out["rate"]
    _line(1, "exact-oracle-convergence", 1.8 <= rate <= 2.2,
          f"rate={rate:.3f}, residuals {out['residual_h']:.2e} -> "
          f"{out['residual_h_half']:.2e}")


def test_criterion_2_m1_sandwich(solved):
    sol = solved(1, 12.0, 0.05)
    S, T = sol.grid.meshgrid()
    y, z = st_to_yz(S, T)
    interior = sol.grid.mask_triangle & (S < 12.0) & (T < 12.0) & (S >= T)
    upper = np.asarray(hh_supersolution(y, z))
    lower = np.asarray(hh_supersolution(y / SQRT2, z / SQRT2))
    slack_up = float((sol.u - upper)[interior].max())
    slack_lo = float((lower - sol.u)[interior].max())
    _line(2, "m1-sandwich", slack_up <= 1e-3 and slack_lo <= 1e-3,
          f"upper excess {slack_up:+.2e}, lower excess {slack_lo:+.2e}, "
          f"slack 1e-3")


def test_criterion_3_near_origin_bound(solved):
    sol = solved(4, 12.0, 0.05)
    S, T = sol.grid.meshgrid()
    y, z = st_to_yz(S, T)
    near = (y <= 0.5) & (z <= 0.5) & (z >= 0.0)
    excess = float((sol.u - 0.434 * y * z)[near].max())
    _line(3, "near-origin-bound", excess <= 1e-3,
          f"max(u - 0.434 y z) = {excess:+.2e} over {int(near.sum())} nodes, "
          f"slack 1e-3")


def test_criterion_4_inequality_suite(solved):
    failed = []
    counts = {}
    for m in (4, 5, 6):
        reports = run_inequality_suite(solved(m, 12.0, 0.05))
        counts[m] = len(reports)
        failed += [f"m{m}:{r['id']}" for r in reports if not r["passed"]]
    _line(4, "inequality-suite", not failed and counts[4] == 29,
          f"29 checks x m=4,5,6, failures: {failed or 'none'}")


def test_criterion_5_supersolution_certificate(solved):
    worst = {}
    ok = True
    for n in (8, 10, 12):
        sol, cand = solved(n // 2, 20.0, 0.05), CandidateParams(n=n)
        rep = verify_supersolution(sol, cand)
        i, _, _, ph, _ = wedge_fields(sol, cand)
        worst[n] = (-rep["worst_margin"], float(ph[i < sol.grid.N].min()))
        ok &= rep["passed"]
    detail = ", ".join(f"n={n}: max LPhi={w:.1e}, min Phi={p:.1e}"
                       for n, (w, p) in worst.items())
    _line(5, "supersolution-core", ok, detail)


def test_criterion_6_ablation(solved):
    sol = solved(4, 30.0, 0.1)
    cand = CandidateParams(n=8)
    i, j, _, _, full = wedge_fields(sol, cand)
    inner = i < sol.grid.N
    i, j, full = i[inner], j[inner], full[inner]
    without = full - l_phi0(sol.grid.coords[i], sol.grid.coords[j],
                            sol.u[i, j], cand)
    worst = float(without.max())
    worst_full = float(full.max())
    _line(6, "ablation-phi0", worst > 0.0 and worst_full < 0.0,
          f"without corrector max LPhi={worst:+.2e} (> 0), "
          f"with corrector {worst_full:+.2e} (< 0)")


def test_criterion_7_rigor_proofs():
    cat = builtin_expressions(8)
    results = {label: prove_nonpositive(cat[key], **kwargs)
               for label, key, kwargs in claims(8)}
    ok = all(r.status == "proven" for r in results.values())
    detail = ", ".join(f"{k}: {v.status} ({v.boxes_examined} boxes)"
                       for k, v in results.items())
    _line(7, "interval-proofs", ok, detail)


def test_criterion_8_spectral_dichotomy(solved):
    lams = {m: min_eigenvalue(assemble(solved(m, 16.0, 0.1))).lambda_min
            for m in range(1, 7)}
    signs_ok = (all(lams[m] < -0.001 for m in (1, 2, 3))
                and all(lams[m] > -0.01 for m in (4, 5, 6)))
    asm = assemble(solved(2, 8.0, 0.2))
    sparse = min_eigenvalue(asm).lambda_min
    dense = dense_min_eigenvalue(asm)
    oracle_ok = abs(dense - sparse) <= 0.05 * abs(dense)
    detail = (", ".join(f"m={m}: {v:+.4f}" for m, v in lams.items())
              + f"; dense oracle {dense:+.6f} vs sparse {sparse:+.6f}")
    _line(8, "spectral-dichotomy", signs_ok and oracle_ok, detail)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(4242)
    # Modica identity for the heteroclinic profile
    x = rng.uniform(-10.0, 10.0, 10_000)
    hp = np.asarray(heteroclinic(x, 1))
    modica = float(np.max(np.abs(
        double_well(np.asarray(heteroclinic(x))) - 0.5 * hp * hp)))

    # ODE residuals of the two variation-of-parameters kernels on [0, 8]
    zg = np.linspace(0.005, 8.0, 1600)
    dz = zg[1] - zg[0]
    worst_ode = 0.0
    for which, forcing in ((rho, lambda v: np.asarray(heteroclinic(v, 1))),
                           (rho1, lambda v: v * np.asarray(heteroclinic(v, 1)))):
        r = which(zg)
        rpp = (-r[4:] + 16 * r[3:-1] - 30 * r[2:-2] + 16 * r[1:-3] - r[:-4]) \
            / (12 * dz * dz)
        h = np.asarray(heteroclinic(zg[2:-2]))
        res = -rpp + (3 * h * h - 1) * r[2:-2] - forcing(zg[2:-2])
        worst_ode = max(worst_ode, float(np.max(np.abs(res))))

    # coefficient swap identities at 1e4 random points
    t = rng.uniform(0.2, 10.0, 10_000)
    s = t + rng.uniform(0.05, 10.0, 10_000)
    ours = coefficient_set(s, t, CandidateParams(n=8))
    mirrored = coefficient_set(t, s, CandidateParams(n=8))
    scale = np.maximum(np.abs(ours.c_s), 1e-30)
    swap = max(float(np.max(np.abs(ours.c_t + mirrored.c_s) / scale)),
               float(np.max(np.abs(ours.c_tt + mirrored.c_ss))),
               float(np.max(np.abs(ours.c_st + mirrored.c_st))))

    # interval soundness: 1e5 random point-in-box falsification attempts
    cat = builtin_expressions(8)
    n_boxes, n_samples = 2000, 50
    a_lo = rng.uniform(0.01, 0.44, n_boxes)
    u_lo = rng.uniform(0.01, 11.5, n_boxes)
    z_lo = rng.uniform(0.01, 11.5, n_boxes)
    wa, wu, wz = (rng.uniform(1e-4, 0.01, n_boxes),
                  rng.uniform(1e-4, 0.4, n_boxes),
                  rng.uniform(1e-4, 0.4, n_boxes))
    env = {"a": IntervalArray.from_bounds(a_lo, a_lo + wa),
           "u": IntervalArray.from_bounds(u_lo, u_lo + wu),
           "z": IntervalArray.from_bounds(z_lo, z_lo + wz),
           "d": IntervalArray.point(np.full(n_boxes, 3.0))}
    iv = evaluate(cat["defect_gap"], env)
    pts = {nm: lo[:, None] + w[:, None] * rng.uniform(0, 1, (n_boxes, n_samples))
           for nm, lo, w in (("a", a_lo, wa), ("u", u_lo, wu), ("z", z_lo, wz))}
    pts["d"] = np.full((n_boxes, n_samples), 3.0)
    vals = evaluate(cat["defect_gap"], pts)
    violations = int(np.sum(~iv.bad[:, None]
                            & ((vals < iv.lo[:, None]) | (vals > iv.hi[:, None]))))

    ok = (modica < 1e-14 and worst_ode < 1e-6 and swap < 1e-10
          and violations == 0)
    _line(9, "property-suites", ok,
          f"modica={modica:.1e}, ode={worst_ode:.1e}, swap={swap:.1e}, "
          f"interval violations={violations}/100000")
