"""Inequality suite over solved fields: catalog integrity, pointwise
identities, tolerance model, and the supersolution condition."""

import json

import numpy as np
import pytest

from saddlecheck import checks
from saddlecheck.candidate import region_classify
from saddlecheck.checks import (_deficit_rho_constant, cone_interp,
                                run_inequality_suite, summary, tri_mask,
                                verify_supersolution)
from saddlecheck.grid import build_grid
from saddlecheck.rigor import DEFECT_A_MAX


def test_suite_all_pass_m4(sol_m4):
    reports = run_inequality_suite(sol_m4)
    assert len(reports) == 29
    assert len({r["id"] for r in reports}) == 29
    failures = [summary(r) for r in reports if not r["passed"]]
    assert failures == []
    for r in reports:
        assert r["nodes_checked"] > 0
        assert r["tolerance_used"] > 0.0


def test_suite_all_pass_other_dimensions(solved):
    for m in (5, 6):
        reports = run_inequality_suite(solved(m, 12.0, 0.05))
        assert all(r["passed"] for r in reports), \
            [r["id"] for r in reports if not r["passed"]]


def test_suite_holds_one_check_at_a_time(sol_m4):
    # the suite judges each check as it builds it and drops its one-shot
    # temporaries after it (about 24 fields at the peak): building all 29
    # margin and scale arrays before judging any peaks at about 91 fields,
    # and keeping every temporary to the end at about 42
    import tracemalloc

    tracemalloc.start()
    try:
        run_inequality_suite(sol_m4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * sol_m4.u.nbytes, peak / sol_m4.u.nbytes


def test_antisymmetric_combination_vanishes_on_diagonal(sol_m4):
    # t u_s + s u_t = 0 exactly on s = t (the field is odd across the cone)
    S, T = sol_m4.grid.meshgrid()
    k = np.arange(sol_m4.grid.N + 1)
    diag = (T * sol_m4.u_s + S * sol_m4.u_t)[k, k]
    assert np.max(np.abs(diag)) < 1e-13


def test_subsolution_check_names_its_basis(solved):
    # check 28 compares u with H(0.45y)H(0.45z); at n = 12 the proven
    # a-range of the defect claim stops below 0.45, so it is a grid check
    descs = {}
    for m in (4, 5, 6):
        [rep] = [r for r in run_inequality_suite(solved(m, 12.0, 0.05))
                 if r["id"] == "28-subsolution"]
        assert rep["passed"]
        descs[m] = rep["description"]
    assert descs[4] == descs[5] == "u - H(0.45y)H(0.45z) >= 0"
    assert DEFECT_A_MAX[12] < 0.45
    assert descs[6].startswith(descs[4] + " (grid check only")
    assert f"a <= {DEFECT_A_MAX[12]:g}" in descs[6]


def test_energy_bound_worst_sits_on_axis_edge(sol_m4):
    # the Modica margin is tightest near the t = 0 axis where the solution
    # is closest to the one-dimensional profile
    rep = next(r for r in run_inequality_suite(sol_m4)
               if r["id"] == "01-modica")
    assert rep["passed"]
    s_w, t_w = rep["worst_point"]
    assert t_w < 0.5
    assert rep["worst_margin"] > 0.0


def test_monotone_energy_margin_is_sum_of_product_margins(sol_m4):
    # d(u^2 + 2u_s)/dz = (u_s u + u_ss) + (-u_t u - u_st): the margin of the
    # energy-monotonicity check is exactly the sum of the two product checks
    u, us, ut = sol_m4.u, sol_m4.u_s, sol_m4.u_t
    uss, ust = sol_m4.u_ss, sol_m4.u_st
    lhs = us * u - ut * u + uss - ust
    rhs = (us * u + uss) + (-ut * u - ust)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-15)


def test_margins_decay_outward(sol_m4):
    # the convexity-combination margins shrink toward zero with distance
    # from the cone vertex but stay strictly positive on both bands
    from saddlecheck.checks import _build_suite

    S, T = sol_m4.grid.meshgrid()
    picked = 0
    for cid, _, margin, _, mask in _build_suite(sol_m4):
        if cid not in ("11-2us-ust-uss", "23-st-tt", "24-us-ut-ust"):
            continue
        picked += 1
        inner = margin[mask & (S >= 2) & (S <= 4)].min()
        outer = margin[mask & (S >= 6) & (S <= 8)].min()
        assert 0.0 < outer < inner
    assert picked == 3


def test_tri_mask_geometry():
    grid = build_grid(8.0, 0.2)
    m = tri_mask(grid, cone=2, axis=2, outer=1.0)
    i, j = np.where(m)
    assert np.all(i - j >= 2)
    assert np.all(j >= 2)
    assert np.all(i <= grid.N - 3)
    with_diag = tri_mask(grid, cone=0, axis=1, outer=1.0)
    assert with_diag[3, 3]
    assert not m[3, 3]


def test_cone_interp_exact_on_linear_field(sol_m4_coarse):
    S, T = sol_m4_coarse.grid.meshgrid()
    F = S + T
    got = cone_interp(sol_m4_coarse, F)
    assert np.allclose(got, S + T, rtol=0.0, atol=1e-12)


def test_verify_supersolution_coarse(sol_m4_coarse):
    rep = verify_supersolution(sol_m4_coarse)
    assert isinstance(rep, dict)
    assert rep["passed"]
    assert rep["tolerance_used"] == 0.0
    assert rep["description"] == "L Phi < 0 and Phi > 0 at interior nodes"
    # every region of the interior holds nodes, and L Phi < 0 on each
    i, j, _, ph, lp = checks.wedge_fields(sol_m4_coarse)
    inner = i < sol_m4_coarse.grid.N
    i, j, ph, lp = i[inner], j[inner], ph[inner], lp[inner]
    assert ph.min() > 0.0
    regions = region_classify(sol_m4_coarse.grid.coords[i],
                              sol_m4_coarse.grid.coords[j])
    for rid in (1, 2, 3):
        assert (regions == rid).any()
        assert lp[regions == rid].max() < 0.0


def test_check_entries_are_plain_json_values(sol_m4_coarse):
    # report.json and the certificate read the entries as they are built
    keys = {"id", "description", "passed", "worst_margin", "worst_point",
            "nodes_checked", "nodes_excluded", "tolerance_used"}
    entries = run_inequality_suite(sol_m4_coarse) + [
        verify_supersolution(sol_m4_coarse)]
    assert len(entries) == 30
    for e in entries:
        assert set(e) == keys
        assert type(e["passed"]) is bool
        assert type(e["worst_margin"]) is float
        assert type(e["tolerance_used"]) is float
        assert type(e["nodes_checked"]) is int
        assert type(e["nodes_excluded"]) is int
        assert all(type(x) is float for x in e["worst_point"])
        assert json.loads(json.dumps(e)) == e


def test_summary_is_the_log_line():
    entry = {"id": "07-x", "description": "", "passed": False,
             "worst_margin": -1e-3, "worst_point": [1.5, 0.25],
             "nodes_checked": 7, "nodes_excluded": 2, "tolerance_used": 0.0}
    assert summary(entry) == ("[FAIL] 07-x: worst -1.000e-03 (tol 0.0e+00) "
                              "at (1.5, 0.25), 7 nodes")


def test_supersolution_gate_has_no_tolerance(sol_m4_coarse, monkeypatch):
    # L Phi = +5e-9 at one interior node fails the check: the gate is
    # L Phi < 0 itself, not L Phi <= some tolerance of that size
    fields = checks.wedge_fields

    def positive_at_worst(sol):
        i, j, cs, ph, lp = fields(sol)
        lp = lp.copy()
        inner = np.flatnonzero(i < sol.grid.N)
        k = inner[np.argmax(lp[inner])]
        assert lp[k] < 0.0
        lp[k] = 5e-9
        return i, j, cs, ph, lp

    monkeypatch.setattr(checks, "wedge_fields", positive_at_worst)
    rep = verify_supersolution(sol_m4_coarse)
    assert not rep["passed"]
    assert rep["worst_margin"] == -5e-9
    i, _, _, ph, _ = checks.wedge_fields(sol_m4_coarse)
    assert ph[i < sol_m4_coarse.grid.N].min() > 0.0


def test_weighted_deficit_constant():
    assert _deficit_rho_constant() == pytest.approx(5.192266261051069, rel=1e-12)
