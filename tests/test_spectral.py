"""Generalized eigenvalue pencil of the linearized quadratic form, the
certified shift of its eigensolve, and the stability certificate built on the
verification reports."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import saddlecheck
from oracles import dense_min_eigenvalue, even_sector_values, rayleigh_quotient
from saddlecheck import spectral
from saddlecheck.checks import run_inequality_suite, verify_supersolution
from saddlecheck.spectral import (EIG_SIGMA, CertificateError, assemble,
                                  certify_shift, min_eigenvalue,
                                  report_digest, stability_certificate)
from saddlecheck.solver import weighted_form


def test_stiffness_symmetric_and_mass_positive(sol_m4_coarse):
    asm = assemble(sol_m4_coarse)
    K = asm.stiffness
    assert abs(K - K.T).max() == 0.0
    assert np.all(asm.mass.diagonal() > 0.0)
    grid = sol_m4_coarse.grid
    assert asm.n_dof == int(grid.mask_triangle[:grid.N].sum())


def test_eigenvalue_signs_by_dimension(solved):
    # instability for m <= 3, positivity for m >= 4
    expected_sign = {1: -1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1}
    for m, sign in expected_sign.items():
        est = min_eigenvalue(assemble(solved(m, 12.0, 0.1)))
        assert np.sign(est.lambda_min) == sign, (m, est.lambda_min)
        assert est.residual < 1e-10


def test_dense_oracle_agrees_with_sparse(solved):
    asm = assemble(solved(2, 8.0, 0.2))
    sparse = min_eigenvalue(asm)
    dense = dense_min_eigenvalue(asm)
    assert dense == pytest.approx(sparse.lambda_min, rel=5e-2)
    # on this coarse grid the agreement is in fact much tighter
    assert dense == pytest.approx(sparse.lambda_min, abs=1e-9)


def test_eigenvalue_decreases_with_domain_size(solved):
    # Dirichlet truncation: enlarging the domain can only lower the minimum
    lams = [min_eigenvalue(assemble(solved(2, R, 0.1))).lambda_min
            for R in (8.0, 12.0, 16.0)]
    assert lams[0] > lams[1] > lams[2]
    # and the sequence is settling (truncation error decays)
    assert abs(lams[2] - lams[1]) < abs(lams[1] - lams[0])


def test_eigenvalue_h_refinement(solved):
    # m = 2: coarse and fine estimates within 10%
    coarse = min_eigenvalue(assemble(solved(2, 12.0, 0.1))).lambda_min
    fine = min_eigenvalue(assemble(solved(2, 12.0, 0.05))).lambda_min
    assert coarse == pytest.approx(fine, rel=0.1)


def test_rayleigh_quotient_upper_bounds(sol_m4_coarse):
    asm = assemble(sol_m4_coarse)
    est = min_eigenvalue(asm)
    # any test field gives an upper bound for lambda_min
    rq = rayleigh_quotient(asm, even_sector_values(
        sol_m4_coarse.grid, sol_m4_coarse.u_s + sol_m4_coarse.u_t))
    assert rq >= est.lambda_min
    # the eigenvector itself reproduces the eigenvalue
    rq_min = rayleigh_quotient(asm, est.vector)
    assert rq_min == pytest.approx(est.lambda_min, rel=1e-8)


def test_even_sector_holds_full_quadrant_minimum(solved):
    # the s <-> t mirror splits the full-quadrant pencil into an even and an
    # odd sector; the odd one (zero on the cone) must lie above the even one
    for m in range(1, 7):
        sol = solved(m, 12.0, 0.1)
        grid = sol.grid
        K, V = weighted_form(m, grid)
        flat = grid.ii * (grid.N + 1) + grid.jj
        vol = V[grid.ii, grid.jj]
        u = sol.u[grid.ii, grid.jj]
        odd = spla.eigsh(K[flat][:, flat] + sp.diags(vol * (3.0 * u**2 - 1.0)),
                         k=1, M=sp.diags(vol), sigma=-1.05, which="LM",
                         v0=np.ones(flat.size), tol=1e-10)[0][0]
        even = min_eigenvalue(assemble(sol)).lambda_min
        assert odd > even, (m, odd, even)


def test_eigensolver_reports_its_solve_count(sol_m4_coarse):
    est = min_eigenvalue(assemble(sol_m4_coarse))
    assert est.iterations > 1


def test_stiffness_is_a_z_matrix(solved):
    # the premise of the shift certificate: off-diagonals <= 0, on the
    # pencil and on its coarse level
    for m in range(1, 7):
        asm = assemble(solved(m, 12.0, 0.1))
        for pencil in (asm, asm.coarse):
            K = pencil.stiffness
            assert (K - sp.diags(K.diagonal())).max() <= 0.0, m


@pytest.mark.parametrize("m", [2, 4])
def test_shift_certificate_brackets_the_eigenvalue(solved, m):
    asm = assemble(solved(m, 8.0, 0.2))
    lam = min_eigenvalue(asm).lambda_min
    assert certify_shift(asm, lam - 1e-3) is not None
    assert certify_shift(asm, lam + 1e-3) is None


def test_rejected_near_shift_falls_back_to_eig_sigma(solved, monkeypatch):
    asm = assemble(solved(4, 8.0, 0.1))
    near = min_eigenvalue(asm)
    assert near.shift > EIG_SIGMA
    shifts = []

    def reject_near(asm, sigma):
        shifts.append(sigma)
        return certify_shift(asm, sigma) if sigma == EIG_SIGMA else None

    monkeypatch.setattr(spectral, "certify_shift", reject_near)
    far = min_eigenvalue(asm)
    # the coarse estimate, the rejected near shift, then the fallback
    assert shifts == [EIG_SIGMA, near.shift, EIG_SIGMA]
    assert far.shift == EIG_SIGMA
    assert far.lambda_min == pytest.approx(near.lambda_min, rel=1e-12)
    assert far.residual < 1e-10


@pytest.mark.parametrize("m", [2, 4])
def test_near_shift_agrees_with_eig_sigma_and_dense(solved, m):
    asm = assemble(solved(m, 8.0, 0.1))
    assert asm.n_dof == 3240 and asm.coarse is not None
    near = min_eigenvalue(asm)
    far = min_eigenvalue(dataclasses.replace(asm, coarse=None))
    assert EIG_SIGMA == far.shift < near.shift < near.lambda_min
    assert near.lambda_min == pytest.approx(far.lambda_min, rel=1e-12)
    assert dense_min_eigenvalue(asm) == pytest.approx(near.lambda_min,
                                                      abs=1e-9)


def test_near_shift_cuts_the_solve_count(sol_m4):
    # at EIG_SIGMA this pencil takes 21 solves
    est = min_eigenvalue(assemble(sol_m4))
    assert est.shift > EIG_SIGMA
    assert est.iterations <= 10
    assert est.residual < 1e-10


def test_certificate_roundtrip_and_refusals(sol_m4_coarse):
    sup = verify_supersolution(sol_m4_coarse)
    suite = run_inequality_suite(sol_m4_coarse)
    reports = [sup] + suite
    cert = stability_certificate(sol_m4_coarse, reports)
    assert cert["schema"] == "stability-certificate/1"
    assert cert["n"] == 8 and cert["m"] == 4
    assert cert["conclusion"] == "stable"
    assert cert["report_ids"][0] == sup["id"]
    assert len(cert["report_sha256"]) == len(reports)
    assert cert["package_version"] == saddlecheck.__version__
    assert sorted(cert) == ["basis", "conclusion", "grid", "m", "n",
                            "package_version", "report_ids",
                            "report_sha256", "schema", "solution_sha256"]

    # failed prerequisite
    failed = dict(sup, passed=False)
    with pytest.raises(CertificateError):
        stability_certificate(sol_m4_coarse, [failed] + suite)

    # missing supersolution report
    with pytest.raises(CertificateError):
        stability_certificate(sol_m4_coarse, suite)

    # empty report list
    with pytest.raises(CertificateError):
        stability_certificate(sol_m4_coarse, [])


def test_certificate_dimension_mismatch(sol_m4_coarse):
    # every check passes, but the supersolution entry is n = 10's: it does
    # not certify the m = 4 (n = 8) solution
    sup = verify_supersolution(sol_m4_coarse)
    assert sup["id"] == "supersolution-n8"
    checks = run_inequality_suite(sol_m4_coarse) + [
        dict(sup, id="supersolution-n10")]
    assert all(c["passed"] for c in checks)
    with pytest.raises(CertificateError, match="missing supersolution-n8"):
        stability_certificate(sol_m4_coarse, checks)


def test_report_digest_refuses_a_value_that_is_not_json(sol_m4_coarse):
    # a numpy scalar is not a JSON value: hashing its str would let two
    # entries that report.json writes alike hash apart, or the reverse
    entry = verify_supersolution(sol_m4_coarse)
    report_digest(entry)
    with pytest.raises(TypeError):
        report_digest(dict(entry, nodes_checked=np.int64(entry["nodes_checked"])))
