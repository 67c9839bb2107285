"""Generalized eigenvalue pencil of the linearized quadratic form and the
certified shift and bracket of its eigensolve."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import dense_min_eigenvalue, even_sector_values, rayleigh_quotient
from saddlecheck import spectral
from saddlecheck.spectral import (EIG_SIGMA, SHIFT_GAP, MMatrixError,
                                  assemble, certify_shift, min_eigenvalue)
from saddlecheck.solver import weighted_form


def _assert_tight(est, rel=1e-5):
    """The bracket [lower, lambda_min] is within rel of lambda_min."""
    assert est.lower <= est.lambda_min
    assert est.lambda_min - est.lower <= rel * abs(est.lambda_min), est


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
        assert np.sign(est.lower) == sign, (m, est.lower)
        _assert_tight(est)


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


@pytest.mark.parametrize("pair, message", [
    (False, "K is not symmetric"),
    (True, "K has a positive off-diagonal entry"),
], ids=["one-entry", "symmetric-pair"])
def test_certify_shift_checks_the_z_matrix_premise(solved, pair, message):
    # the M-matrix certificate and the Collatz-Wielandt bound both rest on
    # K being a symmetric Z-matrix: flipping the sign of one off-diagonal
    # entry breaks the symmetry, flipping it and its mirror the sign pattern
    asm = assemble(solved(4, 8.0, 0.2))
    K = asm.stiffness.copy()
    rows = np.repeat(np.arange(asm.n_dof), np.diff(K.indptr))
    k = np.flatnonzero(rows != K.indices)[0]
    i, j = rows[k], K.indices[k]
    K[i, j] = -K[i, j]
    if pair:
        K[j, i] = -K[j, i]
    broken = dataclasses.replace(asm, stiffness=K)
    with pytest.raises(MMatrixError, match=message):
        certify_shift(broken, EIG_SIGMA)
    with pytest.raises(MMatrixError, match=message):
        min_eigenvalue(broken)


def _exact_ends(asm, v):
    """min_i (Kv)_i / (Bv)_i and v.Kv / v.Bv in exact rational arithmetic,
    from K's CSR entries, B's diagonal and the floats v."""
    K, b = asm.stiffness, asm.mass.diagonal()
    v = [Fraction(x) for x in v]
    kv = [sum((Fraction(K.data[k]) * v[K.indices[k]]
               for k in range(K.indptr[i], K.indptr[i + 1])), Fraction(0))
          for i in range(asm.n_dof)]
    bv = [Fraction(b[i]) * v[i] for i in range(asm.n_dof)]
    vkv = sum(x * y for x, y in zip(v, kv))
    vbv = sum(x * y for x, y in zip(v, bv))
    return min(p / q for p, q in zip(kv, bv)), vkv / vbv


@pytest.mark.parametrize("m", [2, 4])
def test_bracket_rounds_outward_of_exact_arithmetic(solved, m):
    # lower lies below the exact Collatz-Wielandt minimum of the returned
    # vector and lambda_min above its exact Rayleigh quotient, and the
    # bracket holds the dense LAPACK eigenvalue
    asm = assemble(solved(m, 8.0, 0.2))
    est = min_eigenvalue(asm)
    ratio, rayleigh = _exact_ends(asm, est.vector)
    assert est.shift < est.lower <= ratio
    assert est.lambda_min >= rayleigh
    assert est.lower <= dense_min_eigenvalue(asm) <= est.lambda_min
    # so do both ends for perturbed positive vectors, whichever way the
    # plain float sums happen to round
    b = asm.mass.diagonal()
    rng = np.random.default_rng(m)
    for v in rng.uniform(0.9, 1.0, (6, asm.n_dof)) * est.vector:
        lower, upper = spectral._bracket(asm.stiffness, b, v)
        ratio, rayleigh = _exact_ends(asm, v)
        assert lower <= ratio and upper >= rayleigh


@pytest.mark.parametrize("m", [2, 4])
def test_shift_certificate_brackets_the_eigenvalue(solved, m):
    asm = assemble(solved(m, 8.0, 0.2))
    lam = min_eigenvalue(asm).lambda_min
    assert certify_shift(asm, lam - 1e-3) is not None
    assert certify_shift(asm, lam + 1e-3) is None


def _only_eig_sigma(monkeypatch, pencil=None):
    """certify_shift rejects every shift but EIG_SIGMA, on `pencil` or, if
    None, on every pencil; returns the list of shifts it was asked for."""
    shifts = []

    def reject_near(asm, sigma):
        if pencil is not None and asm is not pencil:
            return certify_shift(asm, sigma)
        shifts.append(sigma)
        return certify_shift(asm, sigma) if sigma == EIG_SIGMA else None

    monkeypatch.setattr(spectral, "certify_shift", reject_near)
    return shifts


def test_rejected_near_shift_falls_back_to_eig_sigma(solved, monkeypatch):
    asm = assemble(solved(4, 8.0, 0.1))
    near = min_eigenvalue(asm)
    assert near.shift > EIG_SIGMA
    shifts = _only_eig_sigma(monkeypatch, asm)
    far = min_eigenvalue(asm)
    # the rejected near shift, the fallback, then the rejected moves of the
    # shift to SHIFT_GAP under the Collatz-Wielandt bound
    assert shifts[:2] == [near.shift, EIG_SIGMA]
    assert all(s > EIG_SIGMA + SHIFT_GAP for s in shifts[2:])
    assert far.shift == EIG_SIGMA
    assert far.lambda_min == pytest.approx(near.lambda_min, rel=1e-12)
    _assert_tight(near)
    _assert_tight(far)


@pytest.mark.parametrize("m", [2, 4])
def test_near_shift_agrees_with_eig_sigma_and_dense(solved, monkeypatch, m):
    asm = assemble(solved(m, 8.0, 0.1))
    assert asm.n_dof == 3240 and asm.coarse is not None
    near = min_eigenvalue(asm)
    # with no coarse level the shift starts at EIG_SIGMA and moves up
    moved = min_eigenvalue(dataclasses.replace(asm, coarse=None))
    _only_eig_sigma(monkeypatch)
    far = min_eigenvalue(dataclasses.replace(asm, coarse=None))
    assert EIG_SIGMA == far.shift < near.shift < near.lower
    assert EIG_SIGMA + SHIFT_GAP < moved.shift < moved.lower
    assert near.lambda_min == pytest.approx(far.lambda_min, rel=1e-12)
    assert near.lambda_min == pytest.approx(moved.lambda_min, rel=1e-12)
    dense = dense_min_eigenvalue(asm)
    assert dense == pytest.approx(near.lambda_min, abs=1e-9)
    for est in (near, moved, far):
        assert est.lower <= dense <= est.lambda_min


def test_near_shift_cuts_the_solve_count(sol_m4):
    # held at EIG_SIGMA this pencil takes 198 solves
    est = min_eigenvalue(assemble(sol_m4))
    assert est.shift > EIG_SIGMA
    assert est.iterations <= 10
    _assert_tight(est)


def test_moving_shift_settles_on_a_large_domain(solved):
    # on R40 h.2, the coarsest pencil of R40 h.1, EIG_SIGMA is 1.05 under
    # an eigenvalue whose gap to the next is about 0.003: a fixed shift
    # there takes over 1000 solves, the moving one 66
    est = min_eigenvalue(assemble(solved(4, 40.0, 0.2)))
    assert est.shift > EIG_SIGMA
    assert est.iterations <= 100
    _assert_tight(est)


def test_bracket_not_above_the_shift_is_refused(solved, monkeypatch):
    # lower is the Collatz-Wielandt bound itself, never the shift: a last
    # iterate that is not positive gives none, and min_eigenvalue refuses
    asm = assemble(solved(4, 8.0, 0.2))
    v = min_eigenvalue(asm).vector.copy()
    v[0] = 0.0
    lower, upper = spectral._bracket(asm.stiffness, asm.mass.diagonal(), v)
    assert lower == -np.inf and np.isfinite(upper)
    monkeypatch.setattr(spectral, "_bracket", lambda K, b, v: (lower, upper))
    with pytest.raises(MMatrixError, match="Collatz-Wielandt bound -inf"):
        min_eigenvalue(asm)

