"""Generalized eigenvalue pencil of the linearized quadratic form and the
certified bracket of its eigensolve."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import (dense_eigenvalues, dense_min_eigenvalue,
                     even_sector_values, rayleigh_quotient)
from saddlecheck import spectral
from saddlecheck.spectral import (EIG_SIGMA, SHIFT_GAP, MMatrixError,
                                  assemble, min_eigenvalue)
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
        assert est.shift < est.lower, (m, est)
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
    # the premise of the bracket: off-diagonals <= 0, on the pencil and on
    # its coarse level
    for m in range(1, 7):
        asm = assemble(solved(m, 12.0, 0.1))
        for pencil in (asm, asm.coarse):
            K = pencil.stiffness
            assert (K - sp.diags(K.diagonal())).max() <= 0.0, m


@pytest.mark.parametrize("broken, message", [
    ("one-entry", "K is not symmetric"),
    ("symmetric-pair", "K has a positive off-diagonal entry"),
    ("zero-mass", "B has a diagonal entry that is not positive"),
], ids=["one-entry", "symmetric-pair", "zero-mass"])
def test_min_eigenvalue_checks_the_bracket_premises(solved, broken, message):
    # the Collatz-Wielandt bound rests on K being a symmetric Z-matrix and B
    # a positive diagonal: flipping the sign of one off-diagonal entry
    # breaks the symmetry, flipping it and its mirror the sign pattern, and
    # one zero mass entry the diagonal
    asm = assemble(solved(4, 8.0, 0.2))
    if broken == "zero-mass":
        b = asm.mass.diagonal().copy()
        b[asm.n_dof // 2] = 0.0
        asm = dataclasses.replace(asm, mass=sp.diags(b))
    else:
        K = asm.stiffness.copy()
        rows = np.repeat(np.arange(asm.n_dof), np.diff(K.indptr))
        k = np.flatnonzero(rows != K.indices)[0]
        i, j = rows[k], K.indices[k]
        K[i, j] = -K[i, j]
        if broken == "symmetric-pair":
            K[j, i] = -K[j, i]
        asm = dataclasses.replace(asm, stiffness=K)
    with pytest.raises(MMatrixError, match=message):
        min_eigenvalue(asm)


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
def test_near_shift_agrees_with_eig_sigma_and_dense(solved, monkeypatch, m):
    asm = assemble(solved(m, 8.0, 0.1))
    assert asm.n_dof == 3240 and asm.coarse is not None
    near = min_eigenvalue(asm)
    # with no coarse level the shift starts at EIG_SIGMA and moves up; an
    # infinite SHIFT_GAP holds it there
    moved = min_eigenvalue(dataclasses.replace(asm, coarse=None))
    monkeypatch.setattr(spectral, "SHIFT_GAP", np.inf)
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
    # there takes over 1000 solves, the moving one 59
    est = min_eigenvalue(assemble(solved(4, 40.0, 0.2)))
    assert est.shift > EIG_SIGMA
    assert est.iterations <= 100
    _assert_tight(est)


def _held_at(monkeypatch, sigma):
    """min_eigenvalue on a pencil with no coarse level starts at sigma and,
    with SHIFT_GAP infinite, stays there."""
    monkeypatch.setattr(spectral, "EIG_SIGMA", sigma)
    monkeypatch.setattr(spectral, "SHIFT_GAP", np.inf)


def test_shift_above_lambda_min_bounds_nothing(solved, monkeypatch):
    # a quarter of the way from lambda_1 to lambda_2, K - sigma B is no
    # M-matrix, yet the iterate stays positive; its bracket holds lambda_1
    # but its lower end (about -267) lies below sigma, so it bounds nothing
    # useful, and min_eigenvalue refuses it, naming both numbers
    asm = assemble(solved(4, 8.0, 0.2))
    lam = dense_eigenvalues(asm, 2)
    sigma = lam[0] + 0.25 * (lam[1] - lam[0])
    _held_at(monkeypatch, sigma)
    with pytest.raises(MMatrixError) as err:
        min_eigenvalue(asm)
    lower, shift = map(float, re.fullmatch(
        r"the rounded lower end (\S+) is not above the last shift "
        r"sigma = (\S+)", str(err.value)).groups())
    assert lower <= lam[0] < shift == sigma


def test_last_iterate_not_positive_is_refused(solved, monkeypatch):
    # three quarters of the way from lambda_1 to lambda_2 the iteration
    # settles on the second, sign-changing mode: its iterate gives no
    # Collatz-Wielandt bound, and min_eigenvalue refuses
    asm = assemble(solved(4, 8.0, 0.2))
    lam = dense_eigenvalues(asm, 2)
    _held_at(monkeypatch, lam[0] + 0.75 * (lam[1] - lam[0]))
    with pytest.raises(MMatrixError, match=r"^the last iterate is not "
                                           r"positive \(sigma = "):
        min_eigenvalue(asm)


# LUs per pencil by its dofs: 1 + its moves of the shift
@pytest.mark.parametrize("R, h, lus", [
    (8.0, 0.1, {820: 6, 3240: 1}),
    (40.0, 0.2, {20100: 8}),
], ids=["R8-h.1", "R40-h.2"])
def test_one_lu_alive_at_a_time(solved, monkeypatch, R, h, lus):
    # each pencil gets one LU at its first shift and one per move of the
    # shift, each move more than SHIFT_GAP up, the last at est.shift; the
    # LU is released before the next is made and before the bracket.  R8
    # h.1 has a coarse level, whose shift the fine pencil starts SHIFT_GAP
    # under; R40 h.2 has none, and its shift moves up from EIG_SIGMA
    asm = assemble(solved(4, R, h))
    pencils = [p for p in (asm.coarse, asm) if p is not None]
    first = [EIG_SIGMA if p.coarse is None
             else min_eigenvalue(p.coarse).lambda_min - SHIFT_GAP
             for p in pencils]
    splu, alive, made = spla.splu, [0], []

    class Counted:
        def __init__(self, A, **kwargs):
            assert alive[0] == 0, "a second LU while one is alive"
            alive[0] += 1
            made.append(A)
            self.lu = splu(A, **kwargs)

        def solve(self, rhs):
            return self.lu.solve(rhs)

        def __del__(self):
            alive[0] -= 1

    monkeypatch.setattr(spla, "splu", Counted)
    est = min_eigenvalue(asm)
    assert alive[0] == 0
    for pencil, start in zip(pencils, first):
        K, b = pencil.stiffness, pencil.mass.diagonal()
        shifts = [float(np.median((K.diagonal() - A.diagonal()) / b))
                  for A in made if A.shape == K.shape]
        assert shifts[0] == pytest.approx(start, abs=1e-9)
        assert np.all(np.diff(shifts) > SHIFT_GAP), shifts
        assert len(shifts) == lus[pencil.n_dof], (pencil.n_dof, shifts)
    assert shifts[-1] == pytest.approx(est.shift, abs=1e-9)
    assert len(made) == sum(lus.values())
