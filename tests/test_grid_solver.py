"""Grid construction and the damped Newton solver."""

import dataclasses
import gc
import hashlib
from math import inf, nan

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import residual_yz_form, sine_gordon_saddle, weighted_residual
from saddlecheck import solver
from saddlecheck.grid import N_MAX, build_grid, grid_size
from saddlecheck.scalars import hh_supersolution, st_to_yz
from saddlecheck.solver import (NEWTON_TOL, NewtonError, _lu_solve, _newton,
                                impose_boundary, initial_guess, newton_solve,
                                weighted_form)
from saddlecheck.spectral import assemble, min_eigenvalue


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(12.0, 0.3)          # spacing too coarse
    with pytest.raises(ValueError):
        build_grid(4.0, 0.1)           # radius too small
    with pytest.raises(ValueError):
        build_grid(12.0, 0.07)         # R/h not an integer
    # a NaN fails every comparison and an infinite R/h has no integer
    # value: each is refused by name, not by a failed int conversion
    for R, h, message in [(inf, 0.1, "got R=inf"), (nan, 0.1, "got R=nan"),
                          (12.0, nan, "got h=nan"), (12.0, inf, "got h=inf")]:
        with pytest.raises(ValueError, match=message):
            build_grid(R, h)
    # a grid above N_MAX is refused before its masks are allocated (at
    # R = 1e6, h = 0.2 they would take 22.7 TiB), and so is an R/h that
    # overflows to inf
    for R, h in [(1e6, 0.2), (1e10, 1e-300)]:
        with pytest.raises(ValueError, match=rf"R/h must be at most "
                                             rf"{N_MAX}, got R={R}, h={h}"):
            build_grid(R, h)
    assert grid_size(N_MAX * 0.002, 0.002) == N_MAX


def test_node_classification():
    g = build_grid(12.0, 0.1)
    assert g.N == 120
    unknown = np.zeros((g.N + 1, g.N + 1), dtype=bool)
    unknown[g.ii, g.jj] = True
    assert not np.any(unknown & ~g.mask_triangle)
    # diagonal and outer edge are fixed; axis and interior are unknowns
    assert not np.any(unknown.diagonal())
    assert not np.any(unknown[g.N])
    assert unknown[5, 0] and unknown[5, 3]
    assert np.array_equal(unknown[:g.N, 0], np.arange(g.N) > 0)
    assert g.n_unknowns == g.ii.size == g.N * (g.N - 1) // 2
    # the triangle less its diagonal and outer edge, numbered row by row
    rest = g.mask_triangle.copy()
    np.fill_diagonal(rest, False)
    rest[g.N] = False
    assert np.array_equal(g.ii * (g.N + 1) + g.jj, np.flatnonzero(rest))


def test_node_list_is_the_checked_triangle_row_by_row():
    # the pointwise checks read the nodes 0 < t <= s <= R, numbered row by
    # row as in the full quadrant, so the first of equal margins is the
    # same node in either
    g = build_grid(12.0, 0.1)
    listed = g.mask_triangle.copy()
    listed[:, 0] = False
    i, j = g.nodes
    assert np.array_equal(i * (g.N + 1) + j, np.flatnonzero(listed))
    assert i.size == g.N * (g.N + 1) // 2
    # the nodes of the 2h grid are the even nodes of the list, in order
    ci, cj = build_grid(12.0, 0.2).nodes
    even = (i % 2 == 0) & (j % 2 == 0)
    assert np.array_equal(i[even], 2 * ci)
    assert np.array_equal(j[even], 2 * cj)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_weighted_operator_rate_on_manufactured_field(m):
    # the sine-Gordon oracle runs at m = 1, where the (s t)^(m-1) weights
    # are trivial; cos s cos t checks them at higher m
    def max_error(h):
        g = build_grid(12.0, h)
        S, T = g.meshgrid()
        res = weighted_residual(np.cos(S) * np.cos(T), m, g,
                                nonlinearity=lambda u: 0 * u)
        s, t = S[g.ii, g.jj], T[g.ii, g.jj]
        sinc_t = np.sinc(t / np.pi)     # sin t / t, 1 on the axis
        exact = (2.0 * np.cos(s) * np.cos(t)
                 + (m - 1) * (np.sin(s) / s * np.cos(t) + np.cos(s) * sinc_t))
        return float(np.abs(res - exact).max())

    rate = np.log2(max_error(0.1) / max_error(0.05))
    assert 1.8 <= rate <= 2.2, rate


def test_sine_gordon_vanishes_on_cone():
    s = np.linspace(0.0, 10.0, 50)
    assert np.allclose(sine_gordon_saddle(s, s), 0.0, atol=1e-12)


def test_newton_converges_and_is_deterministic(solved):
    sol = solved(4, 12.0, 0.1)
    assert sol.residual_norm < NEWTON_TOL
    again = newton_solve(4, build_grid(12.0, 0.1))
    assert np.array_equal(sol.u, again.u)
    # two refined levels of two-grid CG: the same bits and iterations
    sol = solved(4, 12.0, 0.05)
    again = newton_solve(4, build_grid(12.0, 0.05))
    assert sol.u.tobytes() == again.u.tobytes()
    assert sol.cg_iters == again.cg_iters
    assert [h for h, _ in sol.cg_iters] == [0.05, 0.1]
    # the counts of scipy's cg, whose stopping rule the loop keeps
    assert sol.cg_iters == ((0.05, (10, 10)), (0.1, (10, 10)))


def test_solution_shape_and_bounds(sol_m4_coarse):
    sol = sol_m4_coarse
    u = sol.u
    tri = sol.grid.mask_triangle
    S, T = sol.grid.meshgrid()
    assert np.all(u[tri & (S > T)] > 0.0)
    assert np.all(u <= 1.0)
    # odd reflection across the cone
    assert np.array_equal(u, -u.T)
    # below the product supersolution
    y, z = st_to_yz(S, T)
    assert np.all(u[tri] <= np.asarray(hh_supersolution(y, z))[tri] + 1e-12)


def test_impose_boundary_idempotent(sol_m4_coarse):
    g = sol_m4_coarse.grid
    once = impose_boundary(sol_m4_coarse.u, g)
    assert np.array_equal(once, impose_boundary(once, g))


def test_derivative_fields_consistent(sol_m4_coarse):
    sol = sol_m4_coarse
    # rotated first derivatives agree with the chain rule away from edges
    inner = np.zeros_like(sol.u, dtype=bool)
    inner[2:-3, 2:-3] = True    # not within 2h of s = R or t = R
    inner &= sol.grid.mask_triangle
    lhs = sol.u_y[inner]
    rhs = (sol.u_s[inner] + sol.u_t[inner]) / np.sqrt(2.0)
    assert np.max(np.abs(lhs - rhs)) < 5e-3   # both second order, offset grids
    # second derivatives symmetric in the mixed partial: u_st == u_ts by
    # construction of the cross stencil
    assert np.all(np.isfinite(sol.u_st[inner]))


# sha256 of each derivative field at m = 4, R = 8, h = 0.2: the stencils are
# elementwise numpy arithmetic, so their bits follow from the field's
DERIVATIVE_SHA256 = {
    "u_s": "4a800e9058b15a8f547365032c6527426b2a93896209feed92008fa7a5dc31af",
    "u_t": "24d80a20571c2e69e05f96eb03f40f1db7f2e48aea3e960bca193f209c82f48a",
    "u_ss": "e7a263a01fbae648b3a15f831bdcab99cfdc4b51f3f5fa6ae463129ae601ede9",
    "u_st": "39e432c94683a50c396eaf40250dc316489d6fa7777711371e1fcfc4153875c1",
    "u_tt": "9475b29a27d7ca2caa7531f93ec32bea4fafcbe1e42257c340abd035d0a2fd72",
    "u_y": "c1df0c27ffe1e8d6d50b6793415feb3557ac8715c2716b1a6ac1baad3f8f9045",
    "u_z": "4dafc76014ed466c23f840d06bd55e5ce546d2cdb86b72249dbd5d4add8832ec",
}


def test_derivative_fields_keep_their_bits(solved):
    sol = solved(4, 8.0, 0.2)
    got = {name: hashlib.sha256(
        np.ascontiguousarray(getattr(sol, name)).tobytes()).hexdigest()
        for name in DERIVATIVE_SHA256}
    assert got == DERIVATIVE_SHA256


def test_derivative_fields_follow_the_field(sol_m4_coarse):
    # a derivative is computed from the u it is read on: replace() does not
    # carry the fields of the solution it copies
    sol = sol_m4_coarse
    flipped = dataclasses.replace(sol, u=-sol.u)
    for name in DERIVATIVE_SHA256:
        assert np.array_equal(getattr(flipped, name), -getattr(sol, name))


def test_residual_rotated_frame(sol_m4_coarse):
    res, mask = residual_yz_form(sol_m4_coarse)
    # the rotated-frame residual is a discretization difference, O(h^2)
    assert np.max(np.abs(res[mask])) < 5e-2


def test_monotone_in_m(solved):
    # stronger drift flattens the solution: u_m=5 <= u_m=4 pointwise
    u4 = solved(4, 12.0, 0.1).u
    u5 = solved(5, 12.0, 0.1).u
    tri = build_grid(12.0, 0.1).mask_triangle
    assert np.all(u5[tri] <= u4[tri] + 1e-10)


def test_newton_solve_rejects_m_below_one():
    with pytest.raises(ValueError, match="got m=0"):
        newton_solve(0, build_grid(8.0, 0.2))


@pytest.mark.parametrize("m", range(1, 7))
def test_coarse_start_finds_the_cold_start_field(m, solved):
    # R12 h.1 starts from the field solved at h = 0.2; the cold start from
    # H(0.45y)H(0.45z) must land on the same discrete solution
    grid = build_grid(12.0, 0.1)
    sol = solved(m, 12.0, 0.1)
    assert [h for h, _ in sol.coarse_iters] == [0.2]
    cold, cold_norm, _, _ = _newton(m, grid, initial_guess(grid), _lu_solve)
    assert np.abs(sol.u - cold).max() <= 1e-9
    assert sol.residual_norm <= NEWTON_TOL and cold_norm <= NEWTON_TOL


def test_odd_grid_starts_cold():
    # N = 81 has no 2h grid, so the solve is the cold start itself
    grid = build_grid(8.1, 0.1)
    assert grid.N % 2 == 1
    sol = newton_solve(4, grid)
    cold, cold_norm, cold_iters, _ = _newton(4, grid, initial_guess(grid),
                                             _lu_solve)
    assert sol.coarse_iters == ()
    assert np.array_equal(sol.u, cold)
    assert (sol.residual_norm, sol.newton_iters) == (cold_norm, cold_iters)


def _factored_matrices(monkeypatch) -> list:
    """Wrap the solver's splu; returns the list of factored matrices."""
    factored = []
    factor = solver.spla.splu

    def recording(A, *args, **kwargs):
        factored.append(A.copy())
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", recording)
    return factored


def _jacobian_at(U, m, grid):
    """The Newton Jacobian of grid at the full-quadrant field U."""
    block = solver.node_block(*weighted_form(m, grid), grid.ii, grid.jj)
    return solver.jacobian(*block, U[grid.ii, grid.jj])


def test_refined_levels_factor_only_the_coarser_jacobian(monkeypatch, solved):
    # h = 0.1 and h = 0.05 are refined levels and solve by two-grid CG: no
    # LU has either level's size but the one coarse LU of the h = 0.05
    # cycle, taken of the h = 0.1 Jacobian at the solved h = 0.1 field
    factored = _factored_matrices(monkeypatch)
    grid, mid = build_grid(12.0, 0.05), build_grid(12.0, 0.1)
    sol = newton_solve(4, grid)
    assert sol.residual_norm <= NEWTON_TOL
    assert [h for h, _ in sol.coarse_iters] == [0.1, 0.2]
    sizes = [A.shape[0] for A in factored]
    assert sizes.count(grid.n_unknowns) == 0
    assert sizes.count(mid.n_unknowns) == 1
    [A] = [A for A in factored if A.shape[0] == mid.n_unknowns]
    monkeypatch.undo()
    J = _jacobian_at(solved(4, 12.0, 0.1).u, 4, mid)
    assert abs(A - J).max() == 0.0


@pytest.mark.parametrize("m", range(1, 7))
def test_cg_step_matches_the_lu_step(m, solved):
    # the first Newton system of the h = 0.05 level, at the prolonged
    # h = 0.1 field, by two-grid CG and by a sparse LU of the same J.  They
    # agree in the volume-weighted norm of the operator (1.4e-12 or better).
    # Next to the origin and the axis the weight (s t)^(m-1) is small, the
    # norms CG can minimize hardly see those nodes, and the plain max-norm
    # gap reaches 6e-5 at m = 6; the Newton residual gate removes it
    grid, coarse = build_grid(12.0, 0.05), build_grid(12.0, 0.1)
    Uc = solved(m, 12.0, 0.1).u
    U = impose_boundary(solver._prolong(Uc), grid)
    K, V = weighted_form(m, grid)
    vol = V[grid.ii, grid.jj]
    J = _jacobian_at(U, m, grid)
    rhs = -vol * solver._residual(K, V, U, grid)
    cg = solver._TwoGrid(_jacobian_at(Uc, m, coarse),
                         solver._prolongation(coarse, grid))(J, rhs)
    lu = solver.factor(J).solve(rhs)

    def norm(x):
        return np.sqrt(np.sum(vol * x * x))

    assert norm(cg - lu) <= 1e-9 * norm(lu)


def test_prolongation_is_prolong_at_the_unknowns():
    coarse, grid = build_grid(12.0, 0.1), build_grid(12.0, 0.05)
    x = np.random.default_rng(3).standard_normal(coarse.n_unknowns)
    X = np.zeros((coarse.N + 1,) * 2)
    X[coarse.ii, coarse.jj] = x          # Dirichlet nodes hold 0
    P = solver._prolongation(coarse, grid)
    assert P.shape == (grid.n_unknowns, coarse.n_unknowns)
    np.testing.assert_allclose(P @ x, solver._prolong(X)[grid.ii, grid.jj],
                               rtol=0, atol=1e-15 * np.abs(x).max())


def test_capped_cg_raises(monkeypatch):
    monkeypatch.setattr(solver, "CG_MAXITER", 1)
    with pytest.raises(NewtonError, match="CG stopped after 1 iterations"):
        newton_solve(4, build_grid(12.0, 0.1))


def test_cg_breakdown_raises():
    # an indefinite J on which the cycle is an exact solve: r.z and p.Jp are
    # 0 in the first iteration, and 0/0 of numpy scalars is a nan that runs
    # out the iterations, not a ZeroDivisionError
    J = sp.diags([1.0, -1.0], format="csr")
    solve = solver._TwoGrid(J, sp.identity(2, format="csr"))
    with np.errstate(invalid="ignore"), pytest.raises(
            NewtonError, match=f"CG stopped after {solver.CG_MAXITER} "
                               f"iterations at relative residual nan"):
        solve(J, np.ones(2))


def test_nan_linear_solve_raises():
    # a NaN relative residual is not within LINEAR_TOL
    J = sp.identity(3, format="csr")
    with pytest.raises(NewtonError, match="relative residual nan"):
        solver._checked(lambda J, rhs: np.full_like(rhs, np.nan), J,
                        np.ones(3))


def test_one_lu_alive_at_a_time(monkeypatch):
    # each LU is freed by reference count before the next one is made and
    # before newton_solve returns; the cycle collector is off, so an LU kept
    # in a reference cycle would still count as alive
    count = {"live": 0, "peak": 0}
    factor = solver.spla.splu

    class Tracked:
        def __init__(self, lu):
            self.solve = lu.solve
            count["live"] += 1
            count["peak"] = max(count["peak"], count["live"])

        def __del__(self):
            count["live"] -= 1

    monkeypatch.setattr(solver.spla, "splu",
                        lambda *a, **k: Tracked(factor(*a, **k)))
    gc.disable()
    try:
        newton_solve(4, build_grid(12.0, 0.05))
    finally:
        gc.enable()
    assert count == {"live": 0, "peak": 1}


def test_lu_level_factors_once_per_newton_step(monkeypatch):
    # R12 h.2 is the coarsest level, a cold start: each Newton step factors
    # the Jacobian at its own iterate, and no LU serves two steps
    factored = _factored_matrices(monkeypatch)
    sol = newton_solve(4, build_grid(12.0, 0.2))
    assert sol.residual_norm <= NEWTON_TOL and sol.coarse_iters == ()
    assert len(factored) == sol.newton_iters > 0


def test_every_lu_is_made_by_the_one_recipe(monkeypatch):
    # each LU of the Newton chain R12 h.05 (the coarsest level's and the
    # coarse LU of each two-grid cycle) and of the eigensolve on its field,
    # both pencils, is SuperLU in LU_ORDERING with LU_PANEL-column panels
    calls = []
    factor = solver.spla.splu

    def recording(A, **kwargs):
        calls.append((A.shape[0], kwargs))
        return factor(A, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", recording)
    sol = newton_solve(4, build_grid(12.0, 0.05))
    newton = len(calls)
    asm = assemble(sol)
    est = min_eigenvalue(asm)
    recipe = {"permc_spec": solver.LU_ORDERING, "panel_size": solver.LU_PANEL}
    assert 0 < newton < len(calls)
    assert all(kwargs == recipe for _, kwargs in calls), calls
    # the estimate holds SuperLU's nnz of each LU of its own pencil; the
    # coarse pencil's LUs are counted in its own estimate
    fine = [n for n, _ in calls[newton:] if n == asm.n_dof]
    assert len(est.lu_nnz) == len(fine) < len(calls) - newton
    assert all(type(n) is int and n > asm.n_dof for n in est.lu_nnz)


def test_one_operator_per_level(monkeypatch):
    # the chain h = 0.2, 0.1, 0.05 builds weighted_form once per level; the
    # two-grid cycles reuse the coarser level's operator
    calls = []
    form = solver.weighted_form
    monkeypatch.setattr(solver, "weighted_form",
                        lambda m, grid: calls.append(grid.h) or form(m, grid))
    newton_solve(4, build_grid(12.0, 0.05))
    assert calls == [0.2, 0.1, 0.05]
