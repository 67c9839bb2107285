"""Grid construction and the damped Newton solver."""

import numpy as np
import pytest

from oracles import residual_yz_form, sine_gordon_saddle, weighted_residual
from saddlecheck import solver
from saddlecheck.grid import (NODE_AXIS, NODE_DIAGONAL, NODE_INTERIOR,
                              NODE_OUTER, NODE_OUTSIDE, build_grid)
from saddlecheck.params import DimensionParams, st_to_yz
from saddlecheck.scalars import hh_supersolution
from saddlecheck.solver import (MAX_NEWTON_ITERS, NEWTON_TOL, _newton,
                                impose_boundary, initial_guess, newton_solve)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(12.0, 0.3)          # spacing too coarse
    with pytest.raises(ValueError):
        build_grid(4.0, 0.1)           # radius too small
    with pytest.raises(ValueError):
        build_grid(12.0, 0.07)         # R/h not an integer


def test_node_classification():
    g = build_grid(12.0, 0.1)
    assert g.N == 120
    kind = g.kind
    assert np.all(kind[np.tril_indices(g.N + 1)] != NODE_OUTSIDE)
    # diagonal and outer edge are fixed; axis and interior are unknowns
    assert np.all(kind.diagonal() == NODE_DIAGONAL)
    assert np.all(kind[g.N, :g.N] == NODE_OUTER)
    assert kind[5, 0] == NODE_AXIS and kind[5, 3] == NODE_INTERIOR
    assert g.n_unknowns == g.ii.size
    # the unknowns are the axis and interior nodes, numbered row by row
    unknown = (kind == NODE_INTERIOR) | (kind == NODE_AXIS)
    assert np.array_equal(g.ii * (g.N + 1) + g.jj, np.flatnonzero(unknown))


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
    again = newton_solve(DimensionParams(m=4), build_grid(12.0, 0.1))
    assert np.array_equal(sol.u, again.u)


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
    assert sol.u_st is not None and np.all(np.isfinite(sol.u_st[inner]))


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


@pytest.mark.parametrize("m", range(1, 7))
def test_coarse_start_finds_the_cold_start_field(m, solved):
    # R12 h.1 starts from the field solved at h = 0.2; the cold start from
    # H(0.45y)H(0.45z) must land on the same discrete solution
    grid = build_grid(12.0, 0.1)
    sol = solved(m, 12.0, 0.1)
    assert [h for h, _ in sol.coarse_iters] == [0.2]
    cold, cold_norm, _ = _newton(DimensionParams(m=m), grid,
                                 initial_guess(grid))
    assert np.abs(sol.u - cold).max() <= 1e-9
    assert sol.residual_norm <= NEWTON_TOL and cold_norm <= NEWTON_TOL


def test_odd_grid_starts_cold():
    # N = 81 has no 2h grid, so the solve is the cold start itself
    grid = build_grid(8.1, 0.1)
    assert grid.N % 2 == 1
    sol = newton_solve(DimensionParams(m=4), grid)
    cold, cold_norm, cold_iters = _newton(DimensionParams(m=4), grid,
                                          initial_guess(grid))
    assert sol.coarse_iters == ()
    assert np.array_equal(sol.u, cold)
    assert (sol.residual_norm, sol.newton_iters) == (cold_norm, cold_iters)


def _count_factorizations(monkeypatch) -> list:
    """Wrap the solver's splu; returns the list of factored matrix sizes."""
    sizes = []
    factor = solver.spla.splu

    def counting(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counting)
    return sizes


def test_refined_levels_factor_once(monkeypatch):
    # the first step of a level started from the 2h field is a Newton step;
    # the rest are chord steps on its LU
    sizes = _count_factorizations(monkeypatch)
    grid = build_grid(12.0, 0.05)
    sol = newton_solve(DimensionParams(m=4), grid)
    assert sol.residual_norm <= NEWTON_TOL
    assert [h for h, _ in sol.coarse_iters] == [0.1, 0.2]
    assert sizes.count(grid.n_unknowns) == 1
    assert sizes.count(build_grid(12.0, 0.1).n_unknowns) == 1


def test_cold_start_falls_back_to_newton_steps(monkeypatch):
    # from H(0.45y)H(0.45z) the frozen LU stops contracting: fresh LUs follow
    sizes = _count_factorizations(monkeypatch)
    grid = build_grid(12.0, 0.2)
    _, norm, iters = _newton(DimensionParams(m=4), grid, initial_guess(grid))
    assert norm <= NEWTON_TOL
    assert len(sizes) > 1
    assert iters <= MAX_NEWTON_ITERS // 2
