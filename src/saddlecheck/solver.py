"""Damped Newton solver for the reduced Allen-Cahn equation

    -u_ss - u_tt - ((m-1)/s) u_s - ((m-1)/t) u_t = u - u^3

on the triangle {0 <= t <= s <= R}, with u = 0 on the diagonal, even
reflection across t = 0, and Dirichlet data H(y)H(z) on the outer edge.
The one discrete operator is weighted_form, the (s t)^(m-1) edge form on the
closed triangle.  The s <-> t mirror splits its full-quadrant form into an
odd sector (zero on the cone), which this Newton solve uses, and an even
sector, which spectral uses for the stability pencil.  Newton starts from
the field solved at 2h, prolonged bilinearly, and recurses down to the
coarsest grid build_grid allows.  A Newton step factors the symmetric
Jacobian with one sparse LU in the minimum-degree ordering LU_ORDERING; the
steps after it reuse that LU as chord steps while the residual contracts,
so a refined level factors once.  The solved field is odd-reflected onto
the full quadrant and all first and second derivative fields are produced
with second-order stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlecheck.grid import H_MAX, Grid, build_grid
from saddlecheck.params import DimensionParams, SQRT2, st_to_yz
from saddlecheck.scalars import hh_supersolution


MAX_NEWTON_ITERS = 40
DAMPING_HALVINGS = 30
NEWTON_TOL = 1e-10                     # max-norm of the discrete residual
LINEAR_TOL = 1e-10                     # relative residual of the inner solve
# A chord step (a full step on the last LU) is kept only if it cuts the
# max-norm residual at least this much; Kelley, SIAM 2003, ch. 5.
CHORD_CONTRACTION = 0.1
# Both sparse LUs (the Newton J here, K - sigma B in spectral) factor
# symmetric matrices: minimum degree on A^T + A keeps their fill low.
LU_ORDERING = "MMD_AT_PLUS_A"


@dataclass(frozen=True)
class SaddleSolution:
    """Solved field on the full quadrant [0,R]^2 plus derivative fields.

    All arrays are (N+1, N+1), indexed [i, j] = (s = i*h, t = j*h).  The
    field u is odd under (s,t) <-> (t,s) by construction; derivative fields
    are second-order accurate except within 2h of the outer boundary, where
    one-sided stencils are used.  newton_iters counts the steps taken on
    this grid, Newton and chord steps alike; coarse_iters lists (h, steps)
    of each coarser level that produced the start field, finest first
    (empty for a cold start or a field loaded from the cache).
    """

    params: DimensionParams
    grid: Grid
    u: np.ndarray = field(repr=False)
    u_s: np.ndarray | None = field(default=None, repr=False)
    u_t: np.ndarray | None = field(default=None, repr=False)
    u_ss: np.ndarray | None = field(default=None, repr=False)
    u_st: np.ndarray | None = field(default=None, repr=False)
    u_tt: np.ndarray | None = field(default=None, repr=False)
    u_y: np.ndarray | None = field(default=None, repr=False)
    u_z: np.ndarray | None = field(default=None, repr=False)
    residual_norm: float = math.nan
    newton_iters: int = 0
    coarse_iters: tuple = ()


class NewtonError(RuntimeError):
    """Newton iteration failed to converge or the line search stalled."""


def outer_boundary_values(grid: Grid):
    """Dirichlet data H(y)H(z) on s = R (a supersolution, approached
    exponentially by the true solution)."""
    t = grid.coords
    y, z = st_to_yz(grid.R, t)
    return hh_supersolution(y, z)


def initial_guess(grid: Grid) -> np.ndarray:
    """Subsolution-shaped initial iterate H(0.45 y)H(0.45 z) with boundary
    data imposed, on the full quadrant (odd-reflected)."""
    S, T = grid.meshgrid()
    y, z = st_to_yz(S, T)
    U = np.asarray(hh_supersolution(0.45 * y, 0.45 * z))
    return impose_boundary(U, grid)


def impose_boundary(U: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero the diagonal, set outer Dirichlet data, odd-reflect to t > s."""
    U = U.copy()
    np.fill_diagonal(U, 0.0)
    U[grid.N, :] = outer_boundary_values(grid)
    U[grid.N, grid.N] = 0.0
    i, j = np.meshgrid(np.arange(grid.N + 1), np.arange(grid.N + 1), indexing="ij")
    upper = j > i
    U[upper] = -U.T[upper]
    return U


def weighted_form(m: int, grid: Grid):
    """The one discrete operator: -Delta_m u = (K u) / V.

    K is the symmetric edge Laplacian of int |grad eta|^2 (s t)^(m-1) over
    the closed triangle {t <= s}; each edge weighs (midpoint coordinate along
    the edge)^(m-1) times (cell length across the edge) / h, with cell length
    V1(x) = ((x + h/2)^m - max(x - h/2, 0)^m) / m.  V = V1(s) V1(t) is the cell
    volume, halved on the cone.  Nodes are numbered i*(N+1) + j, so K acts on
    U.ravel() for a full-quadrant field U and is zero outside the triangle, as
    is V, an (N+1, N+1) array.  On the axis t = 0 the row reduces to the
    even-reflection limit -2m(u1 - u0)/h^2.
    """
    N, h = grid.N, grid.h
    x = grid.coords
    cell = ((x + h / 2.0) ** m - np.maximum(x - h / 2.0, 0.0) ** m) / m
    mid = ((np.arange(N) + 0.5) * h) ** (m - 1)
    V = np.where(grid.mask_triangle, np.outer(cell, cell), 0.0)
    V[np.diag_indices(N + 1)] *= 0.5

    i, j = np.nonzero(grid.mask_triangle[:N])      # s-edges (i, j)-(i+1, j)
    k, l = np.nonzero(np.tril(grid.mask_triangle, -1))  # t-edges (k, l)-(k, l+1)
    a = np.concatenate((i * (N + 1) + j, k * (N + 1) + l))
    b = np.concatenate((a[:i.size] + N + 1, a[i.size:] + 1))
    w = np.concatenate((mid[i] * cell[j], mid[l] * cell[k])) / h
    K = sp.csr_matrix((np.concatenate((-w, -w, w, w)),
                       (np.concatenate((a, b, a, b)),
                        np.concatenate((b, a, a, b)))),
                      shape=((N + 1) ** 2,) * 2)
    return K, V


def _residual(K, V, U: np.ndarray, grid: Grid):
    """Discrete residual (K u)/V - (u - u^3) of weighted_form at the
    unknown nodes, for the full-quadrant field U."""
    ii, jj = grid.ii, grid.jj
    KU = (K @ U.ravel()).reshape(U.shape)
    u = U[ii, jj]
    return KU[ii, jj] / V[ii, jj] - (u - u**3)


def newton_solve(params: DimensionParams, grid: Grid) -> SaddleSolution:
    """Solve for the saddle solution by damped Newton iteration.

    The first iterate is the field solved on build_grid(R, 2h), prolonged
    bilinearly, whenever N is even and 2h <= H_MAX; the rule recurses, and
    the coarsest level starts from initial_guess.  Every level is solved to
    NEWTON_TOL.  Deterministic: identical inputs produce
    bitwise-identical fields.  Raises NewtonError on non-convergence or
    line-search failure at any level.
    """
    U, norm, iters, coarse = _nested_solve(params, grid)
    sol = SaddleSolution(params=params, grid=grid, u=U, residual_norm=norm,
                         newton_iters=iters, coarse_iters=coarse)
    return compute_derivatives(sol)


def _nested_solve(params: DimensionParams, grid: Grid):
    """(U, residual norm, iterations, coarse_iters) on grid, started from
    the prolonged 2h field when that grid exists, else from initial_guess."""
    coarse_grid = coarser_grid(grid)
    if coarse_grid is not None:
        Uc, _, iters_c, coarse = _nested_solve(params, coarse_grid)
        U0 = impose_boundary(_prolong(Uc), grid)
        coarse = ((coarse_grid.h, iters_c),) + coarse
    else:
        U0, coarse = initial_guess(grid), ()
    return _newton(params, grid, U0) + (coarse,)


def coarser_grid(grid: Grid) -> Grid | None:
    """The next level of the Newton chain: build_grid(R, 2h) when N is even
    and 2h <= H_MAX, else None."""
    if grid.N % 2 == 0 and 2.0 * grid.h <= H_MAX:
        return build_grid(grid.R, 2.0 * grid.h)
    return None


def _prolong(Uc: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of an (n+1, n+1) field onto the grid of half
    the spacing, (2n+1, 2n+1); the coarse nodes keep their values."""
    n = Uc.shape[0] - 1
    U = np.empty((2 * n + 1, 2 * n + 1))
    U[::2, ::2] = Uc
    U[1::2, ::2] = 0.5 * (Uc[:-1] + Uc[1:])
    U[:, 1::2] = 0.5 * (U[:, :-1:2] + U[:, 2::2])
    return U


def _newton(params: DimensionParams, grid: Grid, U: np.ndarray):
    """Newton from the full-quadrant iterate U, with chord steps on a frozen
    LU; returns (U, residual norm, steps).

    A Newton step solves the symmetric system (K_uu + diag(V (3u^2 - 1)))
    delta = -V res on the unknowns with one sparse LU in LU_ORDERING and is
    damped until the residual drops.  Each later iterate first tries a full
    step on that LU (a chord step) and keeps it if the max-norm residual
    falls by CHORD_CONTRACTION; otherwise the step is discarded, the LU is
    released, and a Newton step from a fresh LU at the same iterate follows.
    """
    ii, jj = grid.ii, grid.jj
    K, V = weighted_form(params.m, grid)
    flat = ii * (grid.N + 1) + jj
    K_uu = K[flat][:, flat]
    vol = V[ii, jj]

    def trial(delta, lam):
        Utry = U.copy()
        Utry[ii, jj] = U[ii, jj] + lam * delta
        Utry = impose_boundary(Utry, grid)
        res_try = _residual(K, V, Utry, grid)
        return Utry, res_try, float(np.abs(res_try).max())

    res = _residual(K, V, U, grid)
    norm = float(np.abs(res).max())
    J = lu = None
    iters = 0
    while norm > NEWTON_TOL:
        if iters >= MAX_NEWTON_ITERS:
            raise NewtonError(
                f"no convergence after {iters} iterations; last residual {norm:.3e}"
            )
        rhs = -vol * res
        step = None
        if lu is not None:
            step = trial(_solve(J, lu, rhs), 1.0)
            if step[2] > CHORD_CONTRACTION * norm:
                step = None
        if step is None:
            J = lu = None                  # one LU alive at a time
            J = (K_uu + sp.diags(vol * (3.0 * U[ii, jj]**2 - 1.0))).tocsc()
            lu = spla.splu(J, permc_spec=LU_ORDERING)
            delta = _solve(J, lu, rhs)
            lam = 1.0
            for _ in range(DAMPING_HALVINGS + 1):
                step = trial(delta, lam)
                if step[2] < norm:
                    break
                lam *= 0.5
            else:
                raise NewtonError(f"line search failed at residual {norm:.3e}")
        U, res, norm = step
        iters += 1
    return U, norm, iters


def _solve(J, lu, rhs: np.ndarray) -> np.ndarray:
    """lu.solve(rhs), checked against the factored J to LINEAR_TOL."""
    delta = lu.solve(rhs)
    lin_res = float(np.linalg.norm(J @ delta - rhs) / max(np.linalg.norm(rhs), 1e-300))
    if lin_res > LINEAR_TOL:
        raise NewtonError(f"inner linear solve stalled (relative residual {lin_res:.3e})")
    return delta


# ---------------------------------------------------------------------------
# derivative stencils on the full quadrant
# ---------------------------------------------------------------------------

def _d1(U: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative: central with an even ghost at index 0, one-sided
    second order at index N."""
    A = U if axis == 0 else U.T
    out = np.empty_like(A)
    out[1:-1] = (A[2:] - A[:-2]) / (2.0 * h)
    out[0] = 0.0  # even reflection: (A[1] - A[1]) / 2h
    out[-1] = (3.0 * A[-1] - 4.0 * A[-2] + A[-3]) / (2.0 * h)
    return out if axis == 0 else out.T


def _d2(U: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative: central with an even ghost at index 0, one-sided
    second order at index N."""
    A = U if axis == 0 else U.T
    out = np.empty_like(A)
    out[1:-1] = (A[2:] - 2.0 * A[1:-1] + A[:-2]) / h**2
    out[0] = 2.0 * (A[1] - A[0]) / h**2
    out[-1] = (2.0 * A[-1] - 5.0 * A[-2] + 4.0 * A[-3] - A[-4]) / h**2
    return out if axis == 0 else out.T


def compute_derivatives(sol: SaddleSolution) -> SaddleSolution:
    """Fill all derivative fields of a solved solution.

    u_y and u_z come from rotated stencils at rotated-interior nodes and fall
    back to chain-rule combinations on the outer edges.
    """
    grid, h = sol.grid, sol.grid.h
    U = sol.u
    u_s = _d1(U, h, axis=0)
    u_t = _d1(U, h, axis=1)
    u_ss = _d2(U, h, axis=0)
    u_tt = _d2(U, h, axis=1)
    u_st = _d1(u_s, h, axis=1)

    u_y = (u_s + u_t) / SQRT2
    u_z = (u_s - u_t) / SQRT2
    # rotated central stencils, with even ghosts across both axes
    P = np.pad(U, 1, mode="reflect")  # P[i, j] = U[i-1, j-1], reflected edges
    u_y[:-1, :-1] = (P[2:-1, 2:-1] - P[:-3, :-3]) / (2.0 * SQRT2 * h)
    u_z[:-1, :-1] = (P[2:-1, :-3] - P[:-3, 2:-1]) / (2.0 * SQRT2 * h)

    fields = dict(u_s=u_s, u_t=u_t, u_ss=u_ss, u_st=u_st, u_tt=u_tt,
                  u_y=u_y, u_z=u_z)
    return replace(sol, **fields)
