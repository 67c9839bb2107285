"""Damped Newton solver for the reduced Allen-Cahn equation

    -u_ss - u_tt - ((m-1)/s) u_s - ((m-1)/t) u_t = u - u^3

on the triangle {0 <= t <= s <= R}, with u = 0 on the diagonal, even
reflection across t = 0, and Dirichlet data H(y)H(z) on the outer edge.
The one discrete operator is weighted_form, the (s t)^(m-1) edge form on the
closed triangle.  The s <-> t mirror splits its full-quadrant form into an
odd sector (zero on the cone), which this Newton solve uses, and an even
sector, which spectral uses for the stability pencil.  Newton starts from
the field solved at 2h, prolonged bilinearly, and recurses down to the
coarsest grid build_grid allows.  On that coarsest level a Newton step
factors the symmetric Jacobian with one sparse LU in the minimum-degree
ordering LU_ORDERING, and the steps after it reuse that LU as chord steps
while the residual contracts.  A refined level factors nothing of its own
size: it solves each Newton system by conjugate gradients, preconditioned
by one symmetric two-grid cycle whose coarse solve is the LU of the 2h
Jacobian at the 2h solution.  The solved field is odd-reflected onto the
full quadrant and all first and second derivative fields are produced with
second-order stencils.
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
# CG on a refined level runs to this relative residual, below LINEAR_TOL so
# that the checked solve passes, within CG_MAXITER iterations.
CG_TOL = 1e-12
CG_MAXITER = 50
# Damped-Jacobi smoothing of the two-grid cycle, JACOBI_SWEEPS before the
# coarse correction and as many after; Briggs, Henson & McCormick, SIAM 2000.
JACOBI_OMEGA = 2.0 / 3.0
JACOBI_SWEEPS = 2


@dataclass(frozen=True)
class SaddleSolution:
    """Solved field on the full quadrant [0,R]^2 plus derivative fields.

    All arrays are (N+1, N+1), indexed [i, j] = (s = i*h, t = j*h).  The
    field u is odd under (s,t) <-> (t,s) by construction; derivative fields
    are second-order accurate except within 2h of the outer boundary, where
    one-sided stencils are used.  newton_iters counts the steps taken on
    this grid, Newton and chord steps alike; coarse_iters lists (h, steps)
    of each coarser level that produced the start field, finest first;
    cg_iters lists (h, CG iterations of each Newton step) of each refined
    level, finest first.  Both are empty for a cold start or a field loaded
    from the cache.
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
    cg_iters: tuple = ()


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
    U, norm, iters, coarse, cg = _nested_solve(params, grid)
    sol = SaddleSolution(params=params, grid=grid, u=U, residual_norm=norm,
                         newton_iters=iters, coarse_iters=coarse,
                         cg_iters=cg)
    return compute_derivatives(sol)


def _nested_solve(params: DimensionParams, grid: Grid):
    """(U, residual norm, iterations, coarse_iters, cg_iters) on grid: from
    initial_guess with LU steps on the coarsest level, from the prolonged 2h
    field with two-grid CG steps on every other."""
    coarse_grid = coarser_grid(grid)
    if coarse_grid is None:
        return _newton(params, grid, initial_guess(grid)) + ((), ())
    Uc, _, iters_c, coarse, cg = _nested_solve(params, coarse_grid)
    # the coarse LU lives only in this frame: one LU alive at a time
    two_grid = _TwoGrid(params, coarse_grid, Uc, grid)
    U, norm, iters = _newton(params, grid, impose_boundary(_prolong(Uc), grid),
                             two_grid)
    return (U, norm, iters, ((coarse_grid.h, iters_c),) + coarse,
            ((grid.h, tuple(two_grid.iters)),) + cg)


def coarser_grid(grid: Grid) -> Grid | None:
    """The next level of the Newton chain: build_grid(R, 2h) when N is even
    and 2h <= H_MAX, else None."""
    if grid.N % 2 == 0 and 2.0 * grid.h <= H_MAX:
        return build_grid(grid.R, 2.0 * grid.h)
    return None


def _interpolation(n: int) -> sp.csr_matrix:
    """The 1-D bilinear rule, (2n+1, n+1): even nodes copy the coarse node,
    odd nodes average its two neighbours."""
    k = np.arange(n + 1)
    rows = np.concatenate((2 * k, 2 * k[:-1] + 1, 2 * k[:-1] + 1))
    cols = np.concatenate((k, k[:-1], k[1:]))
    vals = np.concatenate((np.ones(n + 1), np.full(2 * n, 0.5)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * n + 1, n + 1))


def _prolong(Uc: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of an (n+1, n+1) field onto the grid of half
    the spacing, (2n+1, 2n+1); the coarse nodes keep their values."""
    P1 = _interpolation(Uc.shape[0] - 1)
    return P1 @ Uc @ P1.T


def _prolongation(coarse: Grid, grid: Grid) -> sp.csr_matrix:
    """_prolong as a matrix from the unknowns of coarse to those of grid;
    Dirichlet nodes (cone and outer edge) drop out."""
    P1 = _interpolation(coarse.N)
    return sp.kron(P1, P1, format="csr")[_flat(grid)][:, _flat(coarse)]


def _flat(grid: Grid) -> np.ndarray:
    """Indices of the unknowns of grid in the raveled full quadrant."""
    return grid.ii * (grid.N + 1) + grid.jj


def _unknown_block(K, V, grid: Grid):
    """K restricted to the unknowns of grid, and their cell volumes."""
    flat = _flat(grid)
    return K[flat][:, flat], V[grid.ii, grid.jj]


def _jacobian(K_uu, vol: np.ndarray, u: np.ndarray):
    """The symmetric Newton Jacobian K_uu + diag(V (3u^2 - 1)) at the
    unknown values u, in CSR."""
    return K_uu + sp.diags(vol * (3.0 * u**2 - 1.0))


class _TwoGrid:
    """CG for the Newton systems of a refined level.

    The preconditioner is one symmetric two-grid cycle: JACOBI_SWEEPS
    damped-Jacobi sweeps, the coarse correction P LU_c^-1 P^T, and
    JACOBI_SWEEPS sweeps more.  P is _prolongation; LU_c is the LU of the
    coarse level's Jacobian at its solved field Uc.  iters records the CG
    iterations of each solve.
    """

    def __init__(self, params: DimensionParams, coarse: Grid,
                 Uc: np.ndarray, grid: Grid):
        K_uu, vol = _unknown_block(*weighted_form(params.m, coarse), coarse)
        J_c = _jacobian(K_uu, vol, Uc[coarse.ii, coarse.jj]).tocsc()
        self.lu = spla.splu(J_c, permc_spec=LU_ORDERING)
        self.P = _prolongation(coarse, grid)
        self.iters: list[int] = []

    def solve(self, J, rhs: np.ndarray) -> np.ndarray:
        """J^-1 rhs by preconditioned CG to CG_TOL; raises NewtonError when
        CG_MAXITER iterations do not reach it."""
        weight = JACOBI_OMEGA / J.diagonal()
        P, lu = self.P, self.lu

        def cycle(r):
            x = weight * r                  # the first sweep, from x = 0
            for _ in range(JACOBI_SWEEPS - 1):
                x += weight * (r - J @ x)
            x += P @ lu.solve(P.T @ (r - J @ x))
            for _ in range(JACOBI_SWEEPS):
                x += weight * (r - J @ x)
            return x

        count = 0

        def counted(_):
            nonlocal count
            count += 1

        delta, info = spla.cg(J, rhs, rtol=CG_TOL, maxiter=CG_MAXITER,
                              M=spla.LinearOperator(J.shape, matvec=cycle,
                                                     dtype=float),
                              callback=counted)
        if info:
            raise NewtonError(f"CG stopped after {count} iterations at "
                              f"relative residual {_relres(J, delta, rhs):.3e}"
                              f" (target {CG_TOL:g})")
        self.iters.append(count)
        return delta


def _newton(params: DimensionParams, grid: Grid, U: np.ndarray,
            two_grid: _TwoGrid | None = None):
    """Newton from the full-quadrant iterate U; returns (U, residual norm,
    steps).

    A Newton step solves the symmetric system J delta = -V res, with
    J = K_uu + diag(V (3u^2 - 1)) on the unknowns, and is damped until the
    residual drops.  Without two_grid (the coarsest level) the step factors
    J with one sparse LU in LU_ORDERING, and each later iterate first tries
    a full step on that LU (a chord step), kept if the max-norm residual
    falls by CHORD_CONTRACTION; otherwise the step is discarded, the LU is
    released, and a Newton step from a fresh LU at the same iterate follows.
    With two_grid (a refined level) every step solves J by two_grid.solve,
    CG with a two-grid preconditioner, and nothing is factored.  Every solve
    is checked against its J to LINEAR_TOL.
    """
    ii, jj = grid.ii, grid.jj
    K, V = weighted_form(params.m, grid)
    K_uu, vol = _unknown_block(K, V, grid)

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
            step = trial(_checked(J, lu.solve(rhs), rhs), 1.0)
            if step[2] > CHORD_CONTRACTION * norm:
                step = None
        if step is None:
            J = lu = None                  # one LU alive at a time
            J = _jacobian(K_uu, vol, U[ii, jj])
            if two_grid is None:
                J = J.tocsc()
                lu = spla.splu(J, permc_spec=LU_ORDERING)
                delta = _checked(J, lu.solve(rhs), rhs)
            else:
                delta = _checked(J, two_grid.solve(J, rhs), rhs)
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


def _relres(J, delta: np.ndarray, rhs: np.ndarray) -> float:
    """Relative residual |J delta - rhs| / |rhs| in the 2-norm."""
    return float(np.linalg.norm(J @ delta - rhs)
                 / max(np.linalg.norm(rhs), 1e-300))


def _checked(J, delta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """delta, checked as a solve of J delta = rhs to LINEAR_TOL."""
    lin_res = _relres(J, delta, rhs)
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
