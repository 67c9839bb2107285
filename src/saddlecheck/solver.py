"""Damped Newton solver for the reduced Allen-Cahn equation

    -u_ss - u_tt - ((m-1)/s) u_s - ((m-1)/t) u_t = u - u^3

on the triangle {0 <= t <= s <= R}, with u = 0 on the diagonal, even
reflection across t = 0, and Dirichlet data H(y)H(z) on the outer edge.
The one discrete operator is weighted_form, the (s t)^(m-1) edge form on the
closed triangle.  The s <-> t mirror splits its full-quadrant form into an
odd sector (zero on the cone), which this Newton solve uses, and an even
sector, which spectral uses for the stability pencil.  Newton runs over
the levels of grid_chain, coarsest first, each started from the field solved
on the level below it, prolonged bilinearly.  On the coarsest level every
Newton step factors the symmetric Jacobian with one sparse LU in the
minimum-degree ordering LU_ORDERING.  A refined level factors nothing of its
own size: it solves each Newton system by conjugate gradients,
preconditioned by one symmetric two-grid cycle whose coarse solve is the LU
of the 2h Jacobian at the 2h solution.  That CG is a loop of this module
whose dot products and norms are numpy's pairwise sums (_dot), not BLAS
calls, so the BLAS thread count does not enter the field's bits.  The
solved field is odd-reflected onto the full quadrant; each first and second
derivative field is computed by a second-order stencil the first time it is
read.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from saddlecheck.grid import H_MAX, Grid, build_grid
from saddlecheck.scalars import SQRT2, hh_supersolution, st_to_yz


class _DeferredModule:
    """Stands for the module `name`, imported when an attribute of it is
    first read or set (setting one patches the module itself).  scipy.sparse
    takes about a third of a second to import; a run on a cached field needs
    it only in cli's spectrum worker, so the calling process never pays it."""

    def __init__(self, name: str):
        object.__setattr__(self, "_name", name)

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)

    def __setattr__(self, attr: str, value) -> None:
        setattr(importlib.import_module(self._name), attr, value)


sp = _DeferredModule("scipy.sparse")
spla = _DeferredModule("scipy.sparse.linalg")

MAX_NEWTON_ITERS = 40
DAMPING_HALVINGS = 30
NEWTON_TOL = 1e-10                     # max-norm of the discrete residual
LINEAR_TOL = 1e-10                     # relative residual of the inner solve
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
    """Solved field of R^m x R^m on the full quadrant [0,R]^2, and its
    derivative fields.

    All arrays are (N+1, N+1), indexed [i, j] = (s = i*h, t = j*h).  The
    field u is odd under (s,t) <-> (t,s) by construction.  Each derivative
    field is computed from u the first time it is read, and kept.  They are
    second-order accurate except within 2h of the outer boundary, where
    one-sided stencils are used; u_y and u_z use rotated central stencils,
    with even ghosts across both axes, and the chain rule on the outer
    edges.  newton_iters counts the Newton steps taken on this grid;
    coarse_iters lists (h, steps) of each coarser level that produced the
    start field, finest first;
    cg_iters lists (h, CG iterations of each Newton step) of each refined
    level, finest first.  Both are empty for a cold start or a field loaded
    from the cache.
    """

    m: int
    grid: Grid
    u: np.ndarray = field(repr=False)
    residual_norm: float = math.nan
    newton_iters: int = 0
    coarse_iters: tuple = ()
    cg_iters: tuple = ()

    @cached_property
    def u_s(self) -> np.ndarray:
        return _d1(self.u, self.grid.h, axis=0)

    @cached_property
    def u_t(self) -> np.ndarray:
        return _d1(self.u, self.grid.h, axis=1)

    @cached_property
    def u_ss(self) -> np.ndarray:
        return _d2(self.u, self.grid.h, axis=0)

    @cached_property
    def u_st(self) -> np.ndarray:
        return _d1(self.u_s, self.grid.h, axis=1)

    @cached_property
    def u_tt(self) -> np.ndarray:
        return _d2(self.u, self.grid.h, axis=1)

    @cached_property
    def u_y(self) -> np.ndarray:
        out = (self.u_s + self.u_t) / SQRT2
        P = np.pad(self.u, 1, mode="reflect")   # P[i, j] = U[i-1, j-1]
        out[:-1, :-1] = (P[2:-1, 2:-1] - P[:-3, :-3]) / (2.0 * SQRT2 * self.grid.h)
        return out

    @cached_property
    def u_z(self) -> np.ndarray:
        out = (self.u_s - self.u_t) / SQRT2
        P = np.pad(self.u, 1, mode="reflect")
        out[:-1, :-1] = (P[2:-1, :-3] - P[:-3, 2:-1]) / (2.0 * SQRT2 * self.grid.h)
        return out


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
    U = hh_supersolution(0.45 * y, 0.45 * z)
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


def newton_solve(m: int, grid: Grid) -> SaddleSolution:
    """Solve for the saddle solution by damped Newton iteration.

    One loop over grid_chain(grid), coarsest level first: the coarsest level
    starts from initial_guess and solves each Newton system by a sparse LU;
    every other level starts from the field solved on the level below,
    prolonged bilinearly, and solves by _TwoGrid, built from that level's
    Jacobian at its solved field.  Every level is solved to NEWTON_TOL.
    Deterministic: identical inputs produce bitwise-identical fields, also
    under another BLAS thread count (tested at 1 and 2), since no sum of the
    solve goes through BLAS; other CPUs and SIMD widths were not measured.
    Raises ValueError for m < 1, and NewtonError on non-convergence, a
    non-finite residual or line-search failure at any level.
    """
    if m < 1:
        raise ValueError(f"factor dimension must be >= 1, got m={m}")
    chain = grid_chain(grid)
    U, solve, coarse = initial_guess(chain[0]), _lu_solve, None
    steps, cg = [], []
    for level in chain:
        if coarse is not None:
            solve = None                   # one LU alive at a time
            solve = _TwoGrid(jacobian(*block, U[coarse.ii, coarse.jj]),
                             _prolongation(coarse, level))
            U = impose_boundary(_prolong(U), level)
        U, norm, iters, block = _newton(m, level, U, solve)
        steps.insert(0, (level.h, iters))
        if coarse is not None:
            cg.insert(0, (level.h, tuple(solve.iters)))
        coarse = level
    solve = block = None
    return SaddleSolution(m=m, grid=grid, u=U, residual_norm=norm,
                          newton_iters=iters, coarse_iters=tuple(steps[1:]),
                          cg_iters=tuple(cg))


def grid_chain(grid: Grid) -> list[Grid]:
    """The levels of the Newton chain, coarsest first and grid last: the
    level below g is build_grid(R, 2h) while g.N is even and 2h <= H_MAX.
    An odd R/h gives the chain [grid], a cold start."""
    chain = [grid]
    while chain[0].N % 2 == 0 and 2.0 * chain[0].h <= H_MAX:
        chain.insert(0, build_grid(grid.R, 2.0 * chain[0].h))
    return chain


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


def node_block(K, V, ii, jj):
    """K restricted to the nodes (ii, jj), and their cell volumes: the
    Newton unknowns here, the even-sector dofs in spectral."""
    flat = ii * V.shape[1] + jj
    return K[flat][:, flat], V[ii, jj]


def jacobian(K_b, vol: np.ndarray, u: np.ndarray):
    """The symmetric Jacobian K_b + diag(V (3u^2 - 1)) of the block
    (K_b, vol) from node_block at the node values u, in CSR."""
    return K_b + sp.diags(vol * (3.0 * u**2 - 1.0))


class _TwoGrid:
    """solve(J, rhs) for the Newton systems of a refined level: CG.

    The preconditioner is one symmetric two-grid cycle: JACOBI_SWEEPS
    damped-Jacobi sweeps, the coarse correction P LU_c^-1 P^T, and
    JACOBI_SWEEPS sweeps more.  P is _prolongation; LU_c is the LU of J_c,
    the coarse level's Jacobian at its solved field.  iters records the CG
    iterations of each solve.
    """

    def __init__(self, J_c, P):
        self.lu = spla.splu(J_c.tocsc(), permc_spec=LU_ORDERING)
        self.P = P
        self.iters: list[int] = []

    def __call__(self, J, rhs: np.ndarray) -> np.ndarray:
        """J^-1 rhs by preconditioned CG from 0 to CG_TOL: done once
        |r| < CG_TOL |rhs| before an iteration, as in scipy's cg; raises
        NewtonError when CG_MAXITER iterations do not reach it."""
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

        x, r = np.zeros_like(rhs), rhs.copy()
        target = CG_TOL * _norm(rhs)
        for count in range(CG_MAXITER):
            if _norm(r) < target:
                self.iters.append(count)
                return x
            z = cycle(r)
            rho = _dot(r, z)
            p = z if count == 0 else z + (rho / rho_prev) * p
            q = J @ p
            alpha = rho / _dot(p, q)        # numpy scalars: 0/0 is nan
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        raise NewtonError(f"CG stopped after {CG_MAXITER} iterations at "
                          f"relative residual {_relres(J, x, rhs):.3e}"
                          f" (target {CG_TOL:g})")


def _lu_solve(J, rhs: np.ndarray) -> np.ndarray:
    """J^-1 rhs by one sparse LU of J in LU_ORDERING, released on return."""
    return spla.splu(J.tocsc(), permc_spec=LU_ORDERING).solve(rhs)


def _newton(m: int, grid: Grid, U: np.ndarray, solve):
    """Newton on grid from the full-quadrant iterate U; returns (U, residual
    norm, steps, the node_block of the unknowns).

    A Newton step solves the symmetric system J delta = -V res, with J the
    jacobian at the unknowns, by solve(J, rhs): _lu_solve or a _TwoGrid.
    The solve is checked against J to LINEAR_TOL, and the step is damped
    until the residual drops.
    """
    ii, jj = grid.ii, grid.jj
    K, V = weighted_form(m, grid)
    K_uu, vol = node_block(K, V, ii, jj)
    res = _residual(K, V, U, grid)
    norm = float(np.abs(res).max())
    iters = 0
    while not norm <= NEWTON_TOL:           # a NaN residual enters too
        if not math.isfinite(norm):
            raise NewtonError(f"residual {norm} after {iters} iterations")
        if iters >= MAX_NEWTON_ITERS:
            raise NewtonError(
                f"no convergence after {iters} iterations; last residual {norm:.3e}"
            )
        rhs = -vol * res
        delta = _checked(solve, jacobian(K_uu, vol, U[ii, jj]), rhs)
        lam = 1.0
        for _ in range(DAMPING_HALVINGS + 1):
            Utry = U.copy()
            Utry[ii, jj] = U[ii, jj] + lam * delta
            Utry = impose_boundary(Utry, grid)
            res_try = _residual(K, V, Utry, grid)
            norm_try = float(np.abs(res_try).max())
            if norm_try < norm:
                break
            lam *= 0.5
        else:
            raise NewtonError(f"line search failed at residual {norm:.3e}")
        U, res, norm = Utry, res_try, norm_try
        iters += 1
    return U, norm, iters, (K_uu, vol)


def _dot(a: np.ndarray, b: np.ndarray) -> np.floating:
    """sum(a * b) by numpy's pairwise summation.  np.dot, @ and the 2-norm
    of numpy.linalg go to BLAS, which may split a long sum across threads,
    so their last bits follow the thread count; this sum's do not."""
    return np.add.reduce(a * b)


def _norm(x: np.ndarray) -> np.floating:
    """The 2-norm of x by _dot."""
    return np.sqrt(_dot(x, x))


def _relres(J, delta: np.ndarray, rhs: np.ndarray) -> float:
    """Relative residual |J delta - rhs| / |rhs| in the 2-norm, by _norm."""
    return float(_norm(J @ delta - rhs) / max(_norm(rhs), 1e-300))


def _checked(solve, J, rhs: np.ndarray) -> np.ndarray:
    """solve(J, rhs), checked as a solve of J delta = rhs to LINEAR_TOL."""
    delta = solve(J, rhs)
    lin_res = _relres(J, delta, rhs)
    if not lin_res <= LINEAR_TOL:
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
