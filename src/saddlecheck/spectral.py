"""Principal eigenvalue of the linearized operator in the doubly-radial
class, as the generalized pencil

    K v = lambda B v,
    K = int (|grad eta|^2 + (3u^2-1) eta^2) (s t)^(m-1),
    B = int eta^2 (s t)^(m-1),

discretized by solver.weighted_form.  The s <-> t mirror splits the
full-quadrant pencil exactly into an even and an odd sector; the odd sector
(zero on the cone) is the Newton Jacobian, and the principal eigenvector is
even, so only the even sector is assembled: the triangle {t <= s} with the
cone and axis as natural (reflection) boundaries and Dirichlet truncation on
the outer edge.

The eigensolve is inverse iteration on an LU of K - sigma B, in the Newton
solve's symmetric minimum-degree ordering, with sigma SHIFT_GAP under the
eigenvalue of the same pencil on the coarsest level of solver.grid_chain.
K is a symmetric Z-matrix (the edge Laplacian's off-diagonals are -w <= 0;
the potential and sigma touch only the diagonal), checked exactly, so one
solve x = (K - sigma B)^-1 1 with x > 0 and (K - sigma B) x > 0 proves K -
sigma B a nonsingular M-matrix: every eigenvalue lies above sigma, and the
inverse is entrywise >= 0, so the iterates stay positive (Berman &
Plemmons, Nonnegative Matrices in the Mathematical Sciences, SIAM 1994,
ch. 6).  If that fails, the shift falls back to EIG_SIGMA, below the
spectrum since the potential 3u^2-1 is >= -1, where the coarsest level
starts too; from there the shift moves up as the iterates close in.  The
last iterate v brackets lambda_min of the float pencil between the
Collatz-Wielandt bound min_i (Kv)_i/(Bv)_i (Varga, Matrix Iterative
Analysis, Springer 2000, ch. 2) and the Rayleigh quotient, both rounded
outward.  That is lambda_min
of the discrete, Dirichlet-truncated, even-sector pencil, which falls with
R: a negative bracket reproduces the known instability for m <= 3; for
m >= 4 a positive one is a consistency indicator (the stability proof
itself goes through the supersolution certificate, not this pencil).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from saddlecheck.grid import Grid
from saddlecheck.rigor import _down, _up
from saddlecheck.solver import (LU_ORDERING, SaddleSolution, _dot, grid_chain,
                                jacobian, node_block, sp, spla,
                                weighted_form)

EIG_SIGMA = -1.05        # shift below the spectrum
EIG_TOL = 1e-10          # stop: bracket this narrow, or narrowed by this
SHIFT_GAP = 0.01         # near shift: coarse-grid eigenvalue minus this
MAX_SOLVES = 1000        # solves before inverse iteration refuses


@dataclass(frozen=True)
class QuadraticFormAssembly:
    """The pencil (stiffness, mass), and the same pencil on the coarsest
    grid of the Newton chain (None if the grid has no coarser level)."""
    stiffness: sp.csr_matrix = field(repr=False)
    mass: sp.dia_matrix = field(repr=False)
    coarse: QuadraticFormAssembly | None = field(default=None, repr=False)

    @property
    def n_dof(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class EigEstimate:
    """The smallest eigenvalue of the float pencil lies in [lower,
    lambda_min]."""
    lambda_min: float        # Rayleigh quotient of vector, rounded up
    lower: float             # Collatz-Wielandt bound of vector, rounded down
    iterations: int          # solves with the LUs, the certificates' included
    # the last sigma certify_shift accepted, by its M-matrix test in plain
    # (not rounded) floats; no gate reads it
    shift: float
    vector: np.ndarray = field(repr=False)


def assemble(sol: SaddleSolution) -> QuadraticFormAssembly:
    """Build the even-sector pencil (jacobian, diag(V)) from a solved field;
    the dofs are the triangle nodes with s < R.  The coarse pencil takes the
    field injected onto grid_chain(grid)[0], the coarsest Newton level."""
    grid, coarse = sol.grid, grid_chain(sol.grid)[0]
    k = grid.N // coarse.N
    low = _pencil(sol.m, coarse, sol.u[::k, ::k]) if k > 1 else None
    return _pencil(sol.m, grid, sol.u, low)


def _pencil(m: int, grid: Grid, u: np.ndarray,
            coarse: QuadraticFormAssembly | None = None
            ) -> QuadraticFormAssembly:
    i, j = np.nonzero(grid.mask_triangle[:grid.N])
    K_b, vol = node_block(*weighted_form(m, grid), i, j)
    return QuadraticFormAssembly(stiffness=jacobian(K_b, vol, u[i, j]),
                                 mass=sp.diags(vol), coarse=coarse)


class MMatrixError(ArithmeticError):
    """min_eigenvalue cannot bound the spectrum: K is not a symmetric
    Z-matrix, certify_shift rejected every shift, or inverse iteration did
    not settle within MAX_SOLVES solves."""


def certify_shift(asm: QuadraticFormAssembly, sigma: float):
    """(LU of K - sigma B, x = LU^-1 1) if x > 0 and (K - sigma B) x > 0,
    else None.

    First checks, exactly on the assembled floats, that K is symmetric and
    has no positive off-diagonal entry, and raises MMatrixError naming the
    one that fails.  K - sigma B is then a symmetric Z-matrix, and the two
    conditions make it a nonsingular M-matrix, so positive definite: every
    eigenvalue of the pencil exceeds sigma.  One LU in solver.LU_ORDERING,
    one solve and one matvec; on a rejection the LU is released before this
    returns.
    """
    K, B = asm.stiffness, asm.mass
    _check_z_matrix(K)
    lu = spla.splu((K - sigma * B).tocsc(), permc_spec=LU_ORDERING)
    x = lu.solve(np.ones(asm.n_dof))
    if x.min() > 0.0 and (K @ x - sigma * (B @ x)).min() > 0.0:
        return lu, x
    return None


def _check_z_matrix(K) -> None:
    """MMatrixError unless the CSR matrix K equals its transpose and has no
    positive entry off the diagonal, both compared exactly.  The sign test
    finds the row of each positive entry, in practice the diagonal, not of
    every entry, so that it leaves less heap behind for the LU to come."""
    if (K != K.T).nnz:
        raise MMatrixError("K is not symmetric")
    pos = np.flatnonzero(K.data > 0.0)
    rows = np.searchsorted(K.indptr, pos, side="right") - 1
    if (K.indices[pos] != rows).any():
        raise MMatrixError("K has a positive off-diagonal entry")


def min_eigenvalue(asm: QuadraticFormAssembly) -> EigEstimate:
    """A certified bracket [lower, lambda_min] of the smallest generalized
    eigenvalue of (K, B).

    The shift is SHIFT_GAP below min_eigenvalue of the coarse pencil, or
    EIG_SIGMA when there is none or certify_shift rejects the near shift;
    EIG_SIGMA is certified the same way.  Inverse iteration on that LU,
    v <- (K - sigma B)^-1 (B w) and v /= max v for the last iterate w,
    starts from the certificate's x.  After each solve the bracket's
    plain-float ends are the Collatz-Wielandt bound sigma + min w/v and the
    Rayleigh quotient q; the iteration stops once they are at most
    EIG_TOL |q| apart, or came closer by at most that in the solve (so it
    also stops where rounding keeps the ends wider apart).  From EIG_SIGMA
    each solve shrinks the second mode by only (lambda_1 + 1.05) /
    (lambda_2 + 1.05), near 1 on a large domain, so once the bound lies
    more than 2 SHIFT_GAP above the last shift tried, certify_shift is
    asked for SHIFT_GAP under it, and on success the iteration goes on
    with that LU.  `iterations` counts every solve, the
    certificates' included, and `shift` is the last certified sigma.  With
    the LU released, _bracket bounds lambda_min on the last v.  MMatrixError
    if certify_shift does, if EIG_SIGMA is rejected too, after MAX_SOLVES
    solves, or if the rounded Collatz-Wielandt bound is not above sigma
    (v not > 0: in exact arithmetic every iterate's bound is).
    """
    sigma = EIG_SIGMA
    if asm.coarse is not None:
        sigma = min_eigenvalue(asm.coarse).lambda_min - SHIFT_GAP
    cert = certify_shift(asm, sigma)
    if cert is None and sigma != EIG_SIGMA:
        sigma = EIG_SIGMA
        cert = certify_shift(asm, sigma)
    if cert is None:
        raise MMatrixError(f"K - sigma B is not an M-matrix at "
                           f"sigma = {sigma}")
    lu, x = cert
    del cert
    K, b = asm.stiffness, asm.mass.diagonal()
    v, tried, solves = x / x.max(), sigma, 1
    low, q = sigma, _rayleigh(K, b, v)
    while solves < MAX_SOLVES:
        w, v = v, lu.solve(b * v)
        solves += 1
        # (K - sigma B) v = B w, so the Collatz-Wielandt bound of v is
        # sigma + min w/v
        low_v, v = sigma + (w / v).min(), v / v.max()
        q_v = _rayleigh(K, b, v)
        narrowed = (q - q_v) + (low_v - low)
        if min(q_v - low_v, narrowed) <= EIG_TOL * abs(q_v):
            break
        low, q = low_v, q_v
        if low - 2.0 * SHIFT_GAP > tried:
            tried = low - SHIFT_GAP
            moved = certify_shift(asm, tried)
            solves += 1
            if moved is not None:
                lu, sigma = moved[0], tried
            del moved
    else:
        raise MMatrixError(f"inverse iteration did not settle in "
                           f"{MAX_SOLVES} solves (sigma = {sigma})")
    del lu                                # no copy of |K| beside the LU
    lower, upper = _bracket(K, b, v)
    if not lower > sigma:
        raise MMatrixError(f"the Collatz-Wielandt bound {lower} of the last "
                           f"iterate is not above sigma = {sigma}")
    return EigEstimate(lambda_min=upper, lower=lower, iterations=solves,
                       shift=sigma, vector=v)


def _rayleigh(K, b: np.ndarray, v: np.ndarray) -> float:
    """v.Kv / v.Bv in plain floats, by solver._dot."""
    return float(_dot(v, K @ v) / _dot(v, b * v))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53, rounded up: a computed sum of k
    terms, in any order, is off by at most gamma_k times the sum of their
    magnitudes."""
    ku = k * 2.0**-53
    return float(_up(ku / _down(1.0 - ku)))


def _sum_up(t: np.ndarray) -> float:
    """An upper bound of the exact sum of the floats t.  The computed sum of
    |t| undercounts the exact one by at most a factor 1 - gamma_n, which
    gamma_2n in place of gamma_n absorbs."""
    err = _up(_gamma(2 * t.size) * np.abs(t).sum())
    return float(_up(t.sum() + err))


def _bracket(K, b: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(lower, upper) around lambda_min of the float pencil (K, diag b), K a
    symmetric Z-matrix and b > 0: upper bounds the Rayleigh quotient
    v.Kv / v.Bv from above, and lower the Collatz-Wielandt bound
    min_i (Kv)_i / (Bv)_i from below (-inf unless v > 0).  A row of Kv sums
    at most r products, so it is off by at most gamma_2r times the computed
    row of |K| |v|; every other product and quotient is rounded out by
    rigor's two ulps, each quotient over the end of the divisor's range
    that bounds it."""
    av = np.abs(v)
    kv = K @ v
    slack = _up(_gamma(2 * np.diff(K.indptr).max()) * (abs(K) @ av))
    kv_lo, kv_hi = _down(kv - slack), _up(kv + slack)
    bv_lo, bv_hi = _down(b * av), _up(b * av)
    lower = -np.inf
    if v.min() > 0.0:
        ratio = kv_lo / np.where(kv_lo >= 0.0, bv_hi, bv_lo)
        lower = float(_down(ratio).min())
    num_hi = _sum_up(_up(v * np.where(v >= 0.0, kv_hi, kv_lo)))
    den = (-_sum_up(-_down(bv_lo * av)) if num_hi >= 0.0
           else _sum_up(_up(bv_hi * av)))
    return lower, float(_up(num_hi / den))
