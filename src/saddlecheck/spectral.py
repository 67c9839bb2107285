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
On that coarsest level sigma starts at EIG_SIGMA, below the spectrum since
the potential 3u^2-1 is >= -1, and moves up as the iterates close in.
sigma is only a shift: it sets the speed of the iteration and bounds
nothing.  The last iterate v brackets lambda_min of the float pencil
between the Collatz-Wielandt bound min_i (Kv)_i/(Bv)_i and the Rayleigh
quotient, both rounded outward.  The lower end holds for any v > 0 once K
is a symmetric Z-matrix and B a positive diagonal (Varga, Matrix Iterative
Analysis, Springer 2000, ch. 2): the edge Laplacian's off-diagonals are
-w <= 0, the potential touches only the diagonal, and both premises are
checked exactly.  That is lambda_min of the discrete, Dirichlet-truncated,
even-sector pencil, which falls with R: a negative bracket reproduces the
known instability for m <= 3; for m >= 4 a positive one is a consistency
indicator (the stability proof itself goes through the supersolution
certificate, not this pencil).
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
    lambda_min].  shift is only the last sigma of the iteration, below
    lower: no bound, and no gate reads it."""
    lambda_min: float        # Rayleigh quotient of vector, rounded up
    lower: float             # Collatz-Wielandt bound of vector, rounded down
    iterations: int          # solves with this pencil's LUs
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
    Z-matrix or B not a positive diagonal, inverse iteration did not settle
    within MAX_SOLVES solves, its last iterate is not positive, or the
    bracket's rounded lower end is not above the last sigma.  The last two
    are what a sigma above lambda_min leads to."""


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

    First checks exactly that K is a symmetric Z-matrix and B a positive
    diagonal, the premises of the bracket.  The shift sigma is SHIFT_GAP
    below min_eigenvalue of the coarse pencil, or EIG_SIGMA when there is
    none; it is only a shift and bounds nothing.  Inverse iteration on an
    LU of K - sigma B in solver.LU_ORDERING, v <- (K - sigma B)^-1 (B w) and
    v /= max v for the last iterate w, starts from (K - sigma B)^-1 1.
    After each solve the bracket's plain-float ends are the Collatz-Wielandt
    bound sigma + min w/v and the Rayleigh quotient q; the iteration stops
    once they are at most EIG_TOL |q| apart, or came closer by at most that
    in the solve (so it also stops where rounding keeps the ends wider
    apart).  From EIG_SIGMA each solve shrinks the second mode by only
    (lambda_1 + 1.05) / (lambda_2 + 1.05), near 1 on a large domain, so
    once the bound lies more than 2 SHIFT_GAP above sigma, sigma moves to
    SHIFT_GAP under it: the LU is released, then the new one made, so one
    LU is alive at a time.  `iterations` counts the solves and `shift` is
    the last sigma.  With the LU released, _bracket bounds lambda_min on the
    last v.  MMatrixError if a premise fails, after MAX_SOLVES solves, if
    the last iterate is not positive (as it can be when sigma lies above
    lambda_min and nearer the next eigenvalue), or if the rounded lower end
    is not above the last sigma (as when sigma lies above lambda_min and
    nearer it): that bracket holds but bounds nothing useful.
    """
    K, B = asm.stiffness, asm.mass
    b = B.diagonal()
    _check_z_matrix(K)
    if not (b > 0.0).all():
        raise MMatrixError("B has a diagonal entry that is not positive")
    sigma = EIG_SIGMA
    if asm.coarse is not None:
        sigma = min_eigenvalue(asm.coarse).lambda_min - SHIFT_GAP
    lu = spla.splu((K - sigma * B).tocsc(), permc_spec=LU_ORDERING)
    v = lu.solve(np.ones(asm.n_dof))
    v, solves = v / v.max(), 1
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
        if low - 2.0 * SHIFT_GAP > sigma:
            sigma = low - SHIFT_GAP
            del lu
            lu = spla.splu((K - sigma * B).tocsc(), permc_spec=LU_ORDERING)
    else:
        raise MMatrixError(f"inverse iteration did not settle in "
                           f"{MAX_SOLVES} solves (sigma = {sigma})")
    del lu                                # no copy of |K| beside the LU
    if not v.min() > 0.0:
        raise MMatrixError(f"the last iterate is not positive "
                           f"(sigma = {sigma})")
    lower, upper = _bracket(K, b, v)
    if not lower > sigma:
        raise MMatrixError(f"the rounded lower end {lower} is not above "
                           f"the last shift sigma = {sigma}")
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
    symmetric Z-matrix, b > 0 and v > 0: upper bounds the Rayleigh quotient
    v.Kv / v.Bv from above, and lower the Collatz-Wielandt bound
    min_i (Kv)_i / (Bv)_i from below.  A row of Kv sums at most r products,
    so it is off by at most gamma_2r times the computed row of |K| v; every
    other product and quotient is rounded out by rigor's two ulps, each
    quotient over the end of the divisor's range that bounds it."""
    kv = K @ v
    slack = _up(_gamma(2 * np.diff(K.indptr).max()) * (abs(K) @ v))
    kv_lo, kv_hi = _down(kv - slack), _up(kv + slack)
    bv_lo, bv_hi = _down(b * v), _up(b * v)
    ratio = kv_lo / np.where(kv_lo >= 0.0, bv_hi, bv_lo)
    num_hi = _sum_up(_up(v * kv_hi))
    den = (-_sum_up(-_down(bv_lo * v)) if num_hi >= 0.0
           else _sum_up(_up(bv_hi * v)))
    return float(_down(ratio).min()), float(_up(num_hi / den))
