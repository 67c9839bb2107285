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

The eigensolve is shift-invert Lanczos on one LU of K - sigma B, in the
Newton solve's symmetric minimum-degree ordering.  The shift sits just
below the eigenvalue: SHIFT_GAP under the eigenvalue of the same pencil on
the coarsest level of solver.grid_chain.  K - sigma B is a symmetric
Z-matrix (the edge Laplacian's off-diagonals are -w <= 0; the potential and
sigma touch only the diagonal), so one solve x = (K - sigma B)^-1 1 with x > 0
and (K - sigma B) x > 0 proves it a nonsingular M-matrix, hence positive
definite: every eigenvalue lies above sigma, and the one Lanczos finds
nearest sigma is the smallest (Berman & Plemmons, Nonnegative Matrices in
the Mathematical Sciences, SIAM 1994, ch. 6).  If that fails, the shift
falls back to EIG_SIGMA, below the spectrum since the potential 3u^2-1 is
>= -1.  Negative lambda_min reproduces the known instability for m <= 3;
for m >= 4 it is a one-sided consistency indicator (the stability proof
itself goes through the supersolution certificate, not this pencil).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from saddlecheck import __version__
from saddlecheck.grid import Grid
from saddlecheck.solver import (LU_ORDERING, SaddleSolution, grid_chain,
                                jacobian, node_block, sp, spla,
                                weighted_form)

EIG_SIGMA = -1.05        # shift below the spectrum
EIG_TOL = 1e-10          # eigsh convergence tolerance
SHIFT_GAP = 0.01         # near shift: coarse-grid eigenvalue minus this
EIG_NCV = 6              # Lanczos vectors


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
    lambda_min: float
    residual: float
    iterations: int          # solves with the LU, the certificate's included
    shift: float             # certified lower bound of the spectrum
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
    """certify_shift rejected every shift min_eigenvalue tried."""


def certify_shift(asm: QuadraticFormAssembly, sigma: float):
    """(LU of K - sigma B, x = LU^-1 1) if x > 0 and (K - sigma B) x > 0,
    else None.

    K - sigma B is a symmetric Z-matrix, and those two conditions make it a
    nonsingular M-matrix, so positive definite: every eigenvalue of the
    pencil exceeds sigma.  One LU in solver.LU_ORDERING, one solve and one
    matvec; on a rejection the LU is released before this returns.
    """
    K, B = asm.stiffness, asm.mass
    lu = spla.splu((K - sigma * B).tocsc(), permc_spec=LU_ORDERING)
    x = lu.solve(np.ones(asm.n_dof))
    if x.min() > 0.0 and (K @ x - sigma * (B @ x)).min() > 0.0:
        return lu, x
    return None


def min_eigenvalue(asm: QuadraticFormAssembly) -> EigEstimate:
    """Smallest generalized eigenvalue of (K, B).

    The shift is SHIFT_GAP below min_eigenvalue of the coarse pencil, or
    EIG_SIGMA when there is none or certify_shift rejects the near shift;
    EIG_SIGMA is certified the same way.  Shift-invert Lanczos with EIG_NCV
    vectors, started from the certificate's solve, runs to EIG_TOL on that
    one LU; `iterations` counts every solve with it, the certificate's
    included, and `shift` is the certified lower bound.  MMatrixError if
    EIG_SIGMA is rejected too.
    """
    K, B = asm.stiffness, asm.mass
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
    solves = 1

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    op_inv = spla.LinearOperator(K.shape, matvec=solve, dtype=K.dtype)
    w, V = spla.eigsh(K, k=1, M=B, sigma=sigma, which="LM", v0=x,
                      ncv=EIG_NCV, tol=EIG_TOL, OPinv=op_inv)
    lam = float(w[0])
    vec = V[:, 0]
    res = float(np.linalg.norm(K @ vec - lam * (B @ vec))
                / np.linalg.norm(B @ vec))
    return EigEstimate(lambda_min=lam, residual=res, iterations=solves,
                       shift=sigma, vector=vec)


class CertificateError(RuntimeError):
    """Prerequisite reports failed or do not match the solution."""


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def report_digest(check: dict) -> str:
    """sha256 of a check entry of report.json, on the keys that judge it."""
    return _digest({k: check[k] for k in
                    ("id", "passed", "worst_margin", "tolerance_used",
                     "nodes_checked")})


def stability_certificate(sol: SaddleSolution, checks) -> dict:
    """Record the supersolution-based stability conclusion, with the
    version of the package that reached it.

    `checks` are the report's check entries, as run_inequality_suite and
    verify_supersolution return them, the suite's and then the
    supersolution's: cli.run_stages passes them when cli._failures, its
    one failure function, finds nothing failed.  Refuses if a check
    failed or none is supersolution-n<n>, n = 2 sol.m (so an empty list).
    """
    n = 2 * sol.m
    for check in checks:
        if not check["passed"]:
            raise CertificateError(f"prerequisite report {check['id']} failed")
    if not any(c["id"] == f"supersolution-n{n}" for c in checks):
        raise CertificateError(f"missing supersolution-n{n} report")
    return {
        "schema": "stability-certificate/1",
        "n": n,
        "m": sol.m,
        "grid": {"R": sol.grid.R, "h": sol.grid.h},
        "conclusion": "stable",
        "basis": "positive supersolution of the linearized operator",
        "solution_sha256": _digest(sol.u),
        "report_sha256": [report_digest(c) for c in checks],
        "report_ids": [c["id"] for c in checks],
        "package_version": __version__,
    }
