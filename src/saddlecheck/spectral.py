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
the outer edge.  The shift-invert LU uses the Newton solve's symmetric
minimum-degree ordering.  Negative lambda_min reproduces the known instability for
m <= 3; for m >= 4 it is a one-sided consistency indicator (the stability
proof itself goes through the supersolution certificate, not this pencil).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlecheck.solver import LU_ORDERING, SaddleSolution, weighted_form

EIG_SIGMA = -1.05        # shift below the spectrum
EIG_TOL = 1e-10          # eigsh convergence tolerance


@dataclass(frozen=True)
class QuadraticFormAssembly:
    stiffness: sp.csr_matrix = field(repr=False)
    mass: sp.dia_matrix = field(repr=False)

    @property
    def n_dof(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class EigEstimate:
    lambda_min: float
    residual: float
    iterations: int          # shift-invert solves
    vector: np.ndarray = field(repr=False)


def assemble(sol: SaddleSolution) -> QuadraticFormAssembly:
    """Build the even-sector pencil (K + diag(V(3u^2-1)), diag(V)) from a
    solved field; the dofs are the triangle nodes with s < R."""
    grid = sol.grid
    N = grid.N
    K, V = weighted_form(sol.params.m, grid)
    i, j = np.nonzero(grid.mask_triangle[:N])
    flat = i * (N + 1) + j
    vol = V[i, j]
    stiffness = K[flat][:, flat] + sp.diags((3.0 * sol.u[i, j]**2 - 1.0) * vol)
    return QuadraticFormAssembly(stiffness=stiffness.tocsr(),
                                 mass=sp.diags(vol))


def min_eigenvalue(asm: QuadraticFormAssembly) -> EigEstimate:
    """Smallest generalized eigenvalue of (K, B).

    Shift-invert Lanczos around EIG_SIGMA (below the spectrum: the potential
    3u^2-1 >= -1 bounds it) to EIG_TOL, with a deterministic start vector
    and one LU of the symmetric K - sigma B in solver.LU_ORDERING, the
    minimum-degree ordering of the Newton solve; `iterations` counts the
    solves with it.
    """
    K, B = asm.stiffness, asm.mass
    lu = spla.splu((K - EIG_SIGMA * B).tocsc(), permc_spec=LU_ORDERING)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    op_inv = spla.LinearOperator(K.shape, matvec=solve, dtype=K.dtype)
    v0 = np.ones(asm.n_dof)
    w, V = spla.eigsh(K, k=1, M=B, sigma=EIG_SIGMA, which="LM", v0=v0,
                      tol=EIG_TOL, OPinv=op_inv)
    lam = float(w[0])
    vec = V[:, 0]
    res = float(np.linalg.norm(K @ vec - lam * (B @ vec))
                / np.linalg.norm(B @ vec))
    return EigEstimate(lambda_min=lam, residual=res, iterations=solves,
                       vector=vec)


class CertificateError(RuntimeError):
    """Prerequisite reports failed or do not match the solution."""


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def report_digest(report) -> str:
    payload = {k: getattr(report, k) for k in
               ("id", "passed", "worst_margin", "tolerance_used",
                "nodes_checked")}
    return _digest(payload)


def stability_certificate(sol: SaddleSolution, cand, reports) -> dict:
    """Record the supersolution-based stability conclusion.

    `reports` must contain a passing supersolution report (and may carry the
    inequality suite).  Refuses if any report failed or the dimension
    mismatches.
    """
    if sol.params.m != cand.m:
        raise CertificateError("solution/candidate dimension mismatch")
    if not reports:
        raise CertificateError("no verification reports supplied")
    for rep in reports:
        if not rep.passed:
            raise CertificateError(f"prerequisite report {rep.id} failed")
    if not any(r.id.startswith("supersolution") for r in reports):
        raise CertificateError("missing supersolution report")
    return {
        "schema": "stability-certificate/1",
        "n": cand.n,
        "m": sol.params.m,
        "grid": {"R": sol.grid.R, "h": sol.grid.h},
        "conclusion": "stable",
        "basis": "positive supersolution of the linearized operator",
        "solution_sha256": _digest(sol.u),
        "report_sha256": [report_digest(r) for r in reports],
        "report_ids": [r.id for r in reports],
    }
