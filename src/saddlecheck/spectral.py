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
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlecheck.solver import LU_ORDERING, SaddleSolution, weighted_form


@dataclass(frozen=True)
class QuadraticFormAssembly:
    stiffness: sp.csr_matrix = field(repr=False)
    mass: sp.dia_matrix = field(repr=False)
    node_index: np.ndarray = field(repr=False)   # (N+1,N+1) -> dof or -1
    m: int
    R: float
    h: float

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
    grid, m = sol.grid, sol.params.m
    N = grid.N
    K, V = weighted_form(m, grid)
    i, j = np.nonzero(grid.mask_triangle[:N])
    node_index = -np.ones((N + 1, N + 1), dtype=np.int64)
    node_index[i, j] = np.arange(i.size)
    flat = i * (N + 1) + j
    vol = V[i, j]
    stiffness = K[flat][:, flat] + sp.diags((3.0 * sol.u[i, j]**2 - 1.0) * vol)
    return QuadraticFormAssembly(stiffness=stiffness.tocsr(),
                                 mass=sp.diags(vol), node_index=node_index,
                                 m=m, R=grid.R, h=grid.h)


def rayleigh_quotient(asm: QuadraticFormAssembly, v_full: np.ndarray) -> float:
    """Quadratic-form ratio for a test field given on the full grid (its
    values on the triangle, mirrored)."""
    keep = asm.node_index >= 0
    v = np.zeros(asm.n_dof)
    v[asm.node_index[keep]] = v_full[keep]
    num = float(v @ (asm.stiffness @ v))
    den = float(v @ (asm.mass @ v))
    return num / den


def min_eigenvalue(asm: QuadraticFormAssembly, tol: float = 1e-10,
                   sigma: float = -1.05, dense: bool = False) -> EigEstimate:
    """Smallest generalized eigenvalue of (K, B).

    Shift-invert Lanczos around sigma (below the spectrum: the potential
    3u^2-1 >= -1 bounds it) with a deterministic start vector and one LU of
    the symmetric K - sigma B in solver.LU_ORDERING, the minimum-degree
    ordering of the Newton solve; `iterations` counts the solves with it.  dense=True uses
    LAPACK on the full matrices as an independent oracle; only sensible on
    coarse grids.
    """
    K, B = asm.stiffness, asm.mass
    if dense:
        w = scipy.linalg.eigh(K.toarray(), B.toarray(), eigvals_only=True,
                              subset_by_index=[0, 0])
        lam = float(w[0])
        return EigEstimate(lambda_min=lam, residual=0.0, iterations=0,
                           vector=np.zeros(asm.n_dof))
    lu = spla.splu((K - sigma * B).tocsc(), permc_spec=LU_ORDERING)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    op_inv = spla.LinearOperator(K.shape, matvec=solve, dtype=K.dtype)
    v0 = np.ones(asm.n_dof)
    w, V = spla.eigsh(K, k=1, M=B, sigma=sigma, which="LM", v0=v0, tol=tol,
                      OPinv=op_inv)
    lam = float(w[0])
    vec = V[:, 0]
    res = float(np.linalg.norm(K @ vec - lam * (B @ vec))
                / np.linalg.norm(B @ vec))
    return EigEstimate(lambda_min=lam, residual=res, iterations=solves,
                       vector=vec)


def eigenvector_field(asm: QuadraticFormAssembly, est: EigEstimate) -> np.ndarray:
    """Scatter an eigenvector onto the (N+1, N+1) grid, mirrored across the
    cone (zeros on the outer Dirichlet edges)."""
    out = np.zeros(asm.node_index.shape)
    keep = asm.node_index >= 0
    out[keep] = est.vector[asm.node_index[keep]]
    return out + np.tril(out, -1).T


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
