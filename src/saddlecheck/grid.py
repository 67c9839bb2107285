"""Uniform grid on the truncated triangle {0 <= t <= s <= R}.

The diagonal s = t carries homogeneous Dirichlet data (the solution vanishes
on the cone) and the outer edge s = R carries Dirichlet data supplied by the
solver.  The unknowns are the other nodes, j < i < N: the axis t = 0, handled
with even-reflection ghosts, and the plain interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

H_MAX = 0.2            # coarsest spacing build_grid accepts

# The largest N = R/h build_grid accepts.  The scale grid (N = 800) peaks at
# about 484 MB, in the eigensolve's LU, and the peak grows like N^2, so
# N = 4,000 would need about 12 GB: a larger grid is refused before anything
# is allocated.  Like cli.MAX_M, the bound is fixed here, not a setting.
N_MAX = 4000


@dataclass(frozen=True)
class Grid:
    R: float
    h: float
    N: int
    ii: np.ndarray = field(repr=False)         # s-indices of unknowns
    jj: np.ndarray = field(repr=False)         # t-indices of unknowns

    @property
    def coords(self) -> np.ndarray:
        """1-D array of node coordinates along either axis."""
        return np.arange(self.N + 1) * self.h

    @property
    def n_unknowns(self) -> int:
        return self.ii.size

    @property
    def mask_triangle(self) -> np.ndarray:
        """Boolean (N+1, N+1) mask of nodes with t <= s."""
        idx = np.arange(self.N + 1)
        return idx[None, :] <= idx[:, None]

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-quadrant coordinate arrays S[i, j] = i*h, T[i, j] = j*h."""
        c = self.coords
        return np.meshgrid(c, c, indexing="ij")


def grid_size(R: float, h: float) -> int:
    """N = R/h once the settings pass the rules of build_grid: 0 < h <= H_MAX,
    finite R >= 8 and R/h an integer at most N_MAX; raises ValueError
    otherwise."""
    if not 0.0 < h <= H_MAX:
        raise ValueError(f"spacing must satisfy 0 < h <= {H_MAX:g}, got h={h}")
    if not 8.0 <= R < float("inf"):
        raise ValueError(f"truncation radius must be >= 8 and finite, "
                         f"got R={R}")
    ratio = R / h
    if not ratio < N_MAX + 0.5:         # an overflowing R/h is inf
        raise ValueError(f"R/h must be at most {N_MAX}, got R={R}, h={h} "
                         f"(R/h={ratio:g})")
    N = int(round(ratio))
    if abs(ratio - N) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"R/h must be an integer, got R={R}, h={h} (R/h={ratio})")
    return N


def build_grid(R: float, h: float) -> Grid:
    """Build the triangle grid; R/h must be an integer (see grid_size)."""
    N = grid_size(R, h)
    idx = np.arange(N + 1)
    ii, jj = np.nonzero((idx[None, :] < idx[:, None]) & (idx[:, None] < N))
    return Grid(R=float(R), h=float(h), N=N, ii=ii, jj=jj)
