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
    R >= 8 and R/h an integer; raises ValueError otherwise."""
    if h <= 0.0 or h > H_MAX:
        raise ValueError(f"spacing must satisfy 0 < h <= {H_MAX:g}, got h={h}")
    if R < 8.0:
        raise ValueError(f"truncation radius must be >= 8, got R={R}")
    ratio = R / h
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
