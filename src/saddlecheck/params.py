"""Dimension parameters and coordinate conversions.

The problem lives in R^n = R^m x R^m with radial coordinates s, t, and the
rotated frame y = (s+t)/sqrt(2), z = (s-t)/sqrt(2).  The open wedge
Omega = {s > t > 0} maps to {y > 0, 0 < z < y}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)

CANDIDATE_DIMENSIONS = (8, 10, 12)


@dataclass(frozen=True)
class DimensionParams:
    """Factor dimension m; ambient dimension n = 2m."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"factor dimension must be >= 1, got m={self.m}")

    @property
    def n(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class CandidateParams:
    """Parameters of the supersolution candidate Phi = f*u_s + h*u_t + Phi0.

    The power carried by f and h is (n-3)/2, which must lie strictly between
    the magnitudes of the indicial roots of a^2 + (n-3)a + (n-2) = 0.  The
    small additive term Phi0 = c*(s^-p exp(-t/3) + t^-p exp(-s/3)) fixes the
    far field, where f*u_s + h*u_t decays too fast to stay a supersolution.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n not in CANDIDATE_DIMENSIONS:
            raise ValueError(
                f"candidate defined for n in {CANDIDATE_DIMENSIONS}, got n={self.n}"
            )

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def decay_exponent(self) -> float:
        return (self.n - 3) / 2.0

    @property
    def phi0_coeff(self) -> float:
        return 0.00007 if self.n == 8 else 0.001

    @property
    def phi0_exponent(self) -> float:
        return 1.8 if self.n == 8 else (self.n - 4) / 2.0

    @property
    def has_exp_term(self) -> bool:
        return self.n == 8


def st_to_yz(s, t):
    """Rotate (s, t) to (y, z) with y = (s+t)/sqrt(2), z = (s-t)/sqrt(2)."""
    return (s + t) / SQRT2, (s - t) / SQRT2

