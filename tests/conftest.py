"""Shared fixtures: solved fields are expensive, so they are memoized for
the whole session and shared across test modules."""

from functools import lru_cache

import pytest

from saddlecheck.grid import build_grid
from saddlecheck.solver import newton_solve


@lru_cache(maxsize=None)
def _solve(m: int, R: float, h: float):
    return newton_solve(m, build_grid(R, h))


@pytest.fixture(scope="session")
def solved():
    """Memoized solver: solved(m, R, h) -> SaddleSolution with derivatives."""
    return _solve


@pytest.fixture(scope="session")
def sol_m4(solved):
    return solved(4, 12.0, 0.05)


@pytest.fixture(scope="session")
def sol_m1(solved):
    return solved(1, 12.0, 0.05)


@pytest.fixture(scope="session")
def sol_m4_coarse(solved):
    return solved(4, 12.0, 0.1)
