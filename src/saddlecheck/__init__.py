"""saddlecheck: solve-and-verify toolkit for Allen-Cahn saddle solutions.

Computes the saddle solution of the Allen-Cahn equation in the doubly-radial
reduction, evaluates a supersolution candidate for the linearized operator,
checks a catalog of derivative inequalities on the computed solution, estimates
the principal eigenvalue of the linearization, and proves the closed-form sign
claims with interval branch-and-bound.
"""

__version__ = "0.1.0"

from saddlecheck.candidate import CandidateParams
from saddlecheck.grid import Grid, build_grid
from saddlecheck.solver import SaddleSolution, newton_solve
from saddlecheck.checks import run_inequality_suite, verify_supersolution
from saddlecheck.spectral import assemble, min_eigenvalue
from saddlecheck.rigor import builtin_expressions, prove_nonpositive
from saddlecheck.cache import load_or_solve

__all__ = [
    "CandidateParams",
    "Grid",
    "build_grid",
    "SaddleSolution",
    "newton_solve",
    "run_inequality_suite",
    "verify_supersolution",
    "assemble",
    "min_eigenvalue",
    "builtin_expressions",
    "prove_nonpositive",
    "load_or_solve",
]

