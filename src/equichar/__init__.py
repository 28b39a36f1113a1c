"""Exact symmetric-group-equivariant Poincare-Serre polynomials of weighted
pointed rational curve spaces, with a self-verifying symmetric function
kernel.
"""

from .qpoly import ExactDivisionError, QPoly
from .symfunc import POWERSUM, SCHUR, SymFunc, powersum, schur
from .bigraded import BiSymFunc
from .moduli import CacheError, CharacterCalculator
from .lengths import length_theorem_report
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BiSymFunc",
    "CacheError",
    "CharacterCalculator",
    "ExactDivisionError",
    "POWERSUM",
    "QPoly",
    "SCHUR",
    "SymFunc",
    "length_theorem_report",
    "powersum",
    "run_suite",
    "schur",
    "__version__",
]
