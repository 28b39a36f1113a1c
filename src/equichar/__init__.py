"""Exact symmetric-group-equivariant Poincare-Serre polynomials of weighted
pointed rational curve spaces, with a self-verifying symmetric function
kernel.
"""

from .partitions import (
    centralizer_order,
    compare,
    conjugate,
    irrep_dimension,
    partitions_of,
    union,
)
from .qpoly import ExactDivisionError, QPoly
from .symfunc import POWERSUM, SCHUR, SymFunc, character_value, one, powersum, schur
from .bigraded import BiSymFunc, restrict_full
from .moduli import (
    CacheError,
    CharacterCalculator,
    base_level,
    blowup_fiber_character,
    git_base_even,
    git_base_odd,
    git_polynomial,
)
from .lengths import (
    LengthReport,
    LengthRow,
    exceptional_degrees,
    exceptional_lambda,
    leading_partition,
    length_theorem_report,
    plethysm_leading_partition,
    rep_length,
    star_property,
)
from .oracles import MonomialPoly, expand, jacobi_trudi_to_powersum, oracle_plethysm
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BiSymFunc",
    "CacheError",
    "CharacterCalculator",
    "ExactDivisionError",
    "LengthReport",
    "LengthRow",
    "MonomialPoly",
    "POWERSUM",
    "QPoly",
    "SCHUR",
    "SymFunc",
    "base_level",
    "blowup_fiber_character",
    "centralizer_order",
    "character_value",
    "compare",
    "conjugate",
    "exceptional_degrees",
    "exceptional_lambda",
    "expand",
    "git_base_even",
    "git_base_odd",
    "git_polynomial",
    "irrep_dimension",
    "jacobi_trudi_to_powersum",
    "leading_partition",
    "length_theorem_report",
    "one",
    "oracle_plethysm",
    "partitions_of",
    "plethysm_leading_partition",
    "powersum",
    "rep_length",
    "restrict_full",
    "run_suite",
    "schur",
    "star_property",
    "union",
    "__version__",
]
