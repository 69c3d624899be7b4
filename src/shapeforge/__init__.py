"""Exact shape enumeration for noninteracting identical particles.

Shapes are the free-module generators of the antisymmetric polynomials
over the symmetric ones; this package counts them, generates them by
descent with shift-operator words, and certifies completeness with
exact integer linear algebra.
"""

from .engine import (
    EngineConfig,
    EnumerationResult,
    IncompletenessError,
    NotationRegressionError,
    build_vocabulary,
    enumerate_shapes,
    express_in_basis,
    verify_completeness,
    verify_sign_conflict,
)
from .multipoly import MPoly, antisymmetrize, slater_basis, source_shape
from .qseries import (
    QPoly,
    Statistics,
    degree_D,
    ground_grade,
    shape_entropy,
    shape_poly,
    state_count_series,
)
from .shiftops import SymWord, Word, apply_symword, symword, word

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "EnumerationResult",
    "IncompletenessError",
    "MPoly",
    "NotationRegressionError",
    "QPoly",
    "Statistics",
    "SymWord",
    "Word",
    "antisymmetrize",
    "apply_symword",
    "build_vocabulary",
    "degree_D",
    "enumerate_shapes",
    "express_in_basis",
    "ground_grade",
    "shape_entropy",
    "shape_poly",
    "slater_basis",
    "source_shape",
    "state_count_series",
    "symword",
    "verify_completeness",
    "verify_sign_conflict",
    "word",
]
