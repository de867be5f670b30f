"""Locate high-codimension degenerate zeros of parameterized vector fields.

The library builds the nested level-determinant conditions symbolically,
solves them with a damped multistart Newton method, checks fullness and
subrank at every root, and reproduces the minor-counting combinatorics of
the corank-1 singularity hierarchy.
"""

__version__ = "0.1.0"

from .expr import (
    EvaluationError,
    ExprError,
    Expression,
    ParseError,
    Point,
    VectorField,
    compile_evaluator,
    differentiate,
    evaluate,
    format_vector_field,
    parse_vector_field,
    to_str,
)
from .determinants import (
    DEFAULT_TOL_B,
    DEFAULT_TOL_G,
    DeterminantSet,
    hadamard_bound,
    index_strings,
    is_nonzero,
    is_zero,
    numeric_rank,
    sym_det,
)
from .scenarios import (
    DomainError,
    PrimaryFormSpec,
    RD_KINDS,
    RdReference,
    make_primary_form,
    make_reaction_diffusion,
    rd_catastrophe_point,
)
from .solver import (
    CatastropheReport,
    NewtonResult,
    SolveOptions,
    SteadyStateCensus,
    classify,
    count_steady_states,
    find_catastrophes,
    stability_label,
)
from .boardman import (
    CapExceededError,
    MinorCount,
    ToleranceError,
    bg_condition_count,
    boardman_symbol,
    minor_count,
)

__all__ = [
    "__version__",
    "EvaluationError", "ExprError", "Expression", "ParseError", "Point",
    "VectorField", "compile_evaluator", "differentiate", "evaluate",
    "format_vector_field", "parse_vector_field", "to_str",
    "DEFAULT_TOL_B", "DEFAULT_TOL_G", "DeterminantSet", "hadamard_bound",
    "index_strings", "is_nonzero", "is_zero", "numeric_rank", "sym_det",
    "DomainError", "PrimaryFormSpec", "RD_KINDS", "RdReference",
    "make_primary_form", "make_reaction_diffusion", "rd_catastrophe_point",
    "CatastropheReport", "NewtonResult", "SolveOptions", "SteadyStateCensus",
    "classify", "count_steady_states", "find_catastrophes", "stability_label",
    "CapExceededError", "MinorCount", "ToleranceError",
    "bg_condition_count", "boardman_symbol", "minor_count",
]
