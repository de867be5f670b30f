"""Locate high-codimension degenerate zeros of parameterized vector fields.

The library builds the nested level-determinant conditions symbolically,
solves them with a damped multistart Newton method, checks fullness and
subrank at every root, and reproduces the minor-counting combinatorics of
the corank-1 singularity hierarchy.
"""

__version__ = "0.1.0"

from .expr import Point, VectorField, parse_vector_field
from .determinants import DeterminantSet
from .scenarios import PrimaryFormSpec, make_primary_form, make_reaction_diffusion
from .solver import SolveOptions, count_steady_states, find_catastrophes
from .boardman import bg_condition_count, boardman_symbol, minor_count

__all__ = [
    "__version__",
    "parse_vector_field", "VectorField", "Point",
    "make_reaction_diffusion", "make_primary_form", "PrimaryFormSpec",
    "DeterminantSet", "SolveOptions", "find_catastrophes", "count_steady_states",
    "boardman_symbol", "minor_count", "bg_condition_count",
]
