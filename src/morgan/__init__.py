"""Exact solver for Morgan's problem: diagonal decoupling of nonsquare
state-space systems by state feedback with a singular input transformation.

All arithmetic is over Q (big-integer rationals), so every reported result
is exact.  See the README for the CLI and the file formats.
"""

from .canonical import StateSpace, to_pencil_form
from .decouple import (
    DecouplingSolution,
    NoSolution,
    SolveOptions,
    solve,
)
from .exactalg import Poly, RationalMatrix, parse_poly, rat

__all__ = [
    "StateSpace",
    "to_pencil_form",
    "DecouplingSolution",
    "NoSolution",
    "SolveOptions",
    "solve",
    "Poly",
    "RationalMatrix",
    "parse_poly",
    "rat",
]

__version__ = "0.1.0"
