"""Exact arithmetic for Matsuo algebras of 3-transposition groups.

Construction of the algebras over Q, prime fields and quadratic extensions,
their derivation Lie algebras, near-solid line classification of the
underlying Fischer spaces, and explicit automorphism constructions for the
two exceptional families.
"""

__version__ = "1.0.0"

from .fields import Field, parse_field
from .fischer import FischerSpace, space_of
from .roots import RootSystem, parse_root_system
from .transpo import CATALOG, TranspoGroup, parse_group

__all__ = [
    "CATALOG",
    "Field",
    "FischerSpace",
    "RootSystem",
    "TranspoGroup",
    "__version__",
    "parse_field",
    "parse_group",
    "parse_root_system",
    "space_of",
]
