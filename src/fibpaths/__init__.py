"""Exact enumeration of Fibonacci-colored Motzkin path families.

Four families of lattice paths with unit up/down steps and horizontal runs
of length l weighted by the k-Fibonacci number F_{k,l} are counted by five
independent methods (closed generating functions, continued fractions,
truncated weighted automata, coefficient-sum formulas, brute-force path
counting) that cross-verify each other exactly.
"""

from ._backend import BACKEND
from .brute import count_paths
from .families import FAMILIES, METHODS, PathCountReport, gf, sequence, verify_methods
from .series import Series, one, poly, zero

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "FAMILIES",
    "METHODS",
    "PathCountReport",
    "Series",
    "__version__",
    "count_paths",
    "gf",
    "one",
    "poly",
    "sequence",
    "verify_methods",
    "zero",
]
