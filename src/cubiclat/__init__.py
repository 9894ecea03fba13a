"""Exact integral-lattice toolkit and certificate suite.

The API lives in the submodules (``cubiclat.core``, ``cubiclat.catalog``,
``cubiclat.shortvec``, ...); the package re-exports only the exceptions.
"""

from .core import (
    BadSplitting,
    CrossCheckFailed,
    DegenerateLattice,
    DependentSpan,
    DoesNotFit,
    IndefiniteLattice,
    LatticeError,
    Not2Elementary,
    NotAHassettDiscriminant,
    NotIntegral,
    NotIsotropic,
    NoRepresentation,
    NotRootGenerated,
    ParityError,
    TooLarge,
    TooManyVectors,
    UnknownLattice,
    ZeroVector,
)

__all__ = [
    "BadSplitting", "CrossCheckFailed", "DegenerateLattice", "DependentSpan",
    "DoesNotFit", "IndefiniteLattice", "LatticeError", "Not2Elementary",
    "NotAHassettDiscriminant", "NotIntegral", "NotIsotropic",
    "NoRepresentation", "NotRootGenerated", "ParityError", "TooLarge",
    "TooManyVectors", "UnknownLattice", "ZeroVector",
]
__version__ = "0.1.0"
