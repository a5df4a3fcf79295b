"""Exact arithmetic for gap sets of numerical semigroups and their invariants.

The package covers gap sets and the gap counting function, the polynomials
1 + (t-1) * sum t^g they encode, extraction of the k-coefficients from the
(t-1)^2 expansion, infimum (min-plus) convolution of gap functions, decision
procedures comparing k-coefficients against convolution and binomial bounds,
and an exhaustive multiset search for indices violating k_j <= I(j+1).
Each module's __all__ declares its public names; the root republishes them.
"""

from . import alexpoly, checkers, errors, gapset, infconv, search
from .alexpoly import *
from .checkers import *
from .errors import *
from .gapset import *
from .infconv import *
from .search import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += gapset.__all__
__all__ += alexpoly.__all__
__all__ += infconv.__all__
__all__ += checkers.__all__
__all__ += search.__all__
__all__ += errors.__all__
