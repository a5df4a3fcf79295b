"""Exact arithmetic for gap sets of numerical semigroups and their invariants.

The package covers gap sets and the gap counting function, the polynomials
1 + (t-1) * sum t^g they encode, extraction of the k-coefficients from the
(t-1)^2 expansion, infimum (min-plus) convolution of gap functions, decision
procedures comparing k-coefficients against convolution and binomial bounds,
and an exhaustive multiset search for indices violating k_j <= I(j+1).
"""

from .alexpoly import (
    IntPolynomial,
    KSequence,
    alexander_from_gaps,
    divide_by_t_minus_one,
    expand_k_sequence,
    gaps_from_alexander,
    poly_mul,
)
from .checkers import (
    CheckReport,
    CheckRow,
    CurveSpec,
    check_bl,
    check_flmn,
    check_pair_inequality,
    product_k_closed_form,
    validate_spec,
)
from .errors import BadExpansion, ConfigInvalid, GenusMismatch, NotGapForm, NotNumerical
from .gapset import (
    GapFunction,
    GapSet,
    gap_function_eval,
    gaps_from_generators,
    is_semigroup_complement,
)
from .infconv import StepFunction, inf_conv_eval, inf_conv_n, inf_conv_pair, inf_conv_table
from .search import (
    SearchConfig,
    Violation,
    enumerate_gap_sets,
    search_violations,
    verify_violation,
)

__version__ = "0.1.0"

__all__ = [
    "GapSet",
    "GapFunction",
    "gaps_from_generators",
    "is_semigroup_complement",
    "gap_function_eval",
    "IntPolynomial",
    "KSequence",
    "alexander_from_gaps",
    "gaps_from_alexander",
    "poly_mul",
    "divide_by_t_minus_one",
    "expand_k_sequence",
    "StepFunction",
    "inf_conv_eval",
    "inf_conv_table",
    "inf_conv_pair",
    "inf_conv_n",
    "CurveSpec",
    "CheckRow",
    "CheckReport",
    "validate_spec",
    "product_k_closed_form",
    "check_pair_inequality",
    "check_bl",
    "check_flmn",
    "SearchConfig",
    "Violation",
    "enumerate_gap_sets",
    "search_violations",
    "verify_violation",
    "NotNumerical",
    "NotGapForm",
    "BadExpansion",
    "GenusMismatch",
    "ConfigInvalid",
    "__version__",
]
