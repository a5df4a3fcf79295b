"""Exact integer polynomials, gap-coded Alexander polynomials, and k-coefficients.

A gap set G encodes the polynomial 1 + (t-1) * sum of t^g over g in G.  Any
polynomial with P(1) = 1 and P'(1) = g expands as
1 + (t-1) g + (t-1)^2 * sum of k_j t^j, and the k_j are extracted here by
synthetic division.  All arithmetic is exact; Python integers never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .errors import BadExpansion, NotGapForm
from .gapset import GapSet, _is_int

__all__ = [
    "IntPolynomial",
    "KSequence",
    "alexander_from_gaps",
    "gaps_from_alexander",
    "poly_mul",
    "divide_by_t_minus_one",
    "expand_k_sequence",
]


def _trimmed_ints(values, what: str) -> tuple:
    """values as a tuple without trailing zeros; ValueError on a non-integer or a bool."""
    values = tuple(values)
    # one set test for the common all-int case; the loop names the offender
    if {*map(type, values)} - {int}:
        for v in values:
            if not _is_int(v):
                raise ValueError(f"{what} must be integers, got {v!r}")
    end = len(values)
    while end and values[end - 1] == 0:
        end -= 1
    return values[:end]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; index = exponent of t, no trailing zeros."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _trimmed_ints(self.coefficients, "coefficients"))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse comma-separated coefficients from the constant term upward."""
        try:
            coeffs = tuple(int(part) for part in text.strip().split(","))
        except ValueError:
            raise ValueError(f"malformed polynomial {text!r}") from None
        return cls(coeffs)

    def to_text(self) -> str:
        """Render as comma-separated coefficients, "0" for the zero polynomial."""
        if not self.coefficients:
            return "0"
        return ",".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class KSequence:
    """Coefficients k_j of the (t-1)^2 part of an expansion, trailing zeros trimmed."""

    genus: int
    ks: tuple[int, ...]

    def __post_init__(self):
        if not _is_int(self.genus) or self.genus < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {self.genus!r}")
        object.__setattr__(self, "ks", _trimmed_ints(self.ks, "k-coefficients"))

    def at(self, j: int) -> int:
        """k_j, with the implicit zero tail beyond the stored support."""
        if type(j) is not int and not _is_int(j) or j < 0:
            raise ValueError(f"index must be a nonnegative integer, got {j!r}")
        return self.ks[j] if j < len(self.ks) else 0

    def to_polynomial(self) -> IntPolynomial:
        """Rebuild 1 + (t-1) genus + (t-1)^2 * sum of k_j t^j."""
        coeffs = [0] * (len(self.ks) + 2)
        for j, k in enumerate(self.ks):
            coeffs[j] += k
            coeffs[j + 1] -= 2 * k
            coeffs[j + 2] += k
        coeffs[0] += 1 - self.genus
        coeffs[1] += self.genus
        return IntPolynomial(tuple(coeffs))


# An IntPolynomial is immutable, so each gap set's is built once and shared.
@lru_cache(maxsize=1024)
def alexander_from_gaps(gap_set: GapSet) -> IntPolynomial:
    """Polynomial 1 + (t-1) * sum of t^g over the gaps, expanded."""
    coeffs = [0] * (gap_set.max_gap + 2)
    coeffs[0] = 1
    for g in gap_set.elements:
        coeffs[g + 1] += 1
        coeffs[g] -= 1
    return IntPolynomial(tuple(coeffs))


def gaps_from_alexander(poly: IntPolynomial) -> GapSet:
    """Inverse of alexander_from_gaps; raises NotGapForm when no gap set fits.

    (P - 1) / (t - 1) must divide evenly into a 0/1 polynomial with zero
    constant term; its exponents with coefficient 1 are the gaps.
    """
    shifted = list(poly.coefficients)
    if not shifted:
        raise NotGapForm("P(1) = 0 != 1")
    shifted[0] -= 1
    quotient, remainder = _div_t1(shifted)
    if remainder != 0:
        raise NotGapForm(f"P(1) = {remainder + 1} != 1")
    if quotient and quotient[0] != 0:
        raise NotGapForm("constant term of (P-1)/(t-1) is nonzero; 0 cannot be a gap")
    gaps = []
    for exponent, c in enumerate(quotient):
        if c == 1:
            gaps.append(exponent)
        elif c != 0:
            raise NotGapForm(f"coefficient {c} at t^{exponent} of (P-1)/(t-1) not in {{0,1}}")
    return GapSet(tuple(gaps))


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact product."""
    return IntPolynomial(tuple(_mul(a.coefficients, b.coefficients)))


def divide_by_t_minus_one(poly: IntPolynomial) -> tuple[IntPolynomial, int]:
    """Quotient and remainder with P = (t-1) * quotient + remainder; remainder = P(1)."""
    quotient, remainder = _div_t1(list(poly.coefficients))
    return IntPolynomial(tuple(quotient)), remainder


def expand_k_sequence(poly: IntPolynomial, claimed_genus: int) -> KSequence:
    """Extract the k_j with poly = 1 + (t-1) claimed_genus + (t-1)^2 * sum k_j t^j.

    Subtracts the affine part, then divides by (t-1) twice; both remainders
    must vanish, otherwise P(1) != 1 or P'(1) != claimed_genus and BadExpansion
    is raised.
    """
    if not _is_int(claimed_genus) or claimed_genus < 0:
        raise ValueError(f"claimed genus must be a nonnegative integer, got {claimed_genus!r}")
    coeffs = list(poly.coefficients)
    while len(coeffs) < 2:
        coeffs.append(0)
    coeffs[0] -= 1 - claimed_genus
    coeffs[1] -= claimed_genus
    first, r1 = _div_t1(coeffs)
    if r1 != 0:
        raise BadExpansion(f"P(1) = {r1 + 1} != 1")
    ks, r2 = _div_t1(first)
    if r2 != 0:
        raise BadExpansion(f"P'(1) = {claimed_genus + r2} != claimed genus {claimed_genus}")
    return KSequence(claimed_genus, tuple(ks))


# -- plain-list kernels behind poly_mul and expand_k_sequence -------------------


def _mul(a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    # the zero-skipping outer loop runs over the sparser factor
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _div_t1(coeffs: list) -> tuple[list, int]:
    # synthetic division at root 1: the suffix sums from the top coefficient
    # down are the quotient, highest term first, and the full sum is P(1)
    if not coeffs:
        return [], 0
    quotient = list(accumulate(reversed(coeffs)))
    remainder = quotient.pop()
    quotient.reverse()
    return quotient, remainder
