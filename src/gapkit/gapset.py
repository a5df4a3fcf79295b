"""Gap sets, numerical semigroup membership, and the gap counting function."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from typing import Iterable, Iterator

from .errors import NotNumerical

__all__ = [
    "GapSet",
    "GapFunction",
    "gaps_from_generators",
    "is_semigroup_complement",
    "gap_function_eval",
]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class GapSet:
    """Finite set of distinct positive integers, stored sorted ascending.

    Also keeps a bitmask over the elements for O(1) membership tests.
    """

    elements: tuple[int, ...]
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        mask = 0
        for g in elems:
            if not _is_int(g) or g < 1:
                raise ValueError(f"gap elements must be positive integers, got {g!r}")
            if (mask >> g) & 1:
                raise ValueError(f"duplicate gap element {g}")
            mask |= 1 << g
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_mask", mask)

    def __hash__(self) -> int:
        # equal sets have equal masks; cheaper than hashing the elements tuple
        return hash(self._mask)

    @property
    def genus(self) -> int:
        """Number of gaps."""
        return len(self.elements)

    @property
    def max_gap(self) -> int:
        """Largest gap, 0 for the empty set."""
        return self.elements[-1] if self.elements else 0

    @property
    def milnor(self) -> int:
        """Milnor number of the corresponding singularity, twice the genus."""
        return 2 * len(self.elements)

    def __contains__(self, m: object) -> bool:
        return isinstance(m, int) and 0 < m <= self.max_gap and bool((self._mask >> m) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def from_text(cls, text: str) -> "GapSet":
        """Parse "1,2,5"; "" and "-" denote the empty set."""
        text = text.strip()
        if text in ("", "-"):
            return cls(())
        try:
            elems = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed gap set {text!r}") from None
        return cls(elems)

    def to_text(self) -> str:
        """Render as "1,2,5", empty string for the empty set."""
        return ",".join(str(g) for g in self.elements)


def gaps_from_generators(generators: Iterable[int]) -> GapSet:
    """Gap set of the semigroup generated by the inputs together with 0.

    Membership is sieved upward; the semigroup is complete once min(generators)
    consecutive members have been seen, so no Frobenius-number formula is needed.
    Raises NotNumerical when gcd != 1 (the complement would be infinite).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    for g in gens:
        if not _is_int(g) or g < 1:
            raise ValueError(f"generators must be positive integers, got {g!r}")
    if reduce(gcd, gens) != 1:
        raise NotNumerical(
            f"gcd({', '.join(str(g) for g in gens)}) != 1, complement is infinite"
        )
    target = min(gens)
    members = 1  # bit m set iff m is in the semigroup; 0 always is
    gaps = []
    run = 0
    m = 0
    while run < target:
        m += 1
        if any(m >= g and (members >> (m - g)) & 1 for g in gens):
            members |= 1 << m
            run += 1
        else:
            gaps.append(m)
            run = 0
    return GapSet(tuple(gaps))


def is_semigroup_complement(gap_set: GapSet) -> bool:
    """True iff the complement of the gap set in Z>=0 is closed under addition.

    Closure can only fail on a sum landing inside the gap set, so it suffices
    to look for a gap g = a + b with both a and b non-gaps.
    """
    mask = gap_set._mask
    for g in gap_set.elements:
        for a in range(1, g // 2 + 1):
            if not (mask >> a) & 1 and not (mask >> (g - a)) & 1:
                return False
    return True


def gap_function_eval(gap_set: GapSet, m: int) -> int:
    """Count members of the gap set and the negative integers that are >= m.

    Closed form genus - m for m <= 0; above 0, the set bits of the mask from m up.
    """
    if type(m) is not int and not _is_int(m):
        raise ValueError(f"point must be an integer, got {m!r}")
    return gap_set.genus - m if m <= 0 else (gap_set._mask >> m).bit_count()


@dataclass(frozen=True)
class GapFunction:
    """Callable view of a gap set's counting function."""

    gap_set: GapSet

    def __call__(self, m: int) -> int:
        return gap_function_eval(self.gap_set, m)

    @property
    def genus(self) -> int:
        return self.gap_set.genus

    @property
    def cutoff(self) -> int:
        """Smallest k >= 0 from which the function is identically zero."""
        return self.gap_set.max_gap + 1 if self.gap_set.elements else 0

    def table(self) -> tuple[int, ...]:
        """Values on [0, cutoff]; the tail beyond is identically zero."""
        return tuple(gap_function_eval(self.gap_set, m) for m in range(self.cutoff + 1))
