"""Infimum (min-plus) convolution of gap functions and step functions.

(I_1 <> ... <> I_n)(k) is the minimum of I_1(k_1) + ... + I_n(k_n) over integer
splits k_1 + ... + k_n = k.  Every function here is 1-Lipschitz (each step falls
by 0 or 1), has slope -1 below 0, and vanishes beyond a finite cutoff, as gap
functions and their convolutions do; StepFunction rejects any other table.  So
the minimum is attained inside a finite window: pushing any argument above its
cutoff or below the window's lower end can only raise the sum.  Brute force
within the window is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Sequence, Union

from .gapset import GapFunction, GapSet, gap_function_eval

__all__ = ["StepFunction", "inf_conv_eval", "inf_conv_pair", "inf_conv_n"]


@dataclass(frozen=True)
class StepFunction:
    """1-Lipschitz nonincreasing integer function tabulated on [0, K_max], zero beyond.

    Closed-form tails: genus - k for k <= 0 and 0 for k >= K_max.  The table is
    normalized to the smallest cutoff, so values ends with exactly one zero
    (a lone zero for the zero function).  Each step falls by 0 or 1, as for
    every gap function and every convolution of gap functions.
    """

    genus: int
    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise ValueError("values must be nonempty")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"values must be nonnegative integers, got {v!r}")
        if values[0] != self.genus:
            raise ValueError(f"values[0] = {values[0]} must equal genus {self.genus}")
        if values[-1] != 0:
            raise ValueError("values must end at 0")
        for i in range(len(values) - 1):
            if not 0 <= values[i] - values[i + 1] <= 1:
                raise ValueError(f"each step must fall by 0 or 1, not at index {i}")
        while len(values) >= 2 and values[-2] == 0:
            values = values[:-1]
        object.__setattr__(self, "values", values)

    @property
    def cutoff(self) -> int:
        """K_max, the smallest k >= 0 from which the function is identically zero."""
        return len(self.values) - 1

    def __call__(self, k: int) -> int:
        if k <= 0:
            return self.genus - k
        if k >= len(self.values):
            return 0
        return self.values[k]

    @classmethod
    def from_gap_set(cls, gap_set: GapSet) -> "StepFunction":
        return cls(gap_set.genus, GapFunction(gap_set).table())

    def to_json_dict(self) -> dict:
        return {"genus": self.genus, "values": list(self.values)}


ConvInput = Union[GapSet, GapFunction, StepFunction]


def _as_step(x: ConvInput) -> StepFunction:
    if isinstance(x, StepFunction):
        return x
    if isinstance(x, GapFunction):
        return StepFunction(x.genus, x.table())
    if isinstance(x, GapSet):
        return StepFunction.from_gap_set(x)
    raise TypeError(f"expected GapSet, GapFunction, or StepFunction, got {type(x).__name__}")


def _as_gap_set(x: ConvInput) -> GapSet:
    if isinstance(x, GapFunction):
        return x.gap_set
    if isinstance(x, GapSet):
        return x
    raise TypeError(f"expected GapSet or GapFunction, got {type(x).__name__}")


def _pair_table_unit(va: Sequence[int], vb: Sequence[int]) -> list:
    """Min-plus table of two 1-Lipschitz step tables on [0, Ka + Kb].

    With both inputs 1-Lipschitz, moving an argument below 0 (or above k) trades
    a guaranteed +1 against a drop of at most 1, so splits stay in [0, k].
    """
    ka = len(va) - 1
    kb = len(vb) - 1
    out = []
    for k in range(ka + kb + 1):
        lo = k - kb if k > kb else 0
        hi = ka if ka < k else k
        best = va[lo] + vb[k - lo]
        for x in range(lo + 1, hi + 1):
            v = va[x] + vb[k - x]
            if v < best:
                best = v
        out.append(best)
    return out


def inf_conv_pair(a: ConvInput, b: ConvInput) -> StepFunction:
    """Pairwise infimum convolution, tabulated on [0, Ka + Kb].

    Every StepFunction is 1-Lipschitz, so the splits in [0, k] that
    _pair_table_unit scans hold the minimum at every point k.
    """
    table = _pair_table_unit(_as_step(a).values, _as_step(b).values)
    return StepFunction(table[0], tuple(table))


def inf_conv_n(gap_sets: Sequence[ConvInput]) -> StepFunction:
    """Left fold of inf_conv_pair over the inputs; order does not matter."""
    if not gap_sets:
        raise ValueError("at least one input required")
    acc = _as_step(gap_sets[0])
    for x in gap_sets[1:]:
        acc = inf_conv_pair(acc, x)
    return acc


def inf_conv_eval(gap_sets: Sequence[ConvInput], k: int) -> int:
    """Direct n-ary minimization, the independent oracle for the pairwise fold.

    The last argument scans [k - (cutoff sum of the rest), its cutoff]; the
    rest take the remainder, whose minimum is the same minimization over one
    input fewer.  For k at or beyond the cutoff sum every term can sit at 0.
    """
    sets = tuple(map(_as_gap_set, gap_sets))
    if not sets:
        raise ValueError("at least one input required")
    if len(sets) == 1:
        return gap_function_eval(sets[0], k)
    return _direct_min(sets, k)


def _direct_min(sets: tuple[GapSet, ...], k: int) -> int:
    """The full-window minimum at k for two or more inputs."""
    last_reach = sets[-1].max_gap + 1
    rs = _values_from(sets[:-1], k - last_reach)
    if not rs:  # k beyond the cutoff sum: every term sits at 0
        return 0
    # x runs up through [k - rest_reach, last_reach], as many points as rs has,
    # while the remainder k - x runs down rs
    xs = _values_from(sets[-1:], last_reach + 1 - len(rs))
    return min(map(add, xs, reversed(rs)))


def _reach(sets: tuple[GapSet, ...]) -> int:
    """Cutoff sum of the inputs: their minimum is 0 from here on."""
    return sum(gs.max_gap + 1 for gs in sets)


def _values_from(sets: tuple[GapSet, ...], lo: int) -> list:
    """The minimum for the inputs at each point of [lo, reach], as a new list.

    One input takes its closed-form tail below 0 and its kept values on
    [0, reach].  More inputs take their kept table on [-reach, reach]; points
    below it are computed and dropped, so a far negative k costs time but
    keeps nothing.
    """
    if len(sets) == 1:
        gap_set = sets[0]
        values = _gap_values(gap_set)
        if lo >= 0:
            return values[lo:]
        return list(range(gap_set.genus - lo, gap_set.genus, -1)) + values
    table = _min_table(sets)
    reach = len(table) // 2
    if lo >= -reach:
        return table[lo + reach :]
    return [_direct_min(sets, r) for r in range(lo, -reach)] + table


@lru_cache(maxsize=1024)
def _gap_values(gap_set: GapSet) -> list:
    """The gap function on [0, max_gap + 1], straight from its definition."""
    return [gap_function_eval(gap_set, m) for m in range(gap_set.max_gap + 2)]


# Multisets sharing a prefix of inputs, and the points of one multiset, reuse
# the prefix's table; each table has 2 * reach + 1 entries.
@lru_cache(maxsize=1024)
def _min_table(sets: tuple[GapSet, ...]) -> list:
    """The minimum for two or more inputs at each point of [-reach, reach].

    Point k scans the last input over [k - rest_reach, last_reach] against the
    rest over [k - last_reach, rest_reach].  With both lists started where the
    first point needs them, each point is the two lists from index k + reach
    on, one read forwards and one backwards.
    """
    rest = sets[:-1]
    reach = _reach(sets)
    xs = _values_from(sets[-1:], -reach - _reach(rest))
    rs = _values_from(rest, -reach - sets[-1].max_gap - 1)
    rs.reverse()
    return [min(map(add, xs[i:], rs[: len(rs) - i])) for i in range(2 * reach + 1)]
