"""Infimum (min-plus) convolution of gap functions and step functions.

(I_1 <> ... <> I_n)(k) is the minimum of I_1(k_1) + ... + I_n(k_n) over integer
splits k_1 + ... + k_n = k.  Every function here is 1-Lipschitz (each step falls
by 0 or 1), has slope -1 below 0, and vanishes beyond a finite cutoff, as gap
functions and their convolutions do; StepFunction rejects any other table.

The fold scans splits in [0, k], as the 1-Lipschitz property allows.  It keeps
one table per prefix of inputs in one cache, a single gap set's StepFunction
included, so calls on multisets that share a prefix share its table;
inf_conv_pair is the fold of its two inputs and shares that cache.
The oracle finds the minimum M on [0, reach] off kept tables, by monotonicity
alone: inf_conv_table returns M on all of [0, reach] and inf_conv_eval one
point of it, taking M(k) = M(0) - k below 0: a split of k <= -1
has an argument <= -1, and one of k + 1 <= 0 an argument <= 0, where each I_i
is genus - m, so moving that argument by one changes the sum by exactly 1.
The two routes keep their tables apart and share no arithmetic, so comparing
them is still a check of one against the other.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from sys import byteorder
from typing import Sequence, Union

from .gapset import GapFunction, GapSet, _is_int, gap_function_eval

__all__ = ["StepFunction", "inf_conv_eval", "inf_conv_table", "inf_conv_pair", "inf_conv_n"]


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
        if not _is_int(self.genus):
            raise ValueError(f"genus must be an integer, got {self.genus!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("values must be nonempty")
        # set tests for the common valid table; the loops name the offender
        if {*map(type, values)} - {int} or min(values) < 0:
            for v in values:
                if not _is_int(v) or v < 0:
                    raise ValueError(f"values must be nonnegative integers, got {v!r}")
        if values[0] != self.genus:
            raise ValueError(f"values[0] = {values[0]} must equal genus {self.genus}")
        if values[-1] != 0:
            raise ValueError("values must end at 0")
        if {*map(sub, values, values[1:])} - {0, 1}:
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
        if type(k) is not int and not _is_int(k):
            raise ValueError(f"point must be an integer, got {k!r}")
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


def _conv_input(x: ConvInput) -> Union[GapSet, StepFunction]:
    """A StepFunction as it is, and the gap set of a GapSet or GapFunction."""
    if isinstance(x, (GapSet, StepFunction)):
        return x
    if isinstance(x, GapFunction):
        return x.gap_set
    raise TypeError(f"expected GapSet, GapFunction, or StepFunction, got {type(x).__name__}")


def _oracle_inputs(gap_sets: Sequence[ConvInput]) -> tuple[GapSet, ...]:
    """The oracle's inputs as gap sets; a StepFunction or no input at all is rejected."""
    sets = tuple([x.gap_set if isinstance(x, GapFunction) else x for x in gap_sets])
    if not sets:
        raise ValueError("at least one input required")
    for x in sets:
        if not isinstance(x, GapSet):
            raise TypeError(f"expected GapSet or GapFunction, got {type(x).__name__}")
    return sets


def _pair_table_unit(va: Sequence[int], vb: Sequence[int]) -> list:
    """Min-plus table of two 1-Lipschitz step tables ending at 0, on [0, Ka + Kb].

    Packed (SWAR): slot k holds the value at k in 1, 2, 4 or 8 bytes, the fewest that keep
    va[0] + vb[0], the bound on every sum, below the top bit.  Row y, the longer table from
    slot y plus the shorter's entry y (its zero tail too), fills the slots below y with the
    top bit; where (table | high) - row keeps a slot's top bit, table >= row takes row's.
    """
    va, vb = (va, vb) if len(va) >= len(vb) else (vb, va)
    log = ((va[0] + vb[0]).bit_length() // 8).bit_length()
    code, bits, n = "BHIQ"[log], 8 << log, len(va) + len(vb) - 1
    ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)
    high, top = ones << bits - 1, bits - 1
    a = int.from_bytes(array(code, va).tobytes(), byteorder)
    table = a + vb[0] * ones
    for y in range(1, len(vb)):
        diff = (table | high) - ((a + vb[y] * ones << bits * y) | high >> bits * (n - y))
        ge = diff & high
        table -= diff & ge - (ge >> top)
    return array(code, table.to_bytes(n * bits // 8, byteorder)).tolist()


def inf_conv_pair(a: ConvInput, b: ConvInput) -> StepFunction:
    """Pairwise infimum convolution, tabulated on [0, Ka + Kb]: the fold of a and b."""
    return _fold((_conv_input(a), _conv_input(b)))


def inf_conv_n(gap_sets: Sequence[ConvInput]) -> StepFunction:
    """Left fold of the pairwise table over the inputs; order does not matter.

    The fold of each prefix of the inputs is kept, as the oracle keeps its
    prefix tables, so a later call on the same prefix starts from it; each
    table is still built by the pairwise fold and validated by StepFunction
    the first time it is needed.
    """
    inputs = tuple(map(_conv_input, gap_sets))
    if not inputs:
        raise ValueError("at least one input required")
    return _fold(inputs)


# One entry per prefix of inputs; a one-input prefix is that input's table.
@lru_cache(maxsize=2048)
def _fold(inputs: tuple[Union[GapSet, StepFunction], ...]) -> StepFunction:
    """The prefix's fold and the last input's table, convolved pairwise.

    With both tables 1-Lipschitz, moving an argument below 0 (or above k)
    trades a guaranteed +1 against a drop of at most 1, so the splits in
    [0, k] that _pair_table_unit scans hold the minimum at every point k.
    """
    if len(inputs) > 1:
        table = _pair_table_unit(_fold(inputs[:-1]).values, _fold(inputs[-1:]).values)
        return StepFunction(table[0], tuple(table))
    x = inputs[0]
    return x if isinstance(x, StepFunction) else StepFunction.from_gap_set(x)


def inf_conv_eval(gap_sets: Sequence[ConvInput], k: int) -> int:
    """Direct n-ary minimization, the independent oracle for the pairwise fold.

    M(k) is one window scan over kept tables for k in [0, reach], and 0 beyond.
    Below 0, M(k) = M(k + 1) + 1: a split of k <= -1 has an argument <= -1, and
    one of k + 1 <= 0 an argument <= 0, where each I_i is genus - m, so moving
    that argument by one changes the sum by exactly 1.
    """
    if type(k) is not int and not _is_int(k):
        raise ValueError(f"point must be an integer, got {k!r}")
    sets = _oracle_inputs(gap_sets)
    if len(sets) == 1:
        return gap_function_eval(sets[0], k)
    xs, rs = _windows(sets, max(k, 0))
    return min(map(add, xs, rs), default=0) + max(-k, 0)


def inf_conv_table(gap_sets: Sequence[ConvInput]) -> tuple[int, ...]:
    """The oracle's minimum at every point of [0, reach], reach the cutoff sum.

    inf_conv_eval reads the same values one point at a time; past reach the
    minimum is 0, and below 0 it is the value at 0 plus the distance below 0.
    """
    return tuple(_min_table(_oracle_inputs(gap_sets)))


def _from(table: list, lo: int) -> list:
    """A table's function on [lo, reach], as a new list; below 0 it is table[0] - m."""
    if lo >= 0:
        return table[lo:]
    return list(range(table[0] - lo, table[0], -1)) + table


def _windows(sets: tuple[GapSet, ...], point: int) -> tuple[list, list]:
    """The last input on [point - rest_reach, last_reach] and the rest, reversed,
    on [point - last_reach, rest_reach]: the splits of point that can win, as
    every function here is nonincreasing and 0 from its reach on.  Both lists
    are empty beyond reach.
    """
    last, rest = _min_table(sets[-1:]), _min_table(sets[:-1])
    rs = _from(rest, point + 1 - len(last))
    rs.reverse()
    return _from(last, point + 1 - len(rest)), rs


# Multisets sharing a prefix of inputs, and the points of one multiset, reuse
# the prefix's table; each table has reach + 1 entries.
@lru_cache(maxsize=2048)
def _min_table(sets: tuple[GapSet, ...]) -> list:
    """The minimum for the inputs at each point of [0, reach].

    One input is its gap function, straight from its definition.  For more,
    point k reads point 0's windows from index k of the last input's list on.
    """
    if len(sets) == 1:
        return [gap_function_eval(sets[0], m) for m in range(sets[0].max_gap + 2)]
    xs, rs = _windows(sets, 0)
    return [min(map(add, xs[k:], rs)) for k in range(len(xs))]
