"""Decision procedures over cusp gap sets, with per-index reports.

Three checks share the report shape: the pairwise coefficient inequality
k_j <= I(j+1), the degree-indexed convolution identity at the points jd+1
("bl"), and the two coefficient bound forms at the indices d(d-j-3) ("flmn").
k has one route, _k_sequence, which the search's verify_violation reads too:
double synthetic division by (t-1) of the product polynomial, guarded by its
two remainders (BadExpansion).  Each check reads its convolution through
_checked, which compares the table or fold with the oracle's direct
minimization (inf_conv_table) at every point and raises RuntimeError on
disagreement, an implementation bug, never a failing input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

from .alexpoly import IntPolynomial, KSequence, alexander_from_gaps, expand_k_sequence, poly_mul
from .errors import GenusMismatch, _internal
from .gapset import GapSet, _is_int, gap_function_eval
from .infconv import StepFunction, inf_conv_n, inf_conv_pair, inf_conv_table
from .infconv import inf_conv_eval  # noqa: F401  (kept as a span site for bench/spans.py)

__all__ = [
    "CurveSpec",
    "CheckRow",
    "CheckReport",
    "validate_spec",
    "product_k_closed_form",
    "check_pair_inequality",
    "check_bl",
    "check_flmn",
]


def _cusps(values) -> tuple:
    """values as a nonempty tuple of GapSet values; ValueError otherwise."""
    cusps = tuple(values)
    if not cusps:
        raise ValueError("at least one cusp required")
    for c in cusps:
        if not isinstance(c, GapSet):
            raise ValueError(f"cusps must be GapSet values, got {type(c).__name__}")
    return cusps


@dataclass(frozen=True)
class CurveSpec:
    """Curve degree plus one gap set per cusp."""

    degree: int
    cusps: tuple[GapSet, ...]

    def __post_init__(self):
        if not _is_int(self.degree) or self.degree < 3:
            raise ValueError(f"degree must be an integer >= 3, got {self.degree!r}")
        object.__setattr__(self, "cusps", _cusps(self.cusps))

    @property
    def total_genus(self) -> int:
        return sum([c.genus for c in self.cusps])


class CheckRow(NamedTuple):
    """One compared index: lhs relation rhs, with an exact-equality flag."""

    j: int
    lhs: int
    rhs: int
    relation: str
    equal: bool

    @property
    def satisfied(self) -> bool:
        return _first_failing((self,)) is None

    def to_json_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus all compared rows; verdict is pass iff every row holds."""

    check: str
    verdict: str
    rows: tuple[CheckRow, ...]
    witness: Optional[dict] = None

    def __post_init__(self):
        expected = "pass" if _first_failing(self.rows) is None else "fail"
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with rows ({expected})")

    @classmethod
    def build(cls, check: str, rows: tuple[CheckRow, ...], witness: Optional[dict] = None):
        return cls(check, "pass" if _first_failing(rows) is None else "fail", rows, witness)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "rows": [r.to_json_dict() for r in self.rows],
            "witness": self.witness,
        }


def _first_failing(rows) -> Optional[CheckRow]:
    """The first row that does not hold (lhs == rhs for "==", lhs <= rhs otherwise), or None."""
    for row in rows:
        if row.lhs > row.rhs or row.relation == "==" and row.lhs != row.rhs:
            return row
    return None


def _rows(js, lhs, rhs, relation: str) -> tuple[CheckRow, ...]:
    """Rows made as plain tuples of the row type, without NamedTuple's Python-level __new__."""
    return tuple([tuple.__new__(CheckRow, (j, x, y, relation, x == y)) for j, x, y in zip(js, lhs, rhs)])


def _padded(values: tuple, end: int) -> tuple:
    """values on [0, end), read as StepFunction and KSequence read them: 0 past their end."""
    return (values + (0,) * end)[:end]


# The search verifies each multiset's violations together and runs through multisets
# sharing a prefix, so k is kept per multiset and the product per prefix.
@lru_cache(maxsize=64)
def _k_sequence(cusps: tuple[GapSet, ...]) -> KSequence:
    """The k-coefficients of the cusps' product polynomial."""
    return _internal(expand_k_sequence, _product(cusps), sum(c.genus for c in cusps))


@lru_cache(maxsize=1024)
def _product(cusps: tuple[GapSet, ...]) -> IntPolynomial:
    if len(cusps) == 1:
        return alexander_from_gaps(cusps[0])
    return poly_mul(_product(cusps[:-1]), _product(cusps[-1:]))


def _checked(conv: StepFunction, cusps: tuple[GapSet, ...]) -> tuple[int, ...]:
    """conv's values, once the oracle's table for the cusps equals them at every point.

    Both are 0 past their end, so both are padded to the longer.  Below 0 both routes
    take the value at 0 plus the distance, so agreeing on [0, reach] they agree everywhere.
    """
    values, direct = conv.values, inf_conv_table(cusps)
    values += (0,) * (len(direct) - len(values))
    direct += (0,) * (len(values) - len(direct))
    if values != direct:
        k = next(k for k, (v, d) in enumerate(zip(values, direct)) if v != d)
        raise RuntimeError(
            f"internal: direct minimization {direct[k]} != fold value {values[k]} at k={k}"
        )
    return values


def _fail_witness(rows) -> Optional[dict]:
    return None if (first := _first_failing(rows)) is None else {"j": first.j}


def bl_genus(degree: int) -> int:
    """The total cusp genus (d-1)(d-2)/2 that a degree-d curve requires."""
    return (degree - 1) * (degree - 2) // 2


@lru_cache(maxsize=64)
def bl_rows(degree: int) -> tuple[tuple[int, int, int], ...]:
    """The bl identity at degree d: (j, jd+1, (j-d+1)(j-d+2)/2) for j in [-1, d-2].

    The convolution of the cusps' gap functions at the point jd+1 must equal
    the target (j-d+1)(j-d+2)/2.
    """
    d = degree
    return tuple((j, j * d + 1, (j - d + 1) * (j - d + 2) // 2) for j in range(-1, d - 1))


def validate_spec(spec: CurveSpec) -> None:
    """Require total cusp genus (d-1)(d-2)/2; raises GenusMismatch otherwise."""
    required = bl_genus(spec.degree)
    if spec.total_genus != required:
        raise GenusMismatch(spec.total_genus, required)


def product_k_closed_form(G: GapSet, H: GapSet, j: int) -> int:
    """k_j of the product polynomial without any division.

    Equals I_G(j+1) + I_H(j+1) + the number of pairs (u, v) in G x H with
    u + v = j; must agree with expand_k_sequence on the product.
    """
    if type(j) is not int and not _is_int(j) or j < 0:
        raise ValueError(f"index must be a nonnegative integer, got {j!r}")
    mask = H._mask
    pairs = sum(mask >> (j - u) & 1 for u in G.elements if u < j)
    return gap_function_eval(G, j + 1) + gap_function_eval(H, j + 1) + pairs


def check_pair_inequality(G: GapSet, H: GapSet) -> CheckReport:
    """Check k_j <= (I_G <> I_H)(j+1) for j up to max(G) + max(H) + 1.

    The right side is computed twice, from the pairwise convolution table and
    by the oracle's direct minimization, and compared at every point.  A fail
    verdict would contradict the inequality's proof for arbitrary finite sets,
    so it indicates an implementation bug; it is still reported faithfully.
    """
    ks = _k_sequence(_cusps((G, H))).ks
    values = _checked(inf_conv_pair(G, H), (G, H))
    n = G.max_gap + H.max_gap + 2
    rows = _rows(range(n), _padded(ks, n), _padded(values, n + 1)[1:], "<=")
    return CheckReport("pair", "fail" if (w := _fail_witness(rows)) else "pass", rows, w)


def check_bl(spec: CurveSpec) -> CheckReport:
    """Compare the n-ary convolution at jd+1 with (j-d+1)(j-d+2)/2, j in [-1, d-2]."""
    validate_spec(spec)
    d = spec.degree
    values = _padded(_checked(inf_conv_n(spec.cusps), spec.cusps), d * (d - 2) + 2)
    js, points, targets = zip(*bl_rows(d))
    rows = _rows(js, [values[p] if p >= 0 else values[0] - p for p in points], targets, "==")
    return CheckReport("bl", "fail" if (w := _fail_witness(rows)) else "pass", rows, w)


def check_flmn(spec: CurveSpec) -> CheckReport:
    """Check k_{d(d-j-3)} against both bound forms for j in [0, d-3].

    Two rows per index: the binomial bound (j+1)(j+2)/2, then the convolution
    bound I(d(d-j-3)+1).  For a single cusp the report's witness also records
    whether the binomial bound is attained with equality at every index.
    """
    validate_spec(spec)
    d = spec.degree
    ks = _padded(_k_sequence(spec.cusps).ks, d * (d - 3) + 1)
    values = _padded(_checked(inf_conv_n(spec.cusps), spec.cusps), d * (d - 3) + 2)
    js = range(d - 2)
    # m = d(d-j-3) for j in js: from d(d-3) down to 0 in steps of d
    k_m, conv = ks[::-d], values[-1::-d]
    binomial = _rows(js, k_m, [(j + 1) * (j + 2) // 2 for j in js], "<=")
    rows = tuple(chain.from_iterable(zip(binomial, _rows(js, k_m, conv, "<="))))
    witness = _fail_witness(rows) or {}
    if len(spec.cusps) == 1:
        witness["single_cusp_equality"] = all(r.equal for r in binomial)
    return CheckReport("flmn", "fail" if "j" in witness else "pass", rows, witness or None)
