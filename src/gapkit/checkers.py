"""Decision procedures over cusp gap sets, with per-index reports.

Three checks share the report shape: the pairwise coefficient inequality
k_j <= I(j+1), the degree-indexed convolution identity at the points jd+1
("bl"), and the two coefficient bound forms at the indices d(d-j-3) ("flmn").
k has one route, _k_sequence: double synthetic division by (t-1), guarded by
its two remainders (BadExpansion).  check_pair_inequality and check_bl read
the convolution through _checked, which compares the table or fold with the
direct minimization of inf_conv_eval and raises RuntimeError on disagreement,
an implementation bug, never a failing input.  check_flmn reads the fold alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .alexpoly import KSequence, alexander_from_gaps, expand_k_sequence, poly_mul
from .errors import GenusMismatch
from .gapset import GapSet, _is_int, gap_function_eval
from .infconv import StepFunction, inf_conv_eval, inf_conv_n, inf_conv_pair

__all__ = [
    "CurveSpec",
    "CheckRow",
    "CheckReport",
    "validate_spec",
    "bl_genus",
    "bl_rows",
    "product_k_closed_form",
    "check_pair_inequality",
    "check_bl",
    "check_flmn",
]


@dataclass(frozen=True)
class CurveSpec:
    """Curve degree plus one gap set per cusp."""

    degree: int
    cusps: tuple[GapSet, ...]

    def __post_init__(self):
        if not _is_int(self.degree) or self.degree < 3:
            raise ValueError(f"degree must be an integer >= 3, got {self.degree!r}")
        cusps = tuple(self.cusps)
        if not cusps:
            raise ValueError("at least one cusp required")
        for c in cusps:
            if not isinstance(c, GapSet):
                raise ValueError(f"cusps must be GapSet values, got {type(c).__name__}")
        object.__setattr__(self, "cusps", cusps)

    @property
    def total_genus(self) -> int:
        return sum(c.genus for c in self.cusps)


@dataclass(frozen=True)
class CheckRow:
    """One compared index: lhs relation rhs, with an exact-equality flag."""

    j: int
    lhs: int
    rhs: int
    relation: str
    equal: bool

    @property
    def satisfied(self) -> bool:
        return self.lhs == self.rhs if self.relation == "==" else self.lhs <= self.rhs

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "equal": self.equal,
        }


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus all compared rows; verdict is pass iff every row holds."""

    check: str
    verdict: str
    rows: tuple[CheckRow, ...]
    witness: Optional[dict] = None

    def __post_init__(self):
        expected = "pass" if all(r.satisfied for r in self.rows) else "fail"
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with rows ({expected})")

    @classmethod
    def build(cls, check: str, rows: tuple[CheckRow, ...], witness: Optional[dict] = None):
        verdict = "pass" if all(r.satisfied for r in rows) else "fail"
        return cls(check, verdict, rows, witness)

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


def _row(j: int, lhs: int, rhs: int, relation: str) -> CheckRow:
    return CheckRow(j, lhs, rhs, relation, lhs == rhs)


def _k_sequence(cusps: tuple[GapSet, ...]) -> KSequence:
    """The k-coefficients of the cusps' product polynomial."""
    return expand_k_sequence(
        reduce(poly_mul, map(alexander_from_gaps, cusps)), sum(c.genus for c in cusps)
    )


def _checked(conv: StepFunction, cusps: tuple[GapSet, ...], point: int) -> int:
    """conv(point), once the direct minimization of inf_conv_eval agrees with it."""
    value, direct = conv(point), inf_conv_eval(cusps, point)
    if direct != value:
        raise RuntimeError(
            f"internal: direct minimization {direct} != fold value {value} at k={point}"
        )
    return value


def _fail_witness(rows) -> Optional[dict]:
    for r in rows:
        if not r.satisfied:
            return {"j": r.j}
    return None


def bl_genus(degree: int) -> int:
    """The total cusp genus (d-1)(d-2)/2 that a degree-d curve requires."""
    return (degree - 1) * (degree - 2) // 2


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
    if j < 0:
        raise ValueError(f"index must be nonnegative, got {j}")
    mask = H._mask
    pairs = sum(mask >> (j - u) & 1 for u in G.elements if u < j)
    return gap_function_eval(G, j + 1) + gap_function_eval(H, j + 1) + pairs


def check_pair_inequality(G: GapSet, H: GapSet) -> CheckReport:
    """Check k_j <= (I_G <> I_H)(j+1) for j up to max(G) + max(H) + 1.

    The right side is computed twice: from the pairwise convolution table and
    by the direct minimization of inf_conv_eval.  A fail verdict would
    contradict the inequality's proof for arbitrary finite sets, so it
    indicates an implementation bug; it is still reported faithfully.
    """
    ks = _k_sequence((G, H))
    conv = inf_conv_pair(G, H)
    rows = tuple(
        _row(j, ks.at(j), _checked(conv, (G, H), j + 1), "<=")
        for j in range(G.max_gap + H.max_gap + 2)
    )
    return CheckReport.build("pair", rows, _fail_witness(rows))


def check_bl(spec: CurveSpec) -> CheckReport:
    """Compare the n-ary convolution at jd+1 with (j-d+1)(j-d+2)/2, j in [-1, d-2]."""
    validate_spec(spec)
    conv = inf_conv_n(spec.cusps)
    rows = tuple(
        _row(j, _checked(conv, spec.cusps, point), target, "==")
        for j, point, target in bl_rows(spec.degree)
    )
    return CheckReport.build("bl", rows, _fail_witness(rows))


def check_flmn(spec: CurveSpec) -> CheckReport:
    """Check k_{d(d-j-3)} against both bound forms for j in [0, d-3].

    Two rows per index: the binomial bound (j+1)(j+2)/2, then the convolution
    bound I(d(d-j-3)+1).  For a single cusp the report's witness also records
    whether the binomial bound is attained with equality at every index.
    Neither side is cross-checked: k comes from _k_sequence alone and the
    convolution from the fold alone.
    """
    validate_spec(spec)
    d = spec.degree
    ks = _k_sequence(spec.cusps)
    conv = inf_conv_n(spec.cusps)
    rows = []
    equal_all = True
    for j in range(d - 2):
        m = d * (d - j - 3)
        k_m = ks.at(m)
        binom = (j + 1) * (j + 2) // 2
        rows.append(_row(j, k_m, binom, "<="))
        rows.append(_row(j, k_m, conv(m + 1), "<="))
        if k_m != binom:
            equal_all = False
    rows = tuple(rows)
    witness = _fail_witness(rows) or {}
    if len(spec.cusps) == 1:
        witness["single_cusp_equality"] = equal_all
    return CheckReport.build("flmn", rows, witness or None)
