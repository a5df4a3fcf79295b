"""Decision procedures: pair inequality, convolution identity, coefficient bounds."""

from __future__ import annotations

import re

import jsonschema
import pytest
from hypothesis import given, strategies as st

from gapkit import (
    CheckReport,
    CheckRow,
    CurveSpec,
    GapSet,
    GenusMismatch,
    IntPolynomial,
    KSequence,
    StepFunction,
    Violation,
    alexander_from_gaps,
    check_bl,
    check_flmn,
    check_pair_inequality,
    expand_k_sequence,
    gap_function_eval,
    inf_conv_eval,
    inf_conv_n,
    poly_mul,
    product_k_closed_form,
    validate_spec,
    verify_violation,
)

from gapkit import checkers

from conftest import gap_sets

A = GapSet((1,))
B = GapSet((1, 3))
C = GapSet((1, 2, 5, 7))
EMPTY = GapSet(())

REPORT_SCHEMA = {
    "type": "object",
    "required": ["check", "verdict", "rows", "witness"],
    "additionalProperties": False,
    "properties": {
        "check": {"enum": ["pair", "bl", "flmn"]},
        "verdict": {"enum": ["pass", "fail"]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["j", "lhs", "rhs", "relation", "equal"],
                "additionalProperties": False,
                "properties": {
                    "j": {"type": "integer"},
                    "lhs": {"type": "integer"},
                    "rhs": {"type": "integer"},
                    "relation": {"enum": ["<=", "=="]},
                    "equal": {"type": "boolean"},
                },
            },
        },
        "witness": {"type": ["object", "null"]},
    },
}


def row_triples(report):
    return [(r.j, r.lhs, r.rhs) for r in report.rows]


def tampered_oracle(monkeypatch):
    """Make the direct minimization route answer one more than it should at 0."""
    real = checkers.inf_conv_table

    def wrong(sets):
        table = list(real(sets))
        table[0] += 1
        return tuple(table)

    monkeypatch.setattr("gapkit.checkers.inf_conv_table", wrong)


def tampered_fold(monkeypatch, route, point, delta):
    """Make the fold a check reads (checkers.inf_conv_pair or inf_conv_n) wrong
    by delta at one point of [0, reach].  The table is a validated StepFunction
    when the edit keeps it 1-Lipschitz, and is set without validation otherwise:
    the cross-check must catch a wrong value wherever it is."""
    real = getattr(checkers, route)

    def wrong(*args):
        conv = real(*args)
        values = list(conv.values) + [0] * (point + 1 - len(conv.values))
        values[point] += delta
        try:
            return StepFunction(values[0], tuple(values))
        except ValueError:
            bad = StepFunction(conv.genus, conv.values)
            object.__setattr__(bad, "genus", values[0])
            object.__setattr__(bad, "values", tuple(values))
            return bad

    monkeypatch.setattr(checkers, route, wrong)


# (route, check, points its rows read, a point none of them reads, an edit
# there that keeps the table 1-Lipschitz); each spec's fold is
# (3, 3, 2, 2, 1, 1, 0), on [0, 6], and the bl row j = -1 reads point 0
# through the value below 0
CROSS_CHECKED = {
    "pair": ("inf_conv_pair", lambda: check_pair_inequality(A, B), {1, 2, 3, 4, 5, 6}, 0, 1),
    "bl": ("inf_conv_n", lambda: check_bl(CurveSpec(4, (A, A, A))), {0, 1, 5}, 3, -1),
    "flmn": ("inf_conv_n", lambda: check_flmn(CurveSpec(4, (A, A, A))), {1, 5}, 3, -1),
}


class TestCurveSpec:
    def test_total_genus(self):
        assert CurveSpec(4, (A, B)).total_genus == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CurveSpec(2, (A,))
        with pytest.raises(ValueError):
            CurveSpec(True, (A,))
        with pytest.raises(ValueError):
            CurveSpec(4, ())
        with pytest.raises(ValueError):
            CurveSpec(4, ((1, 2),))


class TestValidateSpec:
    def test_accepts_matching_genus(self):
        validate_spec(CurveSpec(3, (A,)))
        validate_spec(CurveSpec(4, (A, A, A)))
        validate_spec(CurveSpec(4, (GapSet((1, 3, 5)),)))

    def test_mismatch_carries_both_numbers(self):
        with pytest.raises(GenusMismatch) as exc_info:
            validate_spec(CurveSpec(4, (A,)))
        err = exc_info.value
        assert err.total_genus == 1
        assert err.required_genus == 3
        assert "1" in str(err) and "3" in str(err)


class TestProductKClosedForm:
    def test_known_values(self):
        assert product_k_closed_form(A, A, 2) == 1
        assert product_k_closed_form(A, B, 0) == 3

    def test_empty_reduction(self):
        from gapkit import gap_function_eval

        H = GapSet((1, 2, 5, 7))
        for j in range(10):
            assert product_k_closed_form(EMPTY, H, j) == gap_function_eval(H, j + 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            product_k_closed_form(A, A, -1)

    @given(gap_sets(max_element=14, max_size=7), gap_sets(max_element=14, max_size=7))
    def test_agrees_with_division_route(self, g, h):
        product = poly_mul(alexander_from_gaps(g), alexander_from_gaps(h))
        ks = expand_k_sequence(product, g.genus + h.genus)
        for j in range(g.max_gap + h.max_gap + 3):
            assert product_k_closed_form(g, h, j) == ks.at(j)


class TestIntegerPoints:
    # a float or a bool would be read as a point between, or at, the integers
    @pytest.mark.parametrize("point", [-0.5, 0.5, 1.0, True, False])
    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda m: gap_function_eval(A, m), id="gap_function_eval"),
            pytest.param(lambda m: inf_conv_eval((A, B), m), id="inf_conv_eval"),
            pytest.param(lambda m: inf_conv_n([A, B])(m), id="StepFunction"),
            pytest.param(lambda m: KSequence(3, (3, 1, 2)).at(m), id="KSequence.at"),
            pytest.param(lambda m: product_k_closed_form(A, B, m), id="product_k_closed_form"),
            pytest.param(lambda m: IntPolynomial((1, 2, 3))(m), id="IntPolynomial"),
        ],
    )
    def test_rejected_naming_the_point(self, read, point):
        with pytest.raises(ValueError, match=re.escape(repr(point))):
            read(point)


class TestCheckPairInequality:
    def test_singleton_pair(self):
        report = check_pair_inequality(A, A)
        assert report.check == "pair"
        assert report.passed
        assert row_triples(report) == [(0, 2, 2), (1, 0, 1), (2, 1, 1), (3, 0, 0)]
        assert [r.equal for r in report.rows] == [True, False, True, True]
        assert all(r.relation == "<=" for r in report.rows)
        assert report.witness is None

    def test_mixed_pair(self):
        report = check_pair_inequality(A, B)
        assert report.passed
        assert [r.lhs for r in report.rows] == [3, 1, 2, 0, 1, 0]
        assert [r.rhs for r in report.rows] == [3, 2, 2, 1, 1, 0]

    def test_empty_pair_is_vacuous(self):
        report = check_pair_inequality(EMPTY, EMPTY)
        assert report.passed
        assert row_triples(report) == [(0, 0, 0), (1, 0, 0)]

    def test_symmetric(self):
        assert check_pair_inequality(B, A) == check_pair_inequality(A, B)

    def test_json_shape(self):
        jsonschema.validate(check_pair_inequality(A, B).to_json_dict(), REPORT_SCHEMA)

    @given(gap_sets(max_element=12, max_size=6), gap_sets(max_element=12, max_size=6))
    def test_always_passes(self, g, h):
        assert check_pair_inequality(g, h).passed

    def test_disagreeing_convolution_routes_raise(self, monkeypatch):
        tampered_oracle(monkeypatch)
        with pytest.raises(RuntimeError, match="direct minimization"):
            check_pair_inequality(A, B)

    @pytest.mark.parametrize("other", ["x", [1, 3]])
    def test_non_gap_set_rejected(self, other):
        message = f"cusps must be GapSet values, got {type(other).__name__}"
        with pytest.raises(ValueError, match=message):
            check_pair_inequality(A, other)
        with pytest.raises(ValueError, match=message):
            check_pair_inequality(other, A)


class TestCheckBl:
    def test_single_cusp_degree_three(self):
        report = check_bl(CurveSpec(3, (A,)))
        assert report.check == "bl"
        assert report.passed
        assert [r.lhs for r in report.rows] == [3, 1, 0]
        assert [r.j for r in report.rows] == [-1, 0, 1]
        assert all(r.relation == "==" for r in report.rows)

    def test_three_cusps_degree_four(self):
        report = check_bl(CurveSpec(4, (A, A, A)))
        assert report.passed
        assert row_triples(report) == [(-1, 6, 6), (0, 3, 3), (1, 1, 1), (2, 0, 0)]

    def test_single_cusp_degree_four(self):
        assert check_bl(CurveSpec(4, (GapSet((1, 3, 5)),))).passed

    def test_failing_spec(self):
        report = check_bl(CurveSpec(4, (GapSet((1, 2)), A)))
        assert not report.passed
        assert report.verdict == "fail"
        bad = [r for r in report.rows if not r.satisfied]
        assert [(r.j, r.lhs, r.rhs) for r in bad] == [(1, 0, 1)]
        assert report.witness == {"j": 1}

    def test_genus_mismatch_propagates(self):
        with pytest.raises(GenusMismatch):
            check_bl(CurveSpec(4, (A,)))

    def test_json_shape(self):
        jsonschema.validate(check_bl(CurveSpec(3, (A,))).to_json_dict(), REPORT_SCHEMA)

    def test_disagreeing_convolution_routes_raise(self, monkeypatch):
        tampered_oracle(monkeypatch)
        with pytest.raises(RuntimeError, match="direct minimization"):
            check_bl(CurveSpec(4, (A, A, A)))

    def test_wrong_fold_table_raises(self, monkeypatch):
        # the steepest table from the summed genus is a valid StepFunction
        # (1-Lipschitz, zero at the end) but the wrong fold; the spec's fold,
        # kept by test_three_cusps_degree_four, is gone by the autouse fixture
        monkeypatch.setattr(
            "gapkit.infconv._pair_table_unit", lambda va, vb: list(range(va[0] + vb[0], -1, -1))
        )
        with pytest.raises(RuntimeError, match="fold value"):
            check_bl(CurveSpec(4, (A, A, A)))
        with pytest.raises(RuntimeError, match="fold value"):
            check_pair_inequality(A, B)


class TestBlRows:
    """Row j = -1 of the bl identity is the genus test; the search relies on it."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_row_minus_one_holds_exactly_at_the_bl_genus(self, d):
        genus = checkers.bl_genus(d)
        j, point, target = checkers.bl_rows(d)[0]
        assert j == -1
        # below 0 a convolution is its genus sum plus the distance
        for genus_sum in range(2 * genus + d + 1):
            assert (genus_sum - point == target) == (genus_sum == genus)


class TestCrossCheck:
    @pytest.mark.parametrize("check", sorted(CROSS_CHECKED))
    def test_fold_wrong_at_a_point_no_row_reads_raises(self, check, monkeypatch):
        route, run, read, point, delta = CROSS_CHECKED[check]
        assert point not in read
        tampered_fold(monkeypatch, route, point, delta)
        with pytest.raises(RuntimeError, match=f"fold value .* at k={point}$"):
            run()

    @pytest.mark.parametrize("check", sorted(CROSS_CHECKED))
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("point", range(7))
    def test_fold_wrong_at_any_point_raises(self, check, delta, point, monkeypatch):
        route, run = CROSS_CHECKED[check][:2]
        tampered_fold(monkeypatch, route, point, delta)
        with pytest.raises(RuntimeError, match=f"direct minimization .* at k={point}$"):
            run()


class TestCheckFlmn:
    def test_single_cusp_degree_three(self):
        report = check_flmn(CurveSpec(3, (A,)))
        assert report.check == "flmn"
        assert report.passed
        assert row_triples(report) == [(0, 1, 1), (0, 1, 1)]
        assert report.witness == {"single_cusp_equality": True}

    def test_three_cusps_degree_four(self):
        report = check_flmn(CurveSpec(4, (A, A, A)))
        assert report.passed
        assert row_triples(report) == [(0, 1, 1), (0, 1, 1), (1, 3, 3), (1, 3, 3)]
        assert report.witness is None

    def test_two_cusps_degree_four(self):
        report = check_flmn(CurveSpec(4, (A, B)))
        assert report.passed
        assert row_triples(report) == [(0, 1, 1), (0, 1, 1), (1, 3, 3), (1, 3, 3)]

    def test_rows_are_not_clamped(self):
        # the k-sequence of ({1},{1},{1}) contains a negative entry; rows must
        # report raw values, so every lhs comes straight from the expansion
        spec = CurveSpec(4, (A, A, A))
        from functools import reduce

        ks = expand_k_sequence(
            reduce(poly_mul, (alexander_from_gaps(c) for c in spec.cusps)), 3
        )
        assert ks.ks == (3, 0, 3, -1, 1)
        report = check_flmn(spec)
        for j in range(spec.degree - 2):
            m = spec.degree * (spec.degree - j - 3)
            for r in report.rows:
                if r.j == j:
                    assert r.lhs == ks.at(m)

    def test_genus_mismatch_propagates(self):
        with pytest.raises(GenusMismatch) as exc_info:
            check_flmn(CurveSpec(4, (A,)))
        assert exc_info.value.total_genus == 1
        assert exc_info.value.required_genus == 3

    def test_json_shape(self):
        jsonschema.validate(check_flmn(CurveSpec(4, (A, B))).to_json_dict(), REPORT_SCHEMA)

    def test_disagreeing_convolution_routes_raise(self, monkeypatch):
        tampered_oracle(monkeypatch)
        with pytest.raises(RuntimeError, match="direct minimization"):
            check_flmn(CurveSpec(4, (A, A, A)))


class TestOneKRead:
    """The checks and the search's re-verification read k through one cached route."""

    def test_verification_and_checks_share_the_route(self, monkeypatch):
        real = checkers.expand_k_sequence

        def k_2_one_more(poly, genus):
            ks = list(real(poly, genus).ks)
            ks[2] += 1
            return KSequence(genus, tuple(ks))

        monkeypatch.setattr(checkers, "expand_k_sequence", k_2_one_more)
        # the genuine hit of (A, B, C) at j = 2 now reads k_2 = 7
        assert not verify_violation(Violation((A, B, C), 2, 6, 5))
        assert check_pair_inequality(A, B).rows[2].lhs == 3

    def test_verification_and_checks_share_the_cache(self, monkeypatch):
        calls = []
        for name in ("alexander_from_gaps", "poly_mul", "expand_k_sequence"):

            def spy(*args, name=name, real=getattr(checkers, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(checkers, name, spy)
        assert verify_violation(Violation((A, A, A), 2, 3, 2))
        # _product((A,)) keeps A's polynomial for all three factors
        assert calls.count("alexander_from_gaps") == 1
        calls.clear()
        check_flmn(CurveSpec(4, (A, A, A)))
        assert calls == []
        checkers._k_sequence((A, B, C))
        calls.clear()
        # the (A, B) prefix's product is kept
        checkers._k_sequence((A, B, A))
        assert calls == ["poly_mul", "expand_k_sequence"]


class TestCheckReport:
    def test_build_derives_verdict(self):
        rows = (CheckRow(0, 1, 2, "<=", False),)
        report = CheckReport.build("pair", rows)
        assert report.verdict == "pass"
        assert report.passed

    def test_inconsistent_verdict_rejected(self):
        rows = (CheckRow(0, 3, 2, "<=", False),)
        with pytest.raises(ValueError):
            CheckReport("pair", "pass", rows)
        assert CheckReport.build("pair", rows).verdict == "fail"

    def test_row_is_an_immutable_named_tuple(self):
        row = CheckRow(2, 1, 3, "<=", False)
        assert row == (2, 1, 3, "<=", False)
        assert repr(row) == "CheckRow(j=2, lhs=1, rhs=3, relation='<=', equal=False)"
        with pytest.raises(AttributeError):
            row.lhs = 4
        assert row.satisfied
        assert not row._replace(lhs=4).satisfied
        assert row.to_json_dict() == {"j": 2, "lhs": 1, "rhs": 3, "relation": "<=", "equal": False}

    def test_equality_relation(self):
        assert CheckRow(0, 2, 2, "==", True).satisfied
        assert not CheckRow(0, 1, 2, "==", False).satisfied
        assert CheckRow(0, 1, 2, "<=", False).satisfied

    def test_json_round_trip_values(self):
        report = check_bl(CurveSpec(4, (GapSet((1, 2)), A)))
        d = report.to_json_dict()
        assert d["check"] == "bl"
        assert d["verdict"] == "fail"
        assert d["witness"] == {"j": 1}
        assert d["rows"][0] == {"j": -1, "lhs": 6, "rhs": 6, "relation": "==", "equal": True}
