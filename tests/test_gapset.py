"""Gap set construction, semigroup closure, and the counting function."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, strategies as st

from gapkit import (
    GapFunction,
    GapSet,
    NotNumerical,
    gap_function_eval,
    gaps_from_generators,
    is_semigroup_complement,
)

from conftest import gap_sets


class TestGapSet:
    def test_elements_sorted_and_frozen(self):
        gs = GapSet((5, 1, 2))
        assert gs.elements == (1, 2, 5)
        with pytest.raises(AttributeError):
            gs.elements = (1,)

    def test_genus_max_gap_milnor(self):
        gs = GapSet((1, 2, 5))
        assert gs.genus == 3
        assert gs.max_gap == 5
        assert gs.milnor == 6
        empty = GapSet(())
        assert empty.genus == 0
        assert empty.max_gap == 0
        assert empty.milnor == 0

    def test_membership(self):
        gs = GapSet((1, 3))
        assert 1 in gs and 3 in gs
        assert 2 not in gs and 4 not in gs and 0 not in gs and -1 not in gs

    def test_iteration_and_len(self):
        gs = GapSet((2, 7, 4))
        assert list(gs) == [2, 4, 7]
        assert len(gs) == 3

    @pytest.mark.parametrize("bad", [(0,), (-3,), (1, 1), (1.5,), (True,)])
    def test_rejects_invalid_elements(self, bad):
        with pytest.raises(ValueError):
            GapSet(bad)

    def test_text_round_trip(self):
        assert GapSet.from_text("1,2,5").elements == (1, 2, 5)
        assert GapSet.from_text("-").elements == ()
        assert GapSet.from_text("").elements == ()
        assert GapSet((1, 2, 5)).to_text() == "1,2,5"
        assert GapSet(()).to_text() == ""
        with pytest.raises(ValueError):
            GapSet.from_text("1,a")

    @given(gap_sets())
    def test_text_round_trips_everywhere(self, gs):
        assert GapSet.from_text(gs.to_text()) == gs

    def test_equality_and_hash(self):
        assert GapSet((2, 1)) == GapSet((1, 2))
        assert hash(GapSet((2, 1))) == hash(GapSet((1, 2)))
        assert GapSet((1,)) != GapSet((2,))


class TestGapsFromGenerators:
    @pytest.mark.parametrize(
        "gens, expected",
        [
            ((2, 3), (1,)),
            ((1,), ()),
            ((3, 4), (1, 2, 5)),
            ((2, 7), (1, 3, 5)),
            ((4, 5), (1, 2, 3, 6, 7, 11)),
            ((3, 7), (1, 2, 4, 5, 8, 11)),
            ((4, 6, 9), (1, 2, 3, 5, 7, 11)),
            ((6, 10, 15), (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 14, 17, 19, 23, 29)),
        ],
    )
    def test_known_gap_sets(self, gens, expected):
        assert gaps_from_generators(gens).elements == expected

    def test_order_and_redundancy_do_not_matter(self):
        assert gaps_from_generators([4, 3]) == gaps_from_generators([3, 4, 7])

    @pytest.mark.parametrize("gens", [(4, 6), (2, 4), (6, 10), (3,)])
    def test_non_coprime_rejected(self, gens):
        with pytest.raises(NotNumerical):
            gaps_from_generators(gens)

    @pytest.mark.parametrize("gens", [(), (0, 3), (-2, 3), (2.5, 3)])
    def test_invalid_generators_rejected(self, gens):
        with pytest.raises(ValueError):
            gaps_from_generators(gens)

    def test_coprime_pair_genus_formula(self):
        for p in range(2, 13):
            for q in range(p + 1, 13):
                if gcd(p, q) == 1:
                    assert gaps_from_generators([p, q]).genus == (p - 1) * (q - 1) // 2

    @given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4))
    def test_output_is_semigroup_complement(self, gens):
        try:
            gs = gaps_from_generators(gens)
        except NotNumerical:
            return
        assert is_semigroup_complement(gs)


class TestSemigroupComplement:
    @pytest.mark.parametrize(
        "elements, expected",
        [
            ((1,), True),
            ((2,), False),
            ((1, 2, 5, 7), False),
            ((), True),
            ((1, 2), True),
            ((1, 3), True),
            ((2, 3), False),
            ((1, 2, 3), True),
            ((1, 2, 3, 6, 7, 11), True),
        ],
    )
    def test_closure_detection(self, elements, expected):
        assert is_semigroup_complement(GapSet(elements)) is expected


class TestGapFunctionEval:
    def test_known_values(self):
        gs = GapSet((1, 3))
        assert gap_function_eval(gs, 1) == 2
        assert gap_function_eval(gs, -2) == 4
        assert gap_function_eval(gs, 2) == 1
        assert gap_function_eval(gs, 4) == 0

    def test_empty_set(self):
        empty = GapSet(())
        assert gap_function_eval(empty, 0) == 0
        assert gap_function_eval(empty, -3) == 3
        assert gap_function_eval(empty, 1) == 0

    @given(gap_sets(), st.integers(min_value=-10, max_value=0))
    def test_closed_form_below_zero(self, gs, m):
        assert gap_function_eval(gs, m) == gs.genus - m

    @given(gap_sets(), st.integers(min_value=-10, max_value=30))
    def test_unit_steps_exactly_at_gaps(self, gs, m):
        step = gap_function_eval(gs, m) - gap_function_eval(gs, m + 1)
        assert step in (0, 1)
        assert (step == 1) == (m in gs or m < 0)

    @given(gap_sets())
    def test_zero_above_max_gap(self, gs):
        assert gap_function_eval(gs, gs.max_gap + 1) == 0


class TestGapFunction:
    def test_matches_eval(self):
        fn = GapFunction(GapSet((1, 3)))
        assert [fn(m) for m in range(-2, 5)] == [4, 3, 2, 2, 1, 1, 0]

    def test_table_and_cutoff(self):
        fn = GapFunction(GapSet((1, 3)))
        assert fn.cutoff == 4
        assert fn.table() == (2, 2, 1, 1, 0)
        assert fn.genus == 2
        empty = GapFunction(GapSet(()))
        assert empty.cutoff == 0
        assert empty.table() == (0,)
        assert empty.genus == 0
