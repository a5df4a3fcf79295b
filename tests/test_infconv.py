"""Min-plus convolution of 1-Lipschitz step functions."""

from __future__ import annotations

import random
import re
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from gapkit import (
    GapFunction,
    GapSet,
    StepFunction,
    gap_function_eval,
    inf_conv_eval,
    inf_conv_n,
    inf_conv_pair,
    inf_conv_table,
)
from gapkit.infconv import _fold, _min_table, _pair_table_unit

from conftest import gap_sets

A = GapSet((1,))
B = GapSet((1, 3))
C = GapSet((1, 2, 5, 7))
EMPTY = GapSet(())


def step_functions(max_len: int = 12):
    def build(drops):
        values = [sum(drops)]
        for d in drops:
            values.append(values[-1] - d)
        return StepFunction(values[0], tuple(values))

    return st.builds(build, st.lists(st.integers(0, 1), min_size=1, max_size=max_len))


class TestStepFunction:
    def test_from_gap_set(self):
        f = StepFunction.from_gap_set(C)
        assert f.genus == 4
        assert f.values == (4, 4, 3, 2, 2, 2, 1, 1, 0)
        assert f.cutoff == 8

    def test_closed_form_tails(self):
        f = StepFunction.from_gap_set(B)
        assert [f(k) for k in range(-3, 6)] == [5, 4, 3, 2, 2, 1, 1, 0, 0]

    def test_trims_to_single_trailing_zero(self):
        assert StepFunction(2, (2, 1, 0, 0, 0)).values == (2, 1, 0)
        assert StepFunction(0, (0, 0)).values == (0,)

    @pytest.mark.parametrize(
        "genus, values",
        [
            (2, (1, 0)),  # genus mismatch
            (1, (1, 2, 0)),  # rising
            (1, (1, -1, 0)),  # negative value
            (1, (1, 1)),  # does not reach zero
            (0, ()),  # empty
            (1, (1, 0.0)),  # non-integer
            (2, (2, 0)),  # a step down by 2
            # a bool or a float genus compares and hashes equal to the int
            (True, (1, 0)),
            (1.0, (1, 0)),
        ],
    )
    def test_validation(self, genus, values):
        with pytest.raises(ValueError):
            StepFunction(genus, values)

    def test_json_dict(self):
        assert StepFunction.from_gap_set(A).to_json_dict() == {"genus": 1, "values": [1, 1, 0]}

    @given(gap_sets())
    def test_matches_gap_function_everywhere(self, gs):
        f = StepFunction.from_gap_set(gs)
        for m in range(-3, gs.max_gap + 4):
            assert f(m) == gap_function_eval(gs, m)


class TestInfConvPair:
    def test_known_tables(self):
        assert inf_conv_pair(A, B).values == (3, 3, 2, 2, 1, 1, 0)
        assert inf_conv_pair(A, A).values == (2, 2, 1, 1, 0)
        triple = inf_conv_n([A, B, C])
        assert triple.values == (7, 7, 6, 5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 0)

    def test_accepts_mixed_argument_types(self):
        expected = inf_conv_pair(A, B)
        assert inf_conv_pair(GapFunction(A), StepFunction.from_gap_set(B)) == expected
        assert inf_conv_pair(StepFunction.from_gap_set(A), B) == expected
        assert inf_conv_pair(A, GapFunction(B)) == inf_conv_n([A, StepFunction.from_gap_set(B)]) == expected

    def test_identity_with_empty_set(self):
        f = StepFunction.from_gap_set(C)
        assert inf_conv_pair(C, GapSet(())) == f
        assert inf_conv_pair(GapSet(()), C) == f

    def test_genus_adds(self):
        assert inf_conv_pair(B, C).genus == B.genus + C.genus

    @given(gap_sets(max_element=12, max_size=6), gap_sets(max_element=12, max_size=6))
    def test_commutative(self, g, h):
        assert inf_conv_pair(g, h) == inf_conv_pair(h, g)

    @given(gap_sets(max_element=8, max_size=4), gap_sets(max_element=8, max_size=4),
           gap_sets(max_element=8, max_size=4))
    def test_associative(self, g, h, k):
        left = inf_conv_pair(inf_conv_pair(g, h), k)
        right = inf_conv_pair(g, inf_conv_pair(h, k))
        assert left == right

    @given(gap_sets(max_element=12, max_size=6), gap_sets(max_element=12, max_size=6))
    def test_one_lipschitz(self, g, h):
        values = inf_conv_pair(g, h).values
        assert all(0 <= a - b <= 1 for a, b in zip(values, values[1:]))

    @given(gap_sets(max_element=10, max_size=5), gap_sets(max_element=10, max_size=5))
    def test_matches_brute_force_minimum(self, g, h):
        conv = inf_conv_pair(g, h)
        span = g.max_gap + h.max_gap + 3
        for k in range(conv.cutoff + 2):
            brute = min(
                gap_function_eval(g, x) + gap_function_eval(h, k - x)
                for x in range(-span, span + 1)
            )
            assert conv(k) == brute


class TestGeneralStepFunctions:
    # every 1-Lipschitz table, including ones that drop between 0 and 1,
    # which no gap function does
    @given(step_functions(), step_functions())
    def test_matches_brute_force_minimum(self, f, g):
        conv = inf_conv_pair(f, g)
        span = f.cutoff + g.cutoff + f.genus + g.genus + 2
        for k in range(-2, conv.cutoff + 2):
            brute = min(f(x) + g(k - x) for x in range(-span, span + 1))
            assert conv(k) == brute

    @given(step_functions(max_len=8), step_functions(max_len=8))
    def test_commutative(self, f, g):
        assert inf_conv_pair(f, g) == inf_conv_pair(g, f)

    @given(step_functions(max_len=6), step_functions(max_len=6), step_functions(max_len=6))
    def test_associative(self, f, g, h):
        assert inf_conv_pair(inf_conv_pair(f, g), h) == inf_conv_pair(f, inf_conv_pair(g, h))


def every_split_minimum(f: StepFunction, g: StepFunction) -> list:
    """min of f(x) + g(k - x) over every split of k, tails included, on [0, Kf + Kg]."""
    span = f.cutoff + g.cutoff + f.genus + g.genus + 2
    return [
        min(f(x) + g(k - x) for x in range(-span, span + 1))
        for k in range(f.cutoff + g.cutoff + 1)
    ]


def long_step_function(genus: int, length: int, seed) -> StepFunction:
    """A table of the given genus on [0, length - 1], its flat steps at random
    places, or all at the start for seed None."""
    drops = [0] * (length - 1 - genus) + [1] * genus
    if seed is not None:
        random.Random(seed).shuffle(drops)
    values = [genus]
    for d in drops:
        values.append(values[-1] - d)
    return StepFunction(genus, tuple(values))


class TestPackedKernel:
    """_pair_table_unit against the minimum over every split, not against the fold."""

    @given(step_functions(max_len=14), step_functions(max_len=6))
    def test_matches_every_split_minimum_in_both_orders(self, f, g):
        expected = every_split_minimum(f, g)
        assert _pair_table_unit(f.values, g.values) == expected
        assert _pair_table_unit(g.values, f.values) == expected
        assert _pair_table_unit(list(f.values), list(g.values)) == expected

    # va[0] + vb[0] on either side of the 1-byte and the 2-byte slot's edge.  With
    # the long table's flat steps first, its first slots sum to the bound in row 0
    # and one less in the next row.  A split that puts the short table's argument
    # outside [0, Ks] never wins, as both functions are 1-Lipschitz, so the
    # expected minimum is taken over [0, Ks]; it is checked against every split
    # where that brute force is cheap.
    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("bound", [126, 127, 128, 129, 32767, 32768])
    def test_slot_width_edges(self, bound, seed):
        short = StepFunction(5, (5, 4, 3, 2, 1, 0)) if seed is None else long_step_function(5, 9, seed)
        long = long_step_function(bound - 5, bound + 40, seed)
        lv, sv = long.values, short.values
        expected = [
            min(long(k - y) + sv[y] for y in range(len(sv))) for k in range(len(lv) + len(sv) - 1)
        ]
        assert _pair_table_unit(lv, sv) == expected
        assert _pair_table_unit(sv, lv) == expected
        if bound < 200:
            assert expected == every_split_minimum(long, short)


class TestFoldCache:
    """inf_conv_n keeps one table per gap set and one fold per input prefix."""

    WRAPS = (lambda g: g, GapFunction, StepFunction.from_gap_set)

    @staticmethod
    def uncached_fold(sets):
        acc = GapFunction(sets[0]).table()
        for g in sets[1:]:
            acc = _pair_table_unit(acc, GapFunction(g).table())
        return StepFunction(acc[0], tuple(acc))

    @given(
        st.lists(
            st.tuples(gap_sets(max_element=9, max_size=5), st.sampled_from(WRAPS)),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_matches_uncached_fold(self, items, data):
        # inputs as GapSet, GapFunction or StepFunction; a cold first call,
        # then a permuted order and both again, from the kept tables
        _fold.cache_clear()
        identity = range(len(items))
        permuted = data.draw(st.permutations(identity))
        for order in (identity, permuted, identity, permuted):
            inputs = [items[i][1](items[i][0]) for i in order]
            assert inf_conv_n(inputs) == self.uncached_fold([items[i][0] for i in order])

    def test_climbing_fold_table_is_an_internal_error(self, monkeypatch):
        # the same table from a caller is an input error
        with pytest.raises(ValueError, match="not at index 0"):
            StepFunction(1, (1, 2, 0))
        monkeypatch.setattr("gapkit.infconv._pair_table_unit", lambda va, vb: [1, 2, 0])
        with pytest.raises(RuntimeError, match="^internal: each step must fall by 0 or 1, not at index 0$"):
            inf_conv_n([GapSet((1,)), GapSet((1, 3))])

    def test_one_step_function_per_gap_set(self):
        assert inf_conv_n([C]) is inf_conv_n([GapFunction(C)]) is inf_conv_n([GapSet((1, 2, 5, 7))])

    def test_pair_is_the_fold_of_two_inputs(self):
        # a pair check and a two-cusp check on the same cusps share one table
        assert inf_conv_pair(A, C) is inf_conv_n([A, C])
        assert inf_conv_pair(GapFunction(A), GapFunction(C)) is inf_conv_n([A, C])

    def test_prefix_fold_is_kept(self):
        inf_conv_n([A, B, C])
        hits = _fold.cache_info().hits
        inf_conv_n([A, B, GapSet((2,))])
        assert _fold.cache_info().hits == hits + 1

    def test_other_inputs_raise_type_error_naming_the_types(self):
        with pytest.raises(TypeError, match="expected GapSet, GapFunction, or StepFunction, got list"):
            inf_conv_n([[1, 2]])
        with pytest.raises(TypeError, match="expected GapSet, GapFunction, or StepFunction"):
            inf_conv_pair(A, [1, 2])


class TestInfConvEval:
    def test_known_values(self):
        sets = [A, B, C]
        table = inf_conv_n(sets)
        for k in range(table.cutoff + 3):
            assert inf_conv_eval(sets, k) == table(k)

    def test_negative_arguments_follow_tail_law(self):
        sets = [GapSet((1, 8)), GapSet((1, 2, 4)), GapSet((1, 2, 3))]
        total = sum(g.genus for g in sets)
        assert inf_conv_eval(sets, 0) == total
        assert inf_conv_eval(sets, -1) == total + 1
        assert inf_conv_eval(sets, -5) == total + 5

    def test_far_negative_point_keeps_bounded_tables(self):
        # a point below 0 is read off the value at 0, so after k = -60 the
        # kept tables are one per input and one for the first two, each on
        # [0, reach]
        sets = (GapSet((1, 8)), GapSet((1, 2, 4)), GapSet((1, 2, 3)))
        total = sum(g.genus for g in sets)
        _min_table.cache_clear()
        assert inf_conv_eval(sets, -60) == total + 60
        assert _min_table.cache_info().currsize == 4
        for prefix in (sets[:1], sets[1:2], sets[2:], sets[:2]):
            assert len(_min_table(prefix)) == sum(g.max_gap + 1 for g in prefix) + 1
        assert _min_table.cache_info().currsize == 4

    def test_beyond_total_cutoff(self):
        sets = [A, B]
        bound = sum(g.max_gap + 1 for g in sets)
        assert inf_conv_eval(sets, bound) == 0
        assert inf_conv_eval(sets, bound + 7) == 0

    def test_single_function(self):
        for m in range(-2, 10):
            assert inf_conv_eval([C], m) == gap_function_eval(C, m)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            inf_conv_eval([], 0)
        with pytest.raises(ValueError):
            inf_conv_n([])

    @given(st.lists(gap_sets(max_element=9, max_size=5), min_size=1, max_size=4))
    def test_agrees_with_pairwise_fold(self, sets):
        table = inf_conv_n(sets)
        reach = sum(g.max_gap + 1 for g in sets)
        for k in range(-reach - 4, table.cutoff + 3):
            assert inf_conv_eval(sets, k) == table(k)

    @given(
        st.lists(gap_sets(max_element=6, max_size=4), min_size=1, max_size=3),
        st.integers(-30, 25),
    )
    def test_matches_brute_force_over_every_split(self, sets, k):
        def gap_fn(g, m):
            return sum(1 for x in g.elements if x >= m) + max(0, -m)

        # a minimizer has each argument in [k - reach, its own cutoff]; this
        # window is wider on both sides, and the last argument takes the rest
        reach = sum(g.max_gap + 1 for g in sets)
        for point in (k, -2 * reach - 7, -reach - 3, -reach, -1, reach, reach + 2):
            lo = min(point, 0) - reach - 2
            windows = [range(lo, g.max_gap + 4) for g in sets[:-1]]
            brute = min(
                sum(gap_fn(g, x) for g, x in zip(sets, xs))
                + gap_fn(sets[-1], point - sum(xs))
                for xs in product(*windows)
            )
            assert inf_conv_eval(sets, point) == brute

    @given(gap_sets(max_element=10, max_size=6), gap_sets(max_element=10, max_size=6))
    def test_value_at_zero_is_pair_sum_bound(self, g, h):
        # I_G(-k) + I_H(k) >= |G| + |H| for every integer k, with equality at k = 0
        total = g.genus + h.genus
        assert inf_conv_eval([g, h], 0) == total
        for k in range(-g.max_gap - 2, h.max_gap + 3):
            assert gap_function_eval(g, -k) + gap_function_eval(h, k) >= total


class TestInfConvTable:
    @given(
        st.lists(
            st.one_of(st.just(EMPTY), gap_sets(max_element=3, max_size=2)), min_size=1, max_size=4
        )
    )
    @example([EMPTY])
    @example([EMPTY, A, EMPTY, B])
    def test_matches_brute_force_and_pointwise_oracle(self, sets):
        def gap_fn(g, m):
            return sum(1 for x in g.elements if x >= m) + max(0, -m)

        # an argument past its cutoff c can hand the excess to another one
        # without raising the sum, so a minimizer has every x_i <= c_i, and
        # then x_i >= k - (reach - c_i): each of the first n - 1 arguments
        # ranges over that window and the last takes the rest
        cutoffs = [g.max_gap + 1 for g in sets]
        reach = sum(cutoffs)
        table = inf_conv_table(sets)
        assert type(table) is tuple
        assert len(table) == reach + 1
        for k in range(reach + 1):
            windows = [range(k - reach + c, c + 1) for c in cutoffs[:-1]]
            brute = min(
                sum(gap_fn(g, x) for g, x in zip(sets, xs)) + gap_fn(sets[-1], k - sum(xs))
                for xs in product(*windows)
            )
            assert table[k] == brute == inf_conv_eval(sets, k)

    def test_returns_the_kept_table_as_a_tuple(self):
        table = inf_conv_table([A, B])
        assert table == (3, 3, 2, 2, 1, 1, 0)
        assert _min_table((A, B)) == list(table)
        assert inf_conv_table((A, B)) == table
        # a GapFunction reads as its gap set
        assert inf_conv_table([GapFunction(A), GapFunction(B)]) == table
        for k in range(-2, 8):
            assert inf_conv_eval([GapFunction(A), B], k) == inf_conv_eval([A, B], k)

    @pytest.mark.parametrize("inputs", [[], [StepFunction.from_gap_set(A)], [A, 3]])
    def test_rejects_what_the_pointwise_oracle_rejects(self, inputs):
        with pytest.raises((ValueError, TypeError)) as pointwise:
            inf_conv_eval(inputs, 0)
        with pytest.raises(pointwise.type, match=re.escape(str(pointwise.value))):
            inf_conv_table(inputs)
