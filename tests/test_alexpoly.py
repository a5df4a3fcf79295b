"""Polynomial arithmetic, gap encoding, and k-coefficient extraction."""

from __future__ import annotations

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from gapkit import (
    BadExpansion,
    GapSet,
    IntPolynomial,
    KSequence,
    NotGapForm,
    alexander_from_gaps,
    divide_by_t_minus_one,
    expand_k_sequence,
    gap_function_eval,
    gaps_from_alexander,
    poly_mul,
)

from conftest import gap_sets

A = GapSet((1,))
B = GapSet((1, 3))
C = GapSet((1, 2, 5, 7))


def small_polys(max_degree: int = 8, max_coeff: int = 9):
    return st.builds(
        lambda cs: IntPolynomial(tuple(cs)),
        st.lists(st.integers(-max_coeff, max_coeff), max_size=max_degree + 1),
    )


class TestIntPolynomial:
    def test_normalization_trims_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial((0, 0)).coefficients == ()

    def test_degree(self):
        assert IntPolynomial(()).degree == -1
        assert IntPolynomial((5,)).degree == 0
        assert IntPolynomial((0, 0, 3)).degree == 2

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 2.5))
        with pytest.raises(ValueError):
            IntPolynomial((True,))

    def test_evaluation(self):
        p = IntPolynomial((1, -1, 1))
        assert p(0) == 1 and p(1) == 1 and p(2) == 3 and p(-2) == 7

    def test_text_round_trip(self):
        assert IntPolynomial.from_text("1,-1,1").coefficients == (1, -1, 1)
        assert IntPolynomial((1, -1, 1)).to_text() == "1,-1,1"
        assert IntPolynomial(()).to_text() == "0"
        assert IntPolynomial.from_text("0").coefficients == ()
        with pytest.raises(ValueError):
            IntPolynomial.from_text("1,x")


class TestAlexanderFromGaps:
    @pytest.mark.parametrize(
        "elements, coeffs",
        [
            ((), (1,)),
            ((1,), (1, -1, 1)),
            ((1, 3), (1, -1, 1, -1, 1)),
            ((1, 2, 5, 7), (1, -1, 0, 1, 0, -1, 1, -1, 1)),
        ],
    )
    def test_known_polynomials(self, elements, coeffs):
        assert alexander_from_gaps(GapSet(elements)).coefficients == coeffs

    @given(gap_sets())
    def test_value_and_derivative_at_one(self, gs):
        p = alexander_from_gaps(gs)
        assert p(1) == 1
        quotient, remainder = divide_by_t_minus_one(p)
        assert remainder == 1
        # P'(1) equals the quotient of (P - 1)/(t - 1) evaluated at 1, the genus
        assert quotient(1) == gs.genus

    def test_one_polynomial_per_gap_set(self):
        # the autouse fixture empties the cache before each test
        assert alexander_from_gaps.cache_info().currsize == 0
        p = alexander_from_gaps(GapSet((1, 3)))
        assert alexander_from_gaps(GapSet((3, 1))) == p == IntPolynomial((1, -1, 1, -1, 1))
        assert alexander_from_gaps.cache_info()[:2] == (1, 1)  # one hit, one miss


class TestGapsFromAlexander:
    def test_known_inverses(self):
        assert gaps_from_alexander(IntPolynomial((1, -1, 1))) == A
        assert gaps_from_alexander(IntPolynomial((1,))) == GapSet(())

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 0, 1),  # P(1) = 2
            (0, 1),  # P(1) != 1
            (),  # zero polynomial
            (1, -2, 2),  # quotient coefficient 2
            (0, 1, -1, 1),  # quotient constant term nonzero
            (1, 1, -2, 1),  # quotient coefficient -1
        ],
    )
    def test_rejects_non_gap_polynomials(self, coeffs):
        with pytest.raises(NotGapForm):
            gaps_from_alexander(IntPolynomial(coeffs))

    @given(gap_sets(max_element=12))
    def test_round_trip(self, gs):
        assert gaps_from_alexander(alexander_from_gaps(gs)) == gs


class TestPolyMul:
    def test_known_products(self):
        pa, pb, pc = (alexander_from_gaps(g) for g in (A, B, C))
        assert poly_mul(pa, pa).coefficients == (1, -2, 3, -2, 1)
        assert poly_mul(pa, pb).coefficients == (1, -2, 3, -3, 3, -2, 1)
        triple = reduce(poly_mul, (pa, pb, pc))
        assert triple.coefficients == (1, -3, 5, -5, 4, -3, 3, -4, 7, -10, 11, -9, 6, -3, 1)

    def test_identity(self):
        p = IntPolynomial((3, 0, -2, 1))
        assert poly_mul(p, IntPolynomial((1,))) == p

    def test_zero(self):
        assert poly_mul(IntPolynomial(()), IntPolynomial((1, 2))).coefficients == ()

    @given(small_polys(), small_polys())
    def test_commutative_and_evaluation_multiplies(self, p, q):
        pq = poly_mul(p, q)
        assert pq == poly_mul(q, p)
        for x in (-2, 1, 3):
            assert pq(x) == p(x) * q(x)
        if p.coefficients and q.coefficients:
            assert pq.degree == p.degree + q.degree

    @given(small_polys(), small_polys(), small_polys())
    def test_associative(self, p, q, r):
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))

    def test_twenty_degree_twelve_factors_stay_exact(self):
        factor = alexander_from_gaps(GapSet((11,)))
        assert factor.degree == 12
        product = reduce(poly_mul, [factor] * 20)
        assert product.degree == 240
        assert product(1) == 1
        assert product(2) == factor(2) ** 20
        ks = expand_k_sequence(product, 20)
        assert ks.to_polynomial() == product


class TestDivideByTMinusOne:
    @pytest.mark.parametrize(
        "coeffs, quotient, remainder",
        [
            ((1, -2, 1), (-1, 1), 0),
            ((1, -1, 1), (0, 1), 1),
            ((1,), (), 1),
            ((), (), 0),
        ],
    )
    def test_known_divisions(self, coeffs, quotient, remainder):
        q, r = divide_by_t_minus_one(IntPolynomial(coeffs))
        assert q.coefficients == quotient
        assert r == remainder

    @given(small_polys())
    def test_reconstruction_identity(self, p):
        q, r = divide_by_t_minus_one(p)
        rebuilt = poly_mul(q, IntPolynomial((-1, 1)))
        with_r = IntPolynomial((rebuilt.coefficients[0] + r,) + rebuilt.coefficients[1:]) \
            if rebuilt.coefficients else IntPolynomial((r,))
        assert with_r == p
        assert r == p(1)


class TestExpandKSequence:
    def test_known_expansions(self):
        pa, pb, pc = (alexander_from_gaps(g) for g in (A, B, C))
        assert expand_k_sequence(pa, 1).ks == (1,)
        assert expand_k_sequence(poly_mul(pa, pa), 2).ks == (2, 0, 1)
        assert expand_k_sequence(poly_mul(pa, pb), 3).ks == (3, 1, 2, 0, 1)
        triple = expand_k_sequence(reduce(poly_mul, (pa, pb, pc)), 7)
        assert triple.ks[:5] == (7, 4, 6, 3, 4)
        assert triple.ks == (7, 4, 6, 3, 4, 2, 3, 0, 4, -2, 3, -1, 1)

    def test_cube_of_smallest_factor(self):
        cube = reduce(poly_mul, [alexander_from_gaps(A)] * 3)
        assert cube.coefficients == (1, -3, 6, -7, 6, -3, 1)
        assert expand_k_sequence(cube, 3).ks == (3, 0, 3, -1, 1)

    def test_wrong_genus_rejected(self):
        with pytest.raises(BadExpansion, match="P'"):
            expand_k_sequence(IntPolynomial((0, 1)), 2)
        with pytest.raises(BadExpansion, match="P'"):
            expand_k_sequence(alexander_from_gaps(B), 1)

    def test_wrong_value_at_one_rejected(self):
        with pytest.raises(BadExpansion, match=r"P\(1\)"):
            expand_k_sequence(IntPolynomial((1, 1)), 1)

    def test_invalid_genus_rejected(self):
        with pytest.raises(ValueError):
            expand_k_sequence(IntPolynomial((1,)), -1)

    @given(gap_sets())
    def test_single_set_coefficients_count_gaps(self, gs):
        ks = expand_k_sequence(alexander_from_gaps(gs), gs.genus)
        for j in range(gs.max_gap + 2):
            assert ks.at(j) == gap_function_eval(gs, j + 1)

    @given(gap_sets(max_element=10, max_size=5), gap_sets(max_element=10, max_size=5))
    def test_agrees_with_recurrence(self, g1, g2):
        # independent route: k_j = p_j + 2 k_{j-1} - k_{j-2} on P - 1 - g(t-1)
        product = poly_mul(alexander_from_gaps(g1), alexander_from_gaps(g2))
        genus = g1.genus + g2.genus
        ks = expand_k_sequence(product, genus)
        p = list(product.coefficients)
        while len(p) < 2:
            p.append(0)
        p[0] -= 1 - genus
        p[1] -= genus
        recurrence = []
        for j in range(len(p)):
            prev1 = recurrence[j - 1] if j >= 1 else 0
            prev2 = recurrence[j - 2] if j >= 2 else 0
            recurrence.append(p[j] + 2 * prev1 - prev2)
        while recurrence and recurrence[-1] == 0:
            recurrence.pop()
        assert tuple(recurrence) == ks.ks

    @given(st.integers(0, 6), st.lists(st.integers(-5, 5), max_size=8))
    def test_round_trips_through_reconstruction(self, genus, ks_list):
        ks = KSequence(genus, tuple(ks_list))
        assert expand_k_sequence(ks.to_polynomial(), genus) == ks


class TestKSequence:
    def test_trailing_zeros_trimmed(self):
        assert KSequence(2, (1, 0, 0)).ks == (1,)
        assert KSequence(0, (0,)).ks == ()

    def test_at(self):
        ks = KSequence(2, (2, 0, 1))
        assert [ks.at(j) for j in range(5)] == [2, 0, 1, 0, 0]
        with pytest.raises(ValueError):
            ks.at(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            KSequence(-1, ())
        with pytest.raises(ValueError):
            KSequence(1, (1.5,))

    def test_reconstruction_of_known_case(self):
        assert KSequence(1, (1,)).to_polynomial() == IntPolynomial((1, -1, 1))
