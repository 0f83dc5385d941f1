"""Tests for the exact combinatorial primitives."""

from collections import Counter
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import BudgetExceeded, binomial, convolution_identity_sides
from fanolg.exactmath import binomial_row, capped_sum_counts


def naive_lhs(dbar, e, l):
    """The convolution identity's left side as a literal nested sum, used as an
    independent check on the grouped evaluation inside the library."""
    total = 0
    for ivec in product(*[range(d + 1) for d in dbar]):
        term = binomial(e, sum(ivec) + l)
        for d, i in zip(dbar, ivec):
            term *= binomial(d, i)
        total += term
    return total


def filtered_product(caps, bound):
    """The full product of the ranges 0..caps[t], filtered by the sum, as
    (vector, sum) pairs: the reference for ``capped_sum_counts``."""
    vectors = product(*[range(c + 1) for c in caps])
    return [(ivec, sum(ivec)) for ivec in vectors if sum(ivec) <= bound]


class TestCappedVectors:
    """The vectors with 0 <= ivec[t] <= caps[t] and sum at most a bound, as
    ``capped_sum_counts`` counts them by their sums."""

    def test_empty_caps(self):
        assert capped_sum_counts([], 0) == [1]
        assert capped_sum_counts([], 5) == [1, 0, 0, 0, 0, 0]
        assert capped_sum_counts([], -1) == []

    def test_bound_below_zero(self):
        assert capped_sum_counts([3, 3], -1) == []
        assert capped_sum_counts([0], -4) == []

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 6), max_size=5), st.integers(-3, 20))
    def test_property_equals_filtered_product(self, caps, bound):
        assert sum(capped_sum_counts(caps, bound)) == len(filtered_product(caps, bound))

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 6), max_size=5), st.integers(-3, 20))
    def test_property_sum_counts_equal_counter_of_sums(self, caps, bound):
        sums = Counter(s for _, s in filtered_product(caps, bound))
        assert capped_sum_counts(caps, bound) == [sums[s] for s in range(bound + 1)]


class TestBinomial:
    def test_vanishing_convention(self):
        assert binomial(4, -1) == 0
        assert binomial(0, 0) == 1
        assert binomial(10, 11) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_recurrence_and_symmetry(self):
        for n in range(1, 61):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
                assert binomial(n, k) == binomial(n, n - k)

    def test_exactness_beyond_64_bits(self):
        assert binomial(120, 60) == factorial(120) // factorial(60) ** 2

    def test_too_large_to_form_is_a_budget_error(self):
        # math.comb takes min(k, n - k) only up to 2^63 - 1
        with pytest.raises(BudgetExceeded, match="n of 65 bits and k of 64 bits"):
            binomial(2**64, 2**63)
        assert binomial(2**64, 2) == 2**63 * (2**64 - 1)

    @settings(max_examples=300)
    @given(st.integers(0, 300), st.integers(0, 300))
    def test_property_row_equals_comb(self, a, b):
        n, cap = max(a, b), min(a, b)
        assert binomial_row(n, cap) == [comb(n, k) for k in range(cap + 1)]


class TestConvolutionIdentity:
    """Criterion 4 sweeps the two sides' equality; here the grouped left side
    is checked against the literal nested sum."""

    def test_two_exponent_example(self):
        lhs, rhs = convolution_identity_sides([2, 3], 4, 2)
        assert lhs == rhs
        assert lhs == naive_lhs([2, 3], 4, 2)

    def test_grouped_sum_matches_naive_sum(self):
        for dbar in [(1,), (4,), (2, 2), (3, 1), (2, 3, 4)]:
            for e in range(7):
                for l in range(4):
                    lhs, _ = convolution_identity_sides(dbar, e, l)
                    assert lhs == naive_lhs(dbar, e, l)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            convolution_identity_sides([0], 1, 1)
        with pytest.raises(ValueError):
            convolution_identity_sides([2], -1, 0)
        with pytest.raises(ValueError):
            convolution_identity_sides([2], 0, -1)
