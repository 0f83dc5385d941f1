"""Tests for the Hodge-number computation and its two agreeing routes: the
inclusion-exclusion and the capped-head count, of which the nested binomial
sum is the same sum."""

import ast
import re
from itertools import combinations_with_replacement, product
from math import comb
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    alt_dim_formula,
    binomial,
    count_monomials_oracle,
    delta_j,
    dim_R_1,
    dim_R_prime_1,
    fano_sweep,
    hodge_h1,
    hypersurface_corollary,
)
import fanolg
from fanolg import jacobian_ring
from routes import RING, agreed
from strategies import fano_complete_intersections, fano_complete_intersections_with_repeats

CUBIC_SURFACE = CompleteIntersection(2, (3,))
CUBIC_THREEFOLD = CompleteIntersection(3, (3,))
QUADRIC_THREEFOLD = CompleteIntersection(3, (2,))


def brute_force_monomial_count(ci):
    """Fully literal monomial enumeration, with no stars-and-bars compression:
    all exponent vectors over the dim + k + 1 ambient variables are walked."""
    nvars = ci.dim + ci.k + 1
    total = 0
    for j in range(1, ci.k + 1):
        target = ci.degrees[j - 1] - ci.index

        def count(pos, remaining):
            if pos == nvars:
                return 1 if remaining == 0 else 0
            cap = remaining
            if pos < ci.k:
                cap = min(cap, ci.degrees[pos] - 1)
            return sum(count(pos + 1, remaining - e) for e in range(cap + 1))

        if target >= 0:
            total += count(0, target)
    return total


def unpruned_monomial_count(ci):
    """``count_monomials_oracle`` over the full product of the head ranges,
    skipping heads past the target degree: the reference for its bounded
    enumeration."""
    total = 0
    for j in range(1, ci.k + 1):
        target = ci.degrees[j - 1] - ci.index
        if target < 0:
            continue
        for head in product(*[range(d) for d in ci.degrees]):
            remaining = target - sum(head)
            if remaining >= 0:
                total += comb(remaining + ci.dim, ci.dim)
    return total


def plain_delta_j(ci, j):
    """``delta_j`` as the mask loop that forms every binomial, vanishing ones
    included, each with the sign (-1) ** (k - |I|): the reference for its
    skipped binomials and its parity sign."""
    k = ci.k
    dj = ci.degrees[j - 1]
    total = 0
    for mask in range(1 << k):
        subset_sum = sum(d for t, d in enumerate(ci.degrees) if mask >> t & 1)
        size = bin(mask).count("1")
        total += (-1) ** (k - size) * binomial(subset_sum + dj - 1, ci.dim + k)
    return total


class TestCompleteIntersection:
    def test_empty_degrees_rejected(self):
        with pytest.raises(ValueError):
            CompleteIntersection(3, ())

    @settings(max_examples=100)
    @given(st.integers(0, 12), st.integers(0, 5), st.integers(0, 10))
    def test_property_fano_sweep_equals_the_filtered_tuples(self, max_dim, max_k, max_degree):
        # every nondecreasing tuple, filtered by the Fano condition afterwards
        # and built by the checked constructor; == ignores the derived fields
        # that fano_sweep sets itself, so every field is compared
        expected = [
            CompleteIntersection(dim, degrees)
            for dim in range(2, max_dim + 1)
            for k in range(1, max_k + 1)
            for degrees in combinations_with_replacement(range(2, max_degree + 1), k)
            if sum(degrees) <= dim + k
        ]
        fields = attrgetter(*CompleteIntersection.__slots__)
        assert list(map(fields, fano_sweep(max_dim, max_k, max_degree))) == list(
            map(fields, expected)
        )


class TestDeltaJ:
    def test_out_of_range_j(self):
        with pytest.raises(ValueError):
            delta_j(CUBIC_SURFACE, 2)

    def test_degree_equal_to_the_index(self):
        # (3,) in dimension 4 has index 3 = d_1: the full subset's binomial is
        # C(dim + k, dim + k) = 1, at the edge of the skipped range.
        ci = CompleteIntersection(4, (3,))
        assert delta_j(ci, 1) == plain_delta_j(ci, 1) == 1

    def test_degree_one_below_the_index(self):
        # (3,) in dimension 5 has index 4 = d_1 + 1: the full subset's binomial
        # is C(dim + k - 1, dim + k) = 0, so no binomial survives.  In (2, 3) in
        # dimension 5 (index 3) the two equations sit on either side.
        ci = CompleteIntersection(5, (3,))
        assert delta_j(ci, 1) == plain_delta_j(ci, 1) == 0
        pair = CompleteIntersection(5, (2, 3))
        expected = [plain_delta_j(pair, 1), plain_delta_j(pair, 2)]
        assert [delta_j(pair, 1), delta_j(pair, 2)] == expected == [0, 1]

    @settings(max_examples=300)
    @given(fano_complete_intersections(max_k=8))
    def test_property_vanishes_exactly_below_the_index(self, ci):
        # at or above the index the monomial x^(d_j - index) in one of the
        # dim + 1 free variables is always counted
        for j, dj in enumerate(ci.degrees, 1):
            if dj < ci.index:
                assert delta_j(ci, j) == 0
            else:
                assert delta_j(ci, j) >= 1

    @settings(max_examples=300)
    @given(fano_complete_intersections(max_k=8))
    def test_property_equals_the_plain_mask_loop(self, ci):
        for j in range(1, ci.k + 1):
            assert delta_j(ci, j) == plain_delta_j(ci, j)

    def test_one_binomial_case_on_the_sweep(self):
        # every (input, j) of fano_sweep(16, 5, 10) with d_j - index in {0, 1}
        pairs = [
            (ci, j, dj - ci.index)
            for ci in fano_sweep(16, 5, 10)
            for j, dj in enumerate(ci.degrees, 1)
            if dj - ci.index in (0, 1)
        ]
        assert len(pairs) == 1939
        for ci, j, r in pairs:
            closed = ci.dim + ci.k + 1 if r else 1
            assert delta_j(ci, j) == plain_delta_j(ci, j) == closed, (ci, j)

    @settings(max_examples=300)
    @given(fano_complete_intersections(max_k=8))
    def test_property_one_binomial_case(self, ci):
        for j, dj in enumerate(ci.degrees, 1):
            r = dj - ci.index
            if r in (0, 1):
                lower = ci.dim + ci.k
                assert delta_j(ci, j) == plain_delta_j(ci, j) == comb(lower + r, lower)


class TestRingDimensions:
    def test_all_degrees_below_index(self):
        assert dim_R_prime_1(QUADRIC_THREEFOLD) == 0
        assert dim_R_prime_1(CompleteIntersection(5, (2, 2))) == 0

    def test_oracle_matches_literal_enumeration(self):
        for ci in fano_sweep(4, 2, 4):
            assert count_monomials_oracle(ci) == brute_force_monomial_count(ci), ci

    @settings(max_examples=200)
    @given(fano_complete_intersections())
    def test_property_oracle_equals_unpruned_count(self, ci):
        assert count_monomials_oracle(ci) == unpruned_monomial_count(ci)

    def test_nonnegative_on_sweep(self):
        for ci in fano_sweep(6, 2, 5):
            assert dim_R_prime_1(ci) >= 0
            assert dim_R_1(ci) >= 0
            # all that alt_dim_formula promises; it restates the monomial count
            assert alt_dim_formula(ci) == dim_R_1(ci), ci


class TestSummandBudget:
    def test_limit_is_exact(self, monkeypatch):
        # k = 3 cubics at index 1, each with d_j - index = 2: equal degrees
        # share one mask loop of 2^3 summands
        ci = CompleteIntersection(6, (3, 3, 3))
        expected = sum(delta_j(ci, j) for j in (1, 2, 3))
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 8)
        assert dim_R_prime_1(ci) == expected
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 7)
        with pytest.raises(BudgetExceeded, match="8 summands"):
            dim_R_prime_1(ci)
        with pytest.raises(BudgetExceeded):
            hodge_h1(ci)

    def test_each_distinct_degree_is_charged_once(self, monkeypatch):
        # index 1: the cubics (d_j - index = 2) share one loop and the quartic
        # (3) runs its own, 2 * 2^3 summands, though three equations loop
        ci = CompleteIntersection(7, (3, 4, 3))
        expected = sum(plain_delta_j(ci, j) for j in (1, 2, 3))
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 16)
        assert dim_R_prime_1(ci) == expected
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 15)
        with pytest.raises(BudgetExceeded, match="16 summands"):
            dim_R_prime_1(ci)

    def test_seventeen_equal_cubics_answer(self):
        # one loop of 2^17 summands, refused while every cubic ran its own
        agreed(CompleteIntersection(34, (3,) * 17), RING)

    def test_only_the_mask_loops_are_charged(self, monkeypatch):
        # index 1: the quadrics have d_j - index = 1 and answer at once, and
        # only the quartic (d_j - index = 3) runs its 2^3 subsets
        ci = CompleteIntersection(5, (2, 2, 4))
        expected = plain_delta_j(ci, 1) + plain_delta_j(ci, 2) + plain_delta_j(ci, 3)
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 8)
        assert dim_R_prime_1(ci) == expected
        monkeypatch.setattr(jacobian_ring, "MAX_INCLUSION_EXCLUSION_SUMMANDS", 7)
        with pytest.raises(BudgetExceeded, match="8 summands"):
            dim_R_prime_1(ci)


# repeated degrees in positions that are not adjacent, at index 1 and index 3
REPEATED_DEGREES = [
    CompleteIntersection(12, (3, 4, 3, 4, 3)),
    CompleteIntersection(14, (3, 4, 3, 4, 3)),
    CompleteIntersection(10, (5, 2, 5, 2)),
    CompleteIntersection(12, (5, 2, 5, 2)),
]


class TestRepeatedDegrees:
    """``dim_R_prime_1`` evaluates one ``delta_j`` per distinct degree; the
    plain mask loop of every equation is the reference."""

    @pytest.mark.parametrize("ci", REPEATED_DEGREES, ids=str)
    def test_equals_the_sum_over_every_equation(self, ci):
        assert dim_R_prime_1(ci) == sum(plain_delta_j(ci, j) for j in range(1, ci.k + 1))

    @settings(max_examples=200)
    @given(fano_complete_intersections_with_repeats())
    def test_property_equals_the_sum_over_every_equation(self, ci):
        assert dim_R_prime_1(ci) == sum(plain_delta_j(ci, j) for j in range(1, ci.k + 1))


class TestHodge:
    def test_surface_adjustment_only_in_dimension_two(self):
        quadric_surface = hodge_h1(CompleteIntersection(2, (2,)))
        assert quadric_surface.h_pr == 1
        assert quadric_surface.h == 2
        assert hodge_h1(CUBIC_THREEFOLD).h == hodge_h1(CUBIC_THREEFOLD).h_pr

    def test_permutation_invariance(self):
        a = hodge_h1(CompleteIntersection(5, (2, 3)))
        b = hodge_h1(CompleteIntersection(5, (3, 2)))
        assert a == b


class TestHypersurfaceCorollary:
    @pytest.mark.parametrize("dim, d", [(1, 2), (3, 1), (3, 5)])
    def test_refusals_are_the_varietys_own(self, dim, d):
        with pytest.raises(ValueError) as refusal:
            CompleteIntersection(dim, (d,))
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal.value))}$"):
            hypersurface_corollary(dim, d)


@pytest.mark.parametrize("module", ["jacobian_ring", "givental"])
def test_route_shares_no_code_with_the_lg_side(module):
    """The ring and period routes import only the shared primitives, so the
    comparisons with the stratum count (``lg_count``, ``resolution``) stay
    checks between separate code paths."""
    tree = ast.parse((Path(fanolg.__file__).parent / f"{module}.py").read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert imported and imported <= {"exactmath", "varieties"}
