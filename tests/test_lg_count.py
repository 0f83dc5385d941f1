"""Tests for the stratum enumeration, k_LG, and the Hodge-number comparison."""

import hashlib
import time
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    StratumContribution,
    binomial,
    delta_j,
    enumerate_strata,
    fano_sweep,
    fg_rec,
    hodge_h1,
    k_lg,
    k_lg_closed,
)
from fanolg import lg_count
from routes import agreed
from strategies import fano_complete_intersections, fano_complete_intersections_with_repeats



def unpruned_strata(ci):
    """Every admissible label over the full product of its ranges, zero
    contributions included, with divisors from the recursion ``fg_rec``: an
    oracle for the bounded enumeration that shares neither its bound nor the
    closed form of G."""
    out = []
    for j in range(1, ci.k + 1):
        ranges = [range(d - 1) if t + 1 == j else range(d) for t, d in enumerate(ci.degrees)]
        for ivec in product(*ranges):
            if ci.l == 0 and sum(ivec) == 0:
                continue
            multiplicity = 1
            for d, i in zip(ci.degrees, ivec):
                multiplicity *= binomial(d, i)
            divisors = fg_rec(ci.degrees[j - 1], sum(ivec) + ci.l)[1]
            out.append(StratumContribution(j, ivec, multiplicity, divisors))
    return out


def unmerged_k_lg_closed(ci):
    """``k_lg_closed`` with every signed inclusion-exclusion term kept apart:
    3 * 2^(k - 1) terms per j, each (signed weight, free degrees, pins)."""
    total = 0
    for j, dj in enumerate(ci.degrees, 1):
        terms = [(1, 0, 0)]
        for t, d in enumerate(ci.degrees, 1):
            pins = ((d - 1, d), (d, 1)) if t == j else ((d, 1),)  # (pin, C(d, pin))
            terms = [(c, free + d, pinned) for c, free, pinned in terms] + [
                (-c * weight, free, pinned + pin)
                for c, free, pinned in terms
                for pin, weight in pins
            ]
        total += sum(
            c * binomial(free + dj - 1, free + ci.l + pinned) for c, free, pinned in terms
        )
    return total - 1 if ci.l == 0 else total


def per_equation_strata_sums(k, strata):
    """The sum of multiplicity * divisors over the strata of each label j."""
    sums = [0] * k
    for c in strata:
        sums[c.j - 1] += c.multiplicity * c.divisors
    return sums


class TestEnumerateStrata:
    def test_label_bounds(self):
        ci = CompleteIntersection(4, (2, 4))
        for c in enumerate_strata(ci):
            for t, i in enumerate(c.ivec, start=1):
                cap = ci.degrees[t - 1] - (2 if t == c.j else 1)
                assert 0 <= i <= cap
            if ci.l == 0:
                assert sum(c.ivec) >= 1

    @settings(max_examples=200)
    @given(fano_complete_intersections())
    def test_property_equals_unpruned_strata_with_divisors(self, ci):
        expected = [c for c in unpruned_strata(ci) if c.divisors != 0]
        assert enumerate_strata(ci) == expected
        assert all(c.divisors > 0 for c in expected)

    def test_index_one_forms_no_zero_label(self, monkeypatch):
        # G(d_j, 0) would serve only the zero label, which index 1 does not list
        index_one = [ci for ci in fano_sweep(8, 3, 6) if ci.l == 0]
        before = [(enumerate_strata(ci), k_lg(ci)) for ci in index_one]
        g_closed = lg_count.g_closed

        def g_closed_past_zero(d, s):
            assert s > 0, f"G({d}, 0) formed"
            return g_closed(d, s)

        monkeypatch.setattr(lg_count, "g_closed", g_closed_past_zero)
        assert [(enumerate_strata(ci), k_lg(ci)) for ci in index_one] == before
        for ci, (strata, report) in zip(index_one, before):
            assert strata == [c for c in unpruned_strata(ci) if c.divisors != 0], ci
            assert report.k_lg == k_lg_closed(ci), ci

    def test_sweep_listing_is_pinned(self):
        # every label, its order and its record values, byte for byte
        listing = [enumerate_strata(ci) for ci in fano_sweep(16, 5, 10)]
        assert hashlib.sha256(repr(listing).encode()).hexdigest() == (
            "daa3dac6d538504647a65dfb82b5d5f7dc1fe4105c5f29bec986571de5b0c3a1"
        )


class TestStrataBudget:
    def test_exact_boundary(self, monkeypatch):
        # index 1 (the zero label is dropped) and caps that bind (i_1 <= 1 for
        # j = 2, 3): the charge is the exact count, not C(bound + k, k)
        ci = CompleteIntersection(7, (3, 3, 4))
        strata = enumerate_strata(ci)
        bounds = [d - 1 - ci.l for d in ci.degrees]
        assert sum(comb(b + ci.k, ci.k) for b in bounds) > len(strata)
        cost = len(strata) + sum((b + 1) * d for b, d in zip(bounds, ci.degrees))
        monkeypatch.setattr(lg_count, "MAX_STRATA_COST", cost)
        assert enumerate_strata(ci) == strata
        monkeypatch.setattr(lg_count, "MAX_STRATA_COST", cost - 1)
        with pytest.raises(BudgetExceeded, match=f"more than {cost - 1}"):
            enumerate_strata(ci)

    @settings(max_examples=200)
    @given(fano_complete_intersections(), st.data())
    def test_property_refuses_exactly_past_the_budget(self, ci, data):
        # the exact strata count decides, whether or not the uncapped bound
        # C(bound + k, k) lets it be skipped
        strata = enumerate_strata(ci)
        rows = [(d, d - 1 - ci.l) for d in ci.degrees if d - 1 - ci.l >= 0]  # (d_j, bound)
        bits = sum((bound + 1) * d for d, bound in rows)
        cost = bits + len(strata)
        uncapped = bits + sum(comb(bound + ci.k, ci.k) for _, bound in rows)
        budget = data.draw(
            st.integers(cost - 2, cost + 2) | st.integers(0, uncapped + 2), label="budget"
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lg_count, "MAX_STRATA_COST", budget)
            if cost > budget:
                with pytest.raises(BudgetExceeded):
                    enumerate_strata(ci)
            else:
                assert enumerate_strata(ci) == strata

    def test_divisor_bits_are_charged(self):
        # 999 * 999 bits and 997 strata fit; one degree more passes 1,000,000
        assert len(enumerate_strata(CompleteIntersection(998, (999,)))) == 997
        with pytest.raises(BudgetExceeded, match="1,000,000"):
            enumerate_strata(CompleteIntersection(999, (1000,)))

    def test_sweep_is_inside_the_budget(self):
        # the bench's sweep: every listing answers, and every route agrees
        for ci in fano_sweep(16, 5, 10):
            agreed(ci)


class TestKlg:
    def test_components_always_one_more(self):
        for ci in fano_sweep(6, 2, 4):
            report = k_lg(ci)
            assert report.central_fiber_components == report.k_lg + 1
            assert report.k_lg >= 0


class TestKlgClosed:
    @settings(max_examples=200)
    @given(fano_complete_intersections())
    def test_property_equals_the_unmerged_terms(self, ci):
        assert k_lg_closed(ci) == unmerged_k_lg_closed(ci)

    @pytest.mark.parametrize(
        "ci",
        [
            CompleteIntersection(12, (3, 4, 3, 4, 3)),
            CompleteIntersection(14, (3, 4, 3, 4, 3)),
            CompleteIntersection(10, (5, 2, 5, 2)),
            CompleteIntersection(12, (5, 2, 5, 2)),
        ],
        ids=str,
    )
    def test_non_adjacent_repeated_degrees(self, ci):
        # one term per distinct degree, against the terms of every j kept apart
        assert k_lg_closed(ci) == unmerged_k_lg_closed(ci)

    @settings(max_examples=200)
    @given(fano_complete_intersections_with_repeats())
    def test_property_repeated_degrees_equal_the_unmerged_terms(self, ci):
        assert k_lg_closed(ci) == unmerged_k_lg_closed(ci)

    @pytest.mark.parametrize("k", [16, 17, 20, 40])
    def test_many_quadrics_answer(self, k):
        # 3 * 2^(k - 1) unmerged terms per j, but at most (2k + 1)^2 merged
        ci = CompleteIntersection(k, (2,) * k)
        start = time.perf_counter()
        k_lg_closed(ci)
        assert time.perf_counter() - start < 1
        agreed(ci)


class TestMainTheorem:
    @settings(max_examples=200)
    @given(fano_complete_intersections())
    def test_property_primitive_form_beyond_the_sweep(self, ci):
        agreed(ci)

    def test_index_one_hypersurfaces(self):
        for dim in range(2, 8):
            ci = CompleteIntersection(dim, (dim + 1,))
            assert k_lg(ci).k_lg == comb(2 * dim + 1, dim + 1) - dim - 2

    def test_each_equation_on_the_sweep_at_index_two_and_up(self):
        # At index >= 2 the theorem holds equation by equation: delta_j, an
        # inclusion-exclusion of binomials, equals the stratum sum of label j.
        # An equation below the index has neither.  Index 1 is left out: its
        # k - 1 and N + k + 1 corrections do not split by j.
        checked = below = 0
        for ci in fano_sweep(16, 5, 10):
            if ci.index >= 2:
                strata = enumerate_strata(ci)
                by_label = per_equation_strata_sums(ci.k, strata)
                for j, dj in enumerate(ci.degrees, 1):
                    assert delta_j(ci, j) == by_label[j - 1], (ci, j)
                    checked += 1
                    if dj < ci.index:
                        assert all(c.j != j for c in strata), (ci, j)
                        below += 1
        assert (checked, below) == (5484, 2700)

    @settings(max_examples=200)
    @given(fano_complete_intersections(max_k=8))
    def test_property_each_equation_at_index_two_and_up(self, ci):
        assume(ci.index >= 2)
        by_label = per_equation_strata_sums(ci.k, enumerate_strata(ci))
        assert [delta_j(ci, j) for j in range(1, ci.k + 1)] == by_label

    def test_both_sides_vanish_one_past_the_band(self):
        # With D = sum d and d_max = max d, at N = D + d_max - k the index is
        # d_max + 1: every delta_j binomial and every strata bound is out of
        # range.  One dimension lower the label j = argmax d, i = 0 still counts.
        checked = 0
        for k in range(1, 6):
            for degrees in combinations_with_replacement(range(2, 11), k):
                top = sum(degrees) + max(degrees) - k
                past = CompleteIntersection(top, degrees)
                assert agreed(past) == 0, past
                edge = CompleteIntersection(top - 1, degrees)
                assert agreed(edge) > 0, edge
                checked += 2
        assert checked == 4002


# Hodge numbers of the Fano complete intersections of dimension 3 (h^{1,2}) and
# of the del Pezzo surface of degree 4 (h^{1,1}), from the classification:
# V. A. Iskovskikh and Yu. G. Prokhorov, Fano varieties, Encyclopaedia of
# Mathematical Sciences 47, Springer, 1999.
PUBLISHED_H = {
    CompleteIntersection(3, (2,)): 0,
    CompleteIntersection(3, (3,)): 5,
    CompleteIntersection(3, (4,)): 30,
    CompleteIntersection(3, (2, 2)): 2,
    CompleteIntersection(3, (2, 3)): 20,
    CompleteIntersection(3, (2, 2, 2)): 14,
    CompleteIntersection(2, (2, 2)): 6,
}


@pytest.mark.parametrize("ci", PUBLISHED_H, ids=str)
def test_published_hodge_numbers(ci):
    """Every route gives the published h; at dim 2 the hyperplane class adds 1
    to the primitive part that the routes give."""
    surface = 1 if ci.dim == 2 else 0
    assert hodge_h1(ci).h == PUBLISHED_H[ci]
    assert agreed(ci) + surface == PUBLISHED_H[ci]
