"""Tests for the mirror polynomial, the expansion engine, and the period check."""

import time
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    LaurentPolynomial,
    build_fx,
    fano_sweep,
    i_series,
    phi_series,
    verify_period,
)
from fanolg import givental
from fanolg.givental import _first_mismatch, _term_orbits

CUBIC_SURFACE = CompleteIntersection(2, (3,))
CUBIC_THREEFOLD = CompleteIntersection(3, (3,))
QUINTIC_FOURFOLD = CompleteIntersection(4, (5,))


def unpruned_powers(f, order):
    """Terms of f^0, ..., f^order by plain tuple-keyed multiplication without
    pruning: an oracle for the engine that shares none of its key packing."""
    acc = {(0,) * f.arity: 1}
    powers = [acc]
    for _ in range(order):
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in f.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = {e: c for e, c in nxt.items() if c}
        powers.append(acc)
    return powers


def plain_term_orbits(f):
    """``_term_orbits`` with every swap test done by a full permutation of the
    variables, each term rebuilt through it: the oracle for the search that
    reads only the two entries a swap moves."""
    terms = f.terms
    classes = []
    for v in range(f.arity):
        for cls in classes:
            swap = list(range(f.arity))
            swap[v], swap[cls[0]] = cls[0], v
            if all(terms.get(tuple(e[u] for u in swap)) == c for e, c in terms.items()):
                cls.append(v)
                break
        else:
            classes.append([v])
    representative = {}
    weights = {}
    for e in terms:
        rep = representative.setdefault(
            tuple(x for cls in classes for x in sorted(e[v] for v in cls)), e
        )
        weights[rep] = weights.get(rep, 0) + 1
    return weights


@st.composite
def laurent_polynomials(draw):
    arity = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(-3, 3)] * arity)
    terms = draw(st.dictionaries(exponents, st.integers(-4, 4), max_size=6))
    return LaurentPolynomial(arity, terms)


def symmetrized(f, classes):
    """The sum of g(f) over the permutations g that move variables only within
    their class, so the variables of a class are interchangeable in the sum."""
    terms = {}
    for images in product(*(permutations(cls) for cls in classes)):
        source = list(range(f.arity))
        for cls, image in zip(classes, images):
            for v, w in zip(cls, image):
                source[w] = v
        for e, c in f.terms.items():
            moved = tuple(e[source[u]] for u in range(f.arity))
            terms[moved] = terms.get(moved, 0) + c
    return LaurentPolynomial(f.arity, terms)


@st.composite
def symmetric_laurent_polynomials(draw, max_arity=3):
    """A random Laurent polynomial symmetrized over a random partition of its
    variables."""
    arity = draw(st.integers(1, max_arity))
    labels = draw(st.lists(st.integers(0, arity - 1), min_size=arity, max_size=arity))
    classes = [[v for v in range(arity) if labels[v] == c] for c in sorted(set(labels))]
    exponents = st.tuples(*[st.integers(-1, 2)] * arity)
    terms = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=4))
    return symmetrized(LaurentPolynomial(arity, terms), classes)


class TestLaurentPolynomial:
    def test_zero_coefficients_dropped(self):
        f = LaurentPolynomial(2, {(0, 1): 5, (1, 0): 0})
        assert f.terms == {(0, 1): 5}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LaurentPolynomial(2, {(1,): 1})

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError, match="^arity must be positive, got 0$"):
            LaurentPolynomial(0)

    def test_multiplication_by_hand(self):
        # (x - 1/x)^2 = x^2 - 2 + 1/x^2
        f = LaurentPolynomial(1, {(1,): 1, (-1,): -1})
        assert unpruned_powers(f, 2)[2] == {(2,): 1, (0,): -2, (-2,): 1}
        assert phi_series(f, 2).coefficients[2] == -2
        # (x + y + 1/(x y))^3 has constant term 3!/(1! 1! 1!)
        g = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert phi_series(g, 3).coefficients[3] == 6

    def test_power(self):
        # (x + 1/x)^n has constant term C(n, n/2) for even n, 0 for odd n
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert unpruned_powers(f, 2)[2] == {(2,): 1, (0,): 2, (-2,): 1}
        assert [phi_series(f, n).coefficients[n] for n in range(7)] == [1, 0, 2, 0, 6, 0, 20]


class TestBuildFx:
    def test_terms_in_product_order_with_factorial_multinomials(self):
        # block i: every vector e of d - 1 entries in 0..d with sum <= d, in
        # itertools.product order, with coefficient d! / (prod e_t! (d - sum e)!);
        # the blocks combine in product order too, and the y-terms come last
        for ci in fano_sweep(6, 2, 7):
            blocks = [
                [e for e in product(range(d + 1), repeat=d - 1) if sum(e) <= d]
                for d in ci.degrees
            ]
            expected = {}
            for combo in product(*blocks):
                coeff = 1
                for d, e in zip(ci.degrees, combo):
                    coeff *= factorial(d) // (prod(map(factorial, e)) * factorial(d - sum(e)))
                shifted = tuple(x - 1 for e in combo for x in e) + (-1,) * ci.l
                expected[shifted] = coeff
            for j in range(ci.l):
                expected[tuple(int(t == ci.dim - ci.l + j) for t in range(ci.dim))] = 1
            assert list(build_fx(ci).terms.items()) == list(expected.items()), ci


class TestConstantTerm:
    @settings(max_examples=150)
    @given(laurent_polynomials(), st.integers(0, 8))
    def test_property_agrees_with_unpruned_power(self, f, order):
        zero = (0,) * f.arity
        expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, order))
        assert phi_series(f, order).coefficients == expected

    def test_orders_of_both_parities_agree_with_unpruned_powers(self):
        # the last constant term comes from P[h] . P[h] at even orders 2h, and
        # at odd orders 2h - 1 from P[h-1]^2 against the terms of f, one term
        # per orbit of the interchangeable variables (x and y in the fifth case)
        cases = [
            LaurentPolynomial(1, {(1,): 1, (-1,): 1}),
            LaurentPolynomial(2, {(1, 0): 2, (0, 1): -1, (-1, -1): 1, (0, 0): 3}),
            LaurentPolynomial(2, {(2, -1): 1, (-1, 1): -2, (-1, 0): 1, (0, -1): 1}),
            build_fx(CUBIC_SURFACE),
            symmetrized(
                LaurentPolynomial(3, {(1, 0, 0): 1, (0, 0, 1): 2, (-1, -1, 0): 1, (1, -1, 1): -1}),
                [[0, 1], [2]],
            ),
        ]
        for f in cases:
            zero = (0,) * f.arity
            expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 12))
            for order in range(13):
                assert phi_series(f, order).coefficients == expected[: order + 1], (f, order)

    @settings(max_examples=60)
    @given(symmetric_laurent_polynomials())
    def test_property_symmetric_agrees_with_unpruned_power(self, f):
        zero = (0,) * f.arity
        expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 9))
        for order in range(10):
            assert phi_series(f, order).coefficients == expected[: order + 1], order

    def test_odd_orders_on_skewed_supports(self):
        # lo = -1, hi = 5 in the first variable: at the odd last step -(e+t)
        # leaves the box [min(0, order*lo), max(0, order*hi)] (below -3 at
        # order 3), in a variable whose digit is not the last of the key
        cases = [
            LaurentPolynomial(1, {(5,): 1, (-1,): 2, (2,): 1}),
            LaurentPolynomial(2, {(5, -1): 1, (-1, 0): 3, (0, 1): -1, (1, -1): 2}),
            LaurentPolynomial(2, {(5, 1): 1, (-1, 0): 1, (2, 0): -2, (1, 0): 2}),
            LaurentPolynomial(
                3, {(5, -1, 1): 1, (-1, 0, -1): 2, (-1, 1, 0): 1, (0, 0, 1): -1, (1, -1, -1): 2}
            ),
        ]
        for f in cases:
            zero = (0,) * f.arity
            expected = tuple(power.get(zero, 0) for power in unpruned_powers(f, 11))
            assert any(expected[1::2]), f
            for order in range(1, 12, 2):
                assert phi_series(f, order).coefficients == expected[: order + 1], (f, order)

    def test_variable_that_cannot_cancel(self):
        f = LaurentPolynomial(1, {(1,): 1, (2,): 1})
        assert phi_series(f, 0).coefficients[0] == 1
        assert phi_series(f, 3).coefficients[3] == 0

    def test_an_empty_power_ends_the_expansion(self):
        # the first pruned power of x + x^2 is empty, so no later order takes
        # a multiplication or a dot product
        f = LaurentPolynomial(1, {(1,): 1, (2,): 1})
        assert phi_series(f, 9).coefficients == (1,) + (0,) * 9
        start = time.perf_counter()
        assert phi_series(f, 10**6).coefficients[10**6] == 0
        assert time.perf_counter() - start < 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            phi_series(build_fx(CUBIC_SURFACE), -1)


def phi_within(monkeypatch, f, order, budget):
    """``phi_series(f, order)`` with ``MAX_TERM_PRODUCTS`` set to ``budget``."""
    monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", budget)
    return phi_series(f, order)


class TestWorkBudget:
    def test_budget_counts_term_products(self, monkeypatch):
        # x + 1/x to order 2: 1 * 2 products for f^1, then the dot products
        # f^1 . f^0 (1, the smaller side) and f^1 . f^1 (2)
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert phi_within(monkeypatch, f, 2, 5).coefficients == (1, 0, 2)
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 2, 4)

    def test_budget_is_charged_before_the_work(self, monkeypatch):
        calls = []

        class CountingInt(int):
            def __mul__(self, other):
                calls.append(1)
                return int.__mul__(self, other)

            __rmul__ = __mul__

        f = LaurentPolynomial(1, {(1,): CountingInt(1), (-1,): CountingInt(1)})
        assert phi_series(f, 2).coefficients == (1, 0, 2)
        assert len(calls) == 2  # the products of f^0 = 1 with the two terms
        calls.clear()
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 2, 1)
        assert calls == []

    def test_odd_last_step_is_charged_per_orbit(self, monkeypatch):
        # x + 1/x to order 3: 2 products for f^1, the dot products f^1 . f^0
        # (1) and f^1 . f^1 (2), then f^3 read from f^1: 2 terms times 2 orbits
        f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert phi_within(monkeypatch, f, 3, 9).coefficients == (1, 0, 2, 0)
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 3, 8)

    def test_quintic_fourfold_charge(self, monkeypatch):
        # 126 (P[1]) + 126 * 126 (P[2]) + 1 + 126 + 126 + 721 (dot products)
        # + 721 * 18 (the last step over 18 orbits); forming P[3] as well
        # would add 721 * 126
        f = build_fx(QUINTIC_FOURFOLD)
        expected = i_series(QUINTIC_FOURFOLD, 5).coefficients
        assert phi_within(monkeypatch, f, 5, 29_954).coefficients == expected
        with pytest.raises(BudgetExceeded):
            phi_within(monkeypatch, f, 5, 29_953)

    def test_terms_of_f_are_charged_before_building(self, monkeypatch):
        # f of the quintic fourfold has C(9, 4) = 126 terms
        monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", 126)
        assert build_fx(QUINTIC_FOURFOLD).term_count() == 126
        monkeypatch.setattr(givental, "MAX_TERM_PRODUCTS", 125)
        with pytest.raises(BudgetExceeded, match="more than 125 terms"):
            build_fx(QUINTIC_FOURFOLD)

    def test_terms_of_f_formula(self):
        for ci in fano_sweep(8, 3, 6):
            expected = prod(comb(2 * d - 1, d - 1) for d in ci.degrees) + ci.l
            assert build_fx(ci).term_count() == expected, ci

    def test_default_budget_stops_a_runaway_expansion(self):
        # f has 1,716 terms; power 3 alone would form about 57M products
        with pytest.raises(BudgetExceeded, match="term products"):
            verify_period(CompleteIntersection(6, (7,)), 7)


class TestTermOrbits:
    def test_quintic_fourfold(self):
        # the four x-variables are interchangeable
        weights = _term_orbits(build_fx(QUINTIC_FOURFOLD))
        assert len(weights) == 18
        assert sum(weights.values()) == 126

    def test_no_interchangeable_variables(self):
        f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (-1, -1, -1): 1})
        assert _term_orbits(f) == {e: 1 for e in f.terms}

    def test_blocks_of_a_mirror_polynomial(self):
        # (x1 + x2 + 1)^2 (x3 + 1)^2 / (x1 x2 x3 y) + y: only x1, x2 interchange
        f = build_fx(CompleteIntersection(4, (3, 2)))
        weights = _term_orbits(f)
        assert sum(weights.values()) == f.term_count()
        for e, weight in weights.items():
            assert weight == (1 if e[0] == e[1] else 2)

    @settings(max_examples=60)
    @given(symmetric_laurent_polynomials())
    def test_property_orbits_cover_the_terms(self, f):
        weights = _term_orbits(f)
        assert sum(weights.values()) == len(f.terms)
        assert all(e in f.terms for e in weights)

    def test_equals_the_permutation_search_on_a_sweep(self):
        for ci in fano_sweep(8, 3, 9):
            f = build_fx(ci)
            assert list(_term_orbits(f).items()) == list(plain_term_orbits(f).items()), ci

    @settings(max_examples=60)
    @given(symmetric_laurent_polynomials(max_arity=5))
    def test_property_equals_the_permutation_search(self, f):
        assert list(_term_orbits(f).items()) == list(plain_term_orbits(f).items())


class TestPhiSeries:
    def test_cubic_surface_against_factorial_oracle(self):
        series = phi_series(build_fx(CUBIC_SURFACE), 3)
        expected = tuple(factorial(3 * m) // factorial(m) ** 3 for m in range(4))
        assert series.coefficients == expected == (1, 6, 90, 1680)

    def test_cubic_threefold_against_factorial_oracle(self):
        series = phi_series(build_fx(CUBIC_THREEFOLD), 4)
        expected = [0] * 5
        for m in range(3):
            expected[2 * m] = factorial(2 * m) * factorial(3 * m) // factorial(m) ** 5
        assert series.coefficients == tuple(expected) == (1, 0, 12, 0, 540)


class TestISeries:
    def test_alpha_metadata(self):
        assert i_series(CUBIC_SURFACE, 1).alpha == factorial(3)
        assert i_series(CUBIC_THREEFOLD, 1).alpha == 0
        assert i_series(CompleteIntersection(4, (2, 4)), 1).alpha == 2 * 24

    def test_coefficients_are_exact_integers(self):
        # index is 8, so the second nonzero coefficient sits at t^16
        series = i_series(CompleteIntersection(8, (2,)), 16)
        assert series.coefficients[16] == factorial(16) * factorial(4) // 2 ** 10


class TestVerifyPeriod:
    def test_sweep_with_divisibility(self):
        for ci in fano_sweep(5, 2, 4):
            order = 3 * ci.index
            report = verify_period(ci, order)
            assert report.match, ci
            for n in range(order + 1):
                if n % ci.index:
                    assert report.phi.coefficients[n] == 0, (ci, n)

    @settings(max_examples=40)
    @given(st.sampled_from(list(fano_sweep(6, 2, 7))), st.data())
    def test_property_random_fano(self, ci, data):
        order = data.draw(st.integers(0, ci.index + 1), label="order")
        report = verify_period(ci, order)
        assert report.match
        assert all(c == 0 for n, c in enumerate(report.phi.coefficients) if n % ci.index)

    def test_quadric_fourfold_to_order_40(self):
        # index 4: ten nonzero coefficients, the last at t^40
        ci = CompleteIntersection(4, (2,))
        report = verify_period(ci, 40)
        assert report.match
        assert report.phi.coefficients == i_series(ci, 40).coefficients

    def test_negative_order_refused_before_f_is_built(self, monkeypatch):
        # f would have C(23, 11) + 1 = 1,352,079 terms, seconds and hundreds of MB
        def build_fx(ci):
            raise AssertionError("build_fx called at a negative order")

        monkeypatch.setattr(givental, "build_fx", build_fx)
        with pytest.raises(ValueError, match=r"^order must be nonnegative, got -1$"):
            verify_period(CompleteIntersection(12, (12,)), -1)

    @pytest.mark.parametrize(
        "series, argument",
        [(phi_series, build_fx(CUBIC_SURFACE)), (i_series, CUBIC_SURFACE)],
        ids=["phi_series", "i_series"],
    )
    def test_every_series_refuses_a_negative_order_alike(self, series, argument):
        with pytest.raises(ValueError, match=r"^order must be nonnegative, got -1$"):
            series(argument, -1)

    def test_first_mismatch_helper(self):
        assert _first_mismatch((1, 2, 3), (1, 2, 3)) is None
        assert _first_mismatch((1, 2, 3), (1, 5, 3)) == 1
        assert _first_mismatch((0,), (1,)) == 0
