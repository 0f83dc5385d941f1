"""The mirror Laurent polynomial of a Fano complete intersection and its period check.

A complete intersection of degrees (d_1, ..., d_k) in P^(N+k) has the mirror
candidate

    f = prod_i (x_{i,1} + ... + x_{i,d_i-1} + 1)^{d_i} / (prod x_{i,j} * prod y_j)
        + y_1 + ... + y_l,            l = index - 1,

a Laurent polynomial in exactly N variables.  Its constant-term series must
reproduce, coefficient by coefficient, the regularized hypergeometric series

    sum_{d >= 0} (d*index)! * (d*d_1)! * ... * (d*d_k)! / (d!)^(N+k+1) * t^(d*index).

The expansion side is computed generically: sparse multiplication up to half
the order, then dot products of the two halves, the last odd coefficient read
from the square of the half power over one term of f per orbit of its
interchangeable variables.  The closed-form side comes from factorials.
Agreement is reported, never repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial
from typing import Mapping

from .exactmath import BudgetExceeded, capped_vectors, multinomial
from .varieties import CompleteIntersection


# Term products one constant-term expansion may form (see ``_constant_terms``).
MAX_TERM_PRODUCTS = 20_000_000


class LaurentPolynomial:
    """Sparse Laurent polynomial with exact integer coefficients.

    ``terms`` maps exponent tuples of length ``arity`` (entries may be negative)
    to nonzero integers; zero coefficients are never stored.
    """

    __slots__ = ("arity", "terms")

    def __init__(
        self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None
    ) -> None:
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        self.arity = arity
        clean: dict[tuple[int, ...], int] = {}
        for exponents, coeff in (terms or {}).items():
            exponents = tuple(exponents)
            if len(exponents) != arity:
                raise ValueError(
                    f"exponent vector {exponents} has length {len(exponents)}, expected {arity}"
                )
            if coeff:
                clean[exponents] = coeff
        self.terms = clean

    def coefficient(self, exponents: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __repr__(self) -> str:
        return f"LaurentPolynomial(arity={self.arity}, terms={len(self.terms)})"


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with exact integer coefficients: the truncation
    order is ``len(coefficients) - 1``.

    ``alpha`` carries the regularization constant attached to the closed-form
    series: the product of the degree factorials at index 1, zero otherwise.
    """

    coefficients: tuple[int, ...]
    alpha: int = 0


@dataclass(frozen=True)
class PeriodReport:
    match: bool
    first_mismatch: int | None
    phi: PowerSeries
    i0: PowerSeries


def build_fx(ci: CompleteIntersection) -> LaurentPolynomial:
    """The mirror Laurent polynomial of ``ci`` in exactly ``ci.dim`` variables,
    ordered block by block: x_{1,1}..x_{1,d_1-1}, ..., x_{k,1}..x_{k,d_k-1},
    then y_1..y_l.

    The numerator product is multiplied out with multinomial coefficients; the
    division by the x- and y-variables is realized as an exact exponent shift
    of -1 in every slot, never as field arithmetic.  The trailing y summands
    each contribute a single term, which cannot collide with the shifted block
    (their y-exponents are +1 against -1).

    Block i lists the C(2 d_i - 1, d_i - 1) exponent vectors of d_i - 1 entries
    with sum at most d_i, so f has prod_i C(2 d_i - 1, d_i - 1) + l terms.
    ``BudgetExceeded`` is raised, before any term is listed, when that count
    passes ``MAX_TERM_PRODUCTS``; the count is formed one factor at a time and
    stops there, so a huge degree costs only a few steps.
    """
    terms_of_f = 1
    for d in ci.degrees:
        factor = 1
        for i in range(1, d):  # factor = C(d + i, i), up to C(2d - 1, d - 1)
            factor = factor * (d + i) // i
            if terms_of_f * factor + ci.l > MAX_TERM_PRODUCTS:
                raise BudgetExceeded(
                    f"the mirror polynomial of {ci} would have more than"
                    f" {MAX_TERM_PRODUCTS:,} terms"
                )
        terms_of_f *= factor

    x_slots = sum(d - 1 for d in ci.degrees)
    arity = x_slots + ci.l
    # sum(d_i - 1) + l = dim is an identity, not an assumption
    assert arity == ci.dim

    blocks: list[list[tuple[tuple[int, ...], int]]] = []
    for d in ci.degrees:
        block = [
            (exponents, multinomial(d, exponents))
            for exponents, _ in capped_vectors([d] * (d - 1), d)
        ]
        blocks.append(block)

    terms: dict[tuple[int, ...], int] = {}
    for combo in product(*blocks):
        exponents = tuple(e for part, _ in combo for e in part) + (0,) * ci.l
        coeff = 1
        for _, c in combo:
            coeff *= c
        shifted = tuple(e - 1 for e in exponents)
        terms[shifted] = terms.get(shifted, 0) + coeff

    for j in range(ci.l):
        unit = tuple(1 if t == x_slots + j else 0 for t in range(arity))
        terms[unit] = terms.get(unit, 0) + 1

    return LaurentPolynomial(arity, terms)


def _term_orbits(f: LaurentPolynomial) -> dict[tuple[int, ...], int]:
    """One term of f per orbit under the group G of permutations within the
    classes of interchangeable variables, mapped to the size of its orbit.

    Variables v and w are interchangeable when swapping them maps f to itself.
    The relation is an equivalence: if the swaps (v w) and (w u) fix f, so does
    their conjugate (v u).  G is generated by such swaps, so it fixes f, every
    orbit lies in f's support and carries one coefficient.  Terms are grouped
    by their exponents sorted within each class; the first one seen stands for
    its orbit.  Only f's terms are read, nothing of how f was built.
    """
    terms = f.terms
    classes: list[list[int]] = []
    for v in range(f.arity):
        for cls in classes:
            swap = list(range(f.arity))
            swap[v], swap[cls[0]] = cls[0], v
            if all(terms.get(tuple(e[u] for u in swap)) == c for e, c in terms.items()):
                cls.append(v)
                break
        else:
            classes.append([v])
    representative: dict[tuple[int, ...], tuple[int, ...]] = {}
    weights: dict[tuple[int, ...], int] = {}
    for e in terms:
        rep = representative.setdefault(
            tuple(x for cls in classes for x in sorted(e[v] for v in cls)), e
        )
        weights[rep] = weights.get(rep, 0) + 1
    return weights


def _constant_terms(f: LaurentPolynomial, order: int) -> list[int]:
    """Constant terms of f^0, f^1, ..., f^order, from the powers of f up to
    floor(order/2) alone.

    Two halves: splitting n = a + b,

        CT(f^n) = sum_e [f^a]_e * [f^b]_{-e},

    so with P[h] the (pruned) h-th power, CT(f^(2h-1)) = P[h] . P[h-1] and
    CT(f^(2h)) = P[h] . P[h].  The powers P[1], ..., P[floor(order/2)] are
    formed by iterated sparse multiplication, and only two of them are held at
    a time.  At an odd order n = 2h - 1 the last coefficient is read from
    P[h-1] alone, with f's terms t as the third factor:

        CT(f^n) = sum_t f_t * sum_e P[h-1]_e * P[h-1]_{-e-t},

    so P[h] is never formed.  The inner sum is the coefficient of x^(-t) in
    P[h-1]^2.  Permuting variables within a class of interchangeable variables
    (see ``_term_orbits``) fixes f, and it fixes the pruning window below,
    because lo and hi agree within a class; so it fixes P[h-1] and P[h-1]^2,
    and the inner sum is the same for every term of an orbit.  The outer sum
    runs over one term per orbit, weighted by the orbit's size.

    Box: with lo[v] and hi[v] the extremes of f's support in variable v, every
    exponent of every power f^m with m <= order lies in the box
    [min(0, order*lo[v]), max(0, order*hi[v])], variable by variable; W[v] is
    its width, at least order*max(|lo[v]|, |hi[v]|) + 1.

    Packing: the box widths serve as a mixed radix.  A monomial e of a power is
    keyed by the integer sum_v (e[v] - min(0, order*lo[v])) * stride[v], with
    stride[v] the product of the widths of the variables before v; a term of f
    is keyed without the bias, as the signed offset sum_v e[v] * stride[v].  The
    sum of the two keys is then exactly the key of the product monomial, and
    the packing is injective on the box, so a multiplication adds integers.
    With ``zero`` the key of the zero vector, the key of -e is 2*zero - key(e)
    and that of -(e+t) is 2*zero - key(e) - key(t).

    Pruning: after forming P[m], monomials that can no longer reach exponent
    zero with the remaining r = order - m factors are discarded, keeping e only
    if -r*hi[v] <= e[v] <= -r*lo[v] for every v.  The test on v reads digit v
    of the key, and is skipped when the window holds every exponent that m
    factors can reach.  The window uses the extremes of f's support, so the
    pruning never alters a retained coefficient.  The lookups stay exact.  A
    pair e, -e from the supports of f^a and f^b (a + b <= order) lies in the
    windows of both powers, and so does a pair e, -(e+t) with t a term of f at
    the odd last step, so no needed monomial is pruned.  A looked-up vector y
    (-e or -(e+t)) may lie outside the box: for f = x^5 + 1/x at order 3,
    -(e+t) reaches -4 < -3.  Its key still matches no other monomial.  A
    retained z is, like e and t, an exponent of a product of terms of f, at
    most ``order`` of them in y - z all told, so
    |y[v] - z[v]| <= order*max(|lo[v]|, |hi[v]|) < W[v] in every variable; and
    two vectors that close share a key only when equal, since the last
    variable where they differ outweighs all those before it.

    Budget: before each multiplication len(P[m-1]) * len(f.terms) term
    products, before each dot product the length of the smaller of its two
    powers, and before the odd last step len(P[h-1]) times the number of orbits
    are added to a running total; ``BudgetExceeded`` is raised, before the
    work is done, if the total would pass ``MAX_TERM_PRODUCTS``.
    """
    out = [1]
    if order == 0:
        return out
    if not f.terms:
        return out + [0] * order
    arity = f.arity
    lo = [min(e[v] for e in f.terms) for v in range(arity)]
    hi = [max(e[v] for e in f.terms) for v in range(arity)]
    bias = [min(0, order * a) for a in lo]
    strides = [1]
    for v in range(arity):
        strides.append(strides[v] * (max(0, order * hi[v]) - bias[v] + 1))
    zero = -sum(b * s for b, s in zip(bias, strides))
    twice_zero = 2 * zero

    def offset(e: tuple[int, ...]) -> int:
        return sum(x * s for x, s in zip(e, strides))

    items = [(offset(e), c) for e, c in f.terms.items()]

    products = 0

    def charge(work: int, power: int) -> None:
        nonlocal products
        products += work
        if products > MAX_TERM_PRODUCTS:
            raise BudgetExceeded(
                f"constant-term expansion to order {order} would form more than"
                f" {MAX_TERM_PRODUCTS:,} term products by power {power}"
            )

    def dot(p: dict[int, int], q: dict[int, int], n: int) -> int:
        if len(q) < len(p):
            p, q = q, p
        charge(len(p), n)
        get = q.get
        return sum(c * get(twice_zero - k, 0) for k, c in p.items())

    prev = {zero: 1}
    for m in range(1, order // 2 + 1):
        charge(len(prev) * len(items), m)
        nxt: dict[int, int] = {}
        get = nxt.get
        for k1, c1 in prev.items():
            for k2, c2 in items:
                k = k1 + k2
                nxt[k] = get(k, 0) + c1 * c2
        remaining = order - m
        keys = [k for k, c in nxt.items() if c]
        for v in range(arity):
            low, high = -remaining * hi[v], -remaining * lo[v]
            if low <= m * lo[v] and m * hi[v] <= high:
                continue
            # digit v lies in [low - bias, high - bias] iff k % w lies in [a, b)
            s, w = strides[v], strides[v + 1]
            a, b = (low - bias[v]) * s, (high - bias[v] + 1) * s
            keys = [k for k in keys if a <= k % w < b]
        cur = {k: nxt[k] for k in keys}
        out.append(dot(cur, prev, 2 * m - 1))
        out.append(dot(cur, cur, 2 * m))
        prev = cur
    if order % 2:
        orbits = _term_orbits(f)
        charge(len(prev) * len(orbits), order)
        get = prev.get
        total = 0
        for e, weight in orbits.items():
            base = twice_zero - offset(e)
            total += weight * f.terms[e] * sum(c * get(base - k, 0) for k, c in prev.items())
        out.append(total)
    return out


def constant_term(f: LaurentPolynomial, n: int) -> int:
    """Coefficient of the zero exponent vector in f^n (f^0 = 1 by convention)."""
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    return _constant_terms(f, n)[n]


def phi_series(f: LaurentPolynomial, order: int) -> PowerSeries:
    """Constant-term series of f up to the given truncation order.

    Raises ``BudgetExceeded`` when the expansion would form more than
    ``MAX_TERM_PRODUCTS`` term products.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return PowerSeries(tuple(_constant_terms(f, order)))


def i_series(ci: CompleteIntersection, order: int) -> PowerSeries:
    """Closed-form coefficient series of ``ci``: the coefficient at t^(d*index) is

        (d*index)! * (d*d_1)! * ... * (d*d_k)! / (d!)^(dim + k + 1)

    (an exact integer, a product of multinomial coefficients) and every other
    coefficient vanishes.  ``alpha`` is the product of the degree factorials at
    index 1, zero otherwise.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    idx = ci.index
    coefficients = [0] * (order + 1)
    exponents_per_step = ci.dim + ci.k + 1
    d = 0
    while d * idx <= order:
        numerator = factorial(d * idx)
        for degree in ci.degrees:
            numerator *= factorial(d * degree)
        coefficients[d * idx] = numerator // factorial(d) ** exponents_per_step
        d += 1
    alpha = 1 if idx == 1 else 0
    if idx == 1:
        for degree in ci.degrees:
            alpha *= factorial(degree)
    return PowerSeries(tuple(coefficients), alpha=alpha)


def _first_mismatch(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None


def verify_period(ci: CompleteIntersection, order: int) -> PeriodReport:
    """Compare the constant-term expansion of the mirror polynomial with the
    closed-form series, coefficient by coefficient up to ``order``.

    Exact equality is required; on failure the first differing index is
    reported.  The expansion is bounded by ``MAX_TERM_PRODUCTS`` term products
    (see ``phi_series``).
    """
    phi = phi_series(build_fx(ci), order)
    closed = i_series(ci, order)
    mismatch = _first_mismatch(phi.coefficients, closed.coefficients)
    return PeriodReport(
        match=mismatch is None, first_mismatch=mismatch, phi=phi, i0=closed
    )
