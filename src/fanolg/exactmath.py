"""Exact integer combinatorics underlying every other module.

All arithmetic is on arbitrary-precision Python integers; nothing here rounds,
overflows, or touches floating point.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Iterator, Sequence


class BudgetExceeded(RuntimeError):
    """Raised, before the work is done, when a computation would pass one of
    its work budgets: trace nodes or cells, mirror-polynomial terms,
    constant-term products, recursion or inclusion-exclusion summands, strata.
    The CLI exits 3 on it."""


def capped_vectors(
    caps: Sequence[int], bound: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every pair (ivec, sum(ivec)) with 0 <= ivec[t] <= caps[t] and
    sum(ivec) <= bound, in the order of ``itertools.product``.

    Vectors grow one entry at a time from their prefixes, and a prefix is
    extended only by entries that keep its sum within the bound.  Every kept
    prefix reaches at least one vector (pad it with zeros), so no vector is
    built only to be filtered out.  A negative bound yields nothing; empty caps
    yield the empty vector alone.
    """
    level: list[tuple[tuple[int, ...], int]] = [((), 0)] if bound >= 0 else []
    for cap in caps:
        level = [
            (ivec + (i,), s + i)
            for ivec, s in level
            for i in range(min(cap, bound - s) + 1)
        ]
    yield from level


def count_capped_vectors(caps: Sequence[int], bound: int) -> int:
    """How many vectors ``capped_vectors(caps, bound)`` yields, without listing
    them: ways[s] counts the prefixes of sum s, extended one cap at a time by a
    sliding window over prefix sums, in O(len(caps) * bound) additions."""
    if bound < 0:
        return 0
    ways = [1] + [0] * bound
    for cap in caps:
        prefix = [0, *accumulate(ways)]
        ways = [prefix[s + 1] - prefix[max(0, s - cap)] for s in range(bound + 1)]
    return sum(ways)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), defined as 0 whenever k < 0 or k > n.

    The vanishing convention is load-bearing: the counting formulas downstream
    sum binomials whose lower index walks out of range and rely on those terms
    dropping out.  Negative n is rejected rather than analytically continued.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def binomial_row(n: int, cap: int) -> list[int]:
    """C(n, 0..cap) for 0 <= cap <= n, each entry from the one before."""
    row = [1] * (cap + 1)
    c = 1
    for k in range(cap):
        c = c * (n - k) // (k + 1)
        row[k + 1] = c
    return row


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (parts[0]! * ... * parts[-1]! * (n - sum(parts))!).

    The leftover n - sum(parts) acts as an implicit final part, so the parts may
    sum to anything up to n.
    """
    if n < 0:
        raise ValueError(f"multinomial requires n >= 0, got n={n}")
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be nonnegative, got {p}")
        total += p
    if total > n:
        raise ValueError(f"multinomial parts sum to {total} > n = {n}")
    result = 1
    remaining = n
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


def convolution_identity_sides(
    dbar: Sequence[int], e: int, l: int
) -> tuple[int, int]:
    """Evaluate both sides of the binomial convolution identity

        sum over 0 <= i_t <= d_t of   prod_t C(d_t, i_t) * C(e, i_1 + ... + i_k + l)
            =  C(d_1 + ... + d_k + e,  d_1 + ... + d_k + l)

    returning the pair (left, right) without assuming they agree.

    The left side is a direct numeric summation; for speed the terms are grouped
    by the total m = i_1 + ... + i_k, whose weight is accumulated by convolving
    the rows C(d_t, 0..d_t) term by term.  No closed form enters the left side,
    so comparing the pair genuinely exercises the identity.
    """
    dbar = tuple(dbar)
    if any(d < 1 for d in dbar):
        raise ValueError(f"dbar entries must be positive, got {dbar}")
    if e < 0 or l < 0:
        raise ValueError(f"e and l must be nonnegative, got e={e}, l={l}")

    counts = [1]
    for d in dbar:
        row = binomial_row(d, d)
        counts = [
            sum(
                counts[m - i] * row[i]
                for i in range(max(0, m - len(counts) + 1), min(d, m) + 1)
            )
            for m in range(len(counts) + d)
        ]
    lhs = sum(c * binomial(e, m + l) for m, c in enumerate(counts))

    total = sum(dbar)
    rhs = binomial(total + e, total + l)
    return lhs, rhs
