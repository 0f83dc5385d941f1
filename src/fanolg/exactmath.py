"""Exact integer combinatorics underlying every other module.

All arithmetic is on arbitrary-precision Python integers; nothing here rounds,
overflows, or touches floating point.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Sequence


class BudgetExceeded(RuntimeError):
    """Raised, before the work is done, when a computation would pass one of
    its work budgets: trace nodes or cells, mirror-polynomial terms,
    constant-term products, recursion or inclusion-exclusion summands, strata,
    binomials too large to form.  The CLI exits 3 on it."""


def capped_sum_counts(caps: Sequence[int], bound: int) -> list[int]:
    """ways[s] for s = 0..bound: how many integer vectors v with
    0 <= v[t] <= caps[t] have sum s, without listing them.  The prefixes are
    extended one cap at a time by a sliding window over prefix sums, in
    O(len(caps) * bound) additions.  A negative bound gives the empty list."""
    if bound < 0:
        return []
    ways = [1] + [0] * bound
    for cap in caps:
        prefix = [0, *accumulate(ways)]
        ways = [prefix[s + 1] - prefix[max(0, s - cap)] for s in range(bound + 1)]
    return ways


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), defined as 0 whenever k < 0 or k > n.

    The vanishing convention is load-bearing: the counting formulas downstream
    sum binomials whose lower index walks out of range and rely on those terms
    dropping out.  Negative n is rejected rather than analytically continued.
    A value ``math.comb`` cannot form (min(k, n - k) past 2^63 - 1) raises
    ``BudgetExceeded``; its message gives bit lengths, since n and k may be
    too long for ``str``.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    try:
        return comb(n, k)
    except OverflowError:
        raise BudgetExceeded(
            f"the binomial C(n, k) with n of {n.bit_length():,} bits and k of"
            f" {k.bit_length():,} bits is too large to compute"
        ) from None


def binomial_row(n: int, cap: int) -> list[int]:
    """C(n, 0..cap) for 0 <= cap <= n, each entry from the one before."""
    row = [1] * (cap + 1)
    c = 1
    for k in range(cap):
        c = c * (n - k) // (k + 1)
        row[k + 1] = c
    return row


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
