"""The Hodge number h^{1,N-1} of a Fano complete intersection.

It equals the dimension of one bigraded piece of the Jacobian-type ring of the
defining equations, and that dimension depends only on the degrees.  The module
computes it by two routes that must agree: a closed inclusion-exclusion
formula, and a count of the monomial basis by the totals of its capped head
exponents.  The nested binomial sum of ``alt_dim_formula`` is the second route's
sum, term for term.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactmath import BudgetExceeded, binomial, capped_sum_counts
from .varieties import CompleteIntersection


# Summands the mask loops of ``dim_R_prime_1``, the one path it bounds, may add:
# 2^k for each distinct degree d with d - index >= 2, since equations of equal
# degree share one loop and the others need none.  So twenty cubics at index 1
# answer (about 3.3 s in dimension 40 on a 2-vCPU x86_64 VM), twenty-one are
# refused before any arithmetic, and the degrees with d - index <= 1, the
# quadrics among them, cost nothing.
MAX_INCLUSION_EXCLUSION_SUMMANDS = 1 << 20


class HodgeReport(NamedTuple):
    """Hodge data of a complete intersection.

    ``h`` is h^{1, dim-1}; ``h_pr`` the primitive part, which differs from ``h``
    only in the middle slot of a surface, where the hyperplane class adds one.
    The two ring dimensions it is derived from are kept for inspection.
    """

    h_pr: int
    h: int
    dim_R_prime: int
    dim_R: int
    index: int


def delta_j(ci: CompleteIntersection, j: int) -> int:
    """Number of monomials of degree d_j - index in the dim + k + 1 ambient
    variables whose first k exponents stay below d_1, ..., d_k respectively.

    Evaluated by inclusion-exclusion over which of the k exponent caps fail:

        sum over subsets I of {1..k} of (-1)^(k - |I|) * C(sum_I d + d_j - 1, dim + k).

    With D = sum d = dim + k + 1 - index and r = d_j - index, a binomial is
    nonzero only when sum_I d + d_j - 1 >= dim + k, that is when the degrees
    outside I sum to at most r.  Three cases follow:

    - r < 0: no subset qualifies, and the answer is 0.
    - r in {0, 1}: every degree is at least 2, so only the full subset
      qualifies, and the answer is C(dim + k + r, dim + k): 1 or dim + k + 1.
    - r >= 2: the mask loop visits all 2^k subsets, forms the binomial only
      where it can be nonzero, and takes the sign from the parity of k - |I|.
    """
    k = ci.k
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}, got {j}")
    dj = ci.degrees[j - 1]
    r = dj - ci.index
    if r < 0:
        return 0
    lower = ci.dim + k
    if r < 2:
        return lower + 1 if r else 1
    total = 0
    for mask in range(1 << k):
        n = sum(d for t, d in enumerate(ci.degrees) if mask >> t & 1) + dj - 1
        if n >= lower:
            term = binomial(n, lower)
            total += -term if (k - mask.bit_count()) & 1 else term
    return total


def dim_R_prime_1(ci: CompleteIntersection) -> int:
    """Dimension of the (1, -index) piece of the partial quotient ring, namely
    sum_j delta_j.

    ``delta_j`` depends on j only through d_j, so it is evaluated once per
    distinct degree, at the first equation of that degree, and multiplied by
    how many equations share it.

    Raises ``BudgetExceeded`` when the mask loops would add more than
    ``MAX_INCLUSION_EXCLUSION_SUMMANDS`` summands: 2^k for each distinct degree
    d with d - index >= 2, since ``delta_j`` answers the other equations at once.
    """
    degrees = ci.degrees
    distinct = dict.fromkeys(degrees)
    bar = ci.index + 2
    summands = sum(d >= bar for d in distinct) << ci.k
    if summands > MAX_INCLUSION_EXCLUSION_SUMMANDS:
        raise BudgetExceeded(
            f"the inclusion-exclusion for {ci.k} equations would add {summands:,} summands,"
            f" more than {MAX_INCLUSION_EXCLUSION_SUMMANDS:,}"
        )
    return sum(degrees.count(d) * delta_j(ci, degrees.index(d) + 1) for d in distinct)


def count_monomials_oracle(ci: CompleteIntersection) -> int:
    """The same dimension as ``dim_R_prime_1``, by counting the monomial basis.

    For each j the basis monomials carry total degree d_j - index across the
    ambient variables, with the first k exponents (the head) capped at d_t - 1.
    The heads are counted by their total s in one sliding-window pass up to the
    largest target degree (``capped_sum_counts``), and the dim + 1 free
    exponents of a head of total s by stars and bars, so nothing is listed.
    """
    targets = [d - ci.index for d in ci.degrees]
    heads = capped_sum_counts([d - 1 for d in ci.degrees], max(targets))
    total = 0
    for target in targets:
        for s in range(target + 1):
            total += heads[s] * binomial(target - s + ci.dim, ci.dim)
    return total


def _index_one_correction(ci: CompleteIntersection) -> int:
    """At index 1 the ambient partial derivatives contribute dim + k + 1
    independent relations in the (1, -index) bidegree; at index >= 2 none."""
    return ci.dim + ci.k + 1 if ci.index == 1 else 0


def dim_R_1(ci: CompleteIntersection) -> int:
    """Dimension of the (1, -index) piece of the full quotient ring:
    ``dim_R_prime_1`` minus the relations that the ambient partial derivatives
    contribute at index 1."""
    return dim_R_prime_1(ci) - _index_one_correction(ci)


def alt_dim_formula(ci: CompleteIntersection) -> int:
    """``dim_R_1`` through the nested binomial sum

        sum_j  sum over 0 <= i_t <= d_t - 1 of
            C(sum_t (d_t - i_t) + d_j - k - 1, dim),

    with the same index-1 correction.  The inner ranges stop at d_t - 1: a
    monomial whose t-th exponent reaches d_t is zero in the quotient, and for
    k >= 2 the excluded slices contribute nonzero binomials whenever some
    d_j >= d_t + index, so extending the range would overcount.

    With D = sum_t d_t and index = dim + k + 1 - D, the binomial is
    C(D - |i| + d_j - k - 1, dim) = C(d_j - index - |i| + dim, dim),
    and it vanishes once |i| > d_j - index.  That is the summand of
    ``count_monomials_oracle`` for a head of total |i|, with the same caps and
    the same bound, so the sum is evaluated as the oracle minus the index-1
    correction.  Comparing it with ``dim_R_1`` repeats the oracle's check; it
    is not a separate route.
    """
    return count_monomials_oracle(ci) - _index_one_correction(ci)


def hodge_h1(ci: CompleteIntersection) -> HodgeReport:
    """Hodge number h^{1, dim-1} together with the ring dimensions behind it.

    The primitive number equals ``dim_R_1``; the full number adds the hyperplane
    class exactly when dim = 2 (the middle (1,1) slot of a surface).
    """
    prime = dim_R_prime_1(ci)
    full = prime - _index_one_correction(ci)
    h_pr = full
    h = h_pr + 1 if ci.dim == 2 else h_pr
    return HodgeReport(h_pr=h_pr, h=h, dim_R_prime=prime, dim_R=full, index=ci.index)


def hypersurface_corollary(dim: int, d: int) -> int:
    """Primitive h^{1, dim-1} of a degree-d hypersurface: C(2d - 1, dim + 1) for
    d <= dim, and C(2*dim + 1, dim + 1) - dim - 2 in the index-1 case d = dim + 1.
    Out of that range ``CompleteIntersection(dim, (d,))`` raises its own error."""
    if CompleteIntersection(dim, (d,)).index > 1:
        return binomial(2 * d - 1, dim + 1)
    return binomial(2 * dim + 1, dim + 1) - dim - 2
