"""Component count of the central fiber of the compactified mirror fibration.

The compactified family acquires exceptional divisors only over a controlled
family of blow-up centers (the canonical strata), each locally modeled by the
hypersurfaces handled in ``resolution``.  Summing the per-stratum divisor
counts gives k_LG, the number of central-fiber components minus one, which the
main comparison checks against the Hodge number h^{1,N-1}.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter, mul
from typing import Literal, NamedTuple

from .exactmath import BudgetExceeded, binomial, binomial_row, capped_sum_counts
from .jacobian_ring import hodge_h1
from .resolution import g_closed
from .varieties import CompleteIntersection

# What one stratum enumeration may cost: each listed stratum counts 1 and each
# j the (bound + 1) * d_j bits of its divisor row G(d_j, l..d_j - 1).  Eight
# equations of degree 20 in dimension 153 (12,498,200 strata) and index-1
# hypersurfaces of degree 1,000 or more are refused; nine equations of degree
# 12 in dimension 100 (831,402 strata) stay inside: ``fanolg klg`` answers them
# in about 2.5 s at 212 MB peak RSS (CPython 3.11, shared 2-vCPU x86-64 VM).
MAX_STRATA_COST = 1_000_000


class StratumContribution(NamedTuple):
    """A canonical stratum's label and what it contributes.

    The label is the distinguished equation index j (1-based) and the counts
    ivec = (i_1, ..., i_k) of vanishing coordinates chosen in each block.
    Admissible labels satisfy i_t <= d_t - 1 for t != j and i_j <= d_j - 2;
    when the index of the variety is 1 the all-zero count vector is excluded.
    ``multiplicity`` counts the strata of the label and ``divisors`` the
    exceptional divisors over each of them.
    """

    j: int
    ivec: tuple[int, ...]
    multiplicity: int
    divisors: int


# StratumContribution((j, ivec, multiplicity, divisors)) without the generated
# __new__, a Python-level function; the listing builds every record this way
_stratum = partial(tuple.__new__, StratumContribution)


class KlgReport(NamedTuple):
    """Central-fiber counting result.

    The central fiber is the only fiber of the compactified family that can be
    reducible, so its component count is always ``k_lg + 1``.  ``branch`` records
    which summation rule applied (the index-1 case counts the strict transforms
    of an already reducible fiber separately).  ``contributions`` lists the
    strata that carry divisors, as ``enumerate_strata`` returns them, each a
    flat ``(j, ivec, multiplicity, divisors)`` record.
    """

    k_lg: int
    central_fiber_components: int
    branch: Literal["l_zero", "l_positive"]
    contributions: tuple[StratumContribution, ...]


class TheoremReport(NamedTuple):
    holds: bool
    h: int
    h_pr: int
    k_lg: int


def enumerate_strata(ci: CompleteIntersection) -> list[StratumContribution]:
    """The canonical strata of the compactified model that carry exceptional
    divisors, with their contributions.

    A label (j, i_1..i_k) stands for the strata obtained by choosing which
    coordinates vanish, so it carries multiplicity prod_t C(d_t, i_t); each such
    stratum contributes G(d_j, i_1 + ... + i_k + l) exceptional divisors, where
    l = index - 1 counts the extra coordinates that always vanish on a center.
    G(d, s) = C(d - 1, s) vanishes once s >= d, so only labels with
    i_1 + ... + i_k <= d_j - 1 - l are enumerated, and every listed stratum
    carries at least one divisor.  At index 1 (l = 0) the zero label is left
    out, and its G(d_j, 0) is not formed.  Labels come in ``itertools.product``
    order for each j in turn, each as a ``StratumContribution``.  They grow one
    entry at a time from their prefixes, each prefix carrying its sum and its
    multiplicity, so every entry's binomial is multiplied in once per prefix
    rather than once per label, and the last entry builds each record at once.

    Raises ``BudgetExceeded`` before listing anything when the strata
    plus the bits of the divisor rows would cost more than
    ``MAX_STRATA_COST``.  Once the bits fit, the strata are bounded by the
    uncapped count sum_j C(bound + k, k) of the labels with |i| <= bound, which
    is never below the capped one.  Only when that bound could pass the budget
    are the strata counted exactly, by their sums (``capped_sum_counts``)
    without listing them.
    """
    l = ci.l
    plans = []
    for j, dj in enumerate(ci.degrees, 1):
        bound = dj - 1 - l
        if bound >= 0:
            caps = [d - 2 if t == j else d - 1 for t, d in enumerate(ci.degrees, 1)]
            plans.append((j, dj, caps, bound))
    cost = sum((bound + 1) * dj for _, dj, _, bound in plans)
    if cost <= MAX_STRATA_COST and cost + sum(
        binomial(bound + ci.k, ci.k) for *_, bound in plans
    ) > MAX_STRATA_COST:
        cost += sum(
            sum(capped_sum_counts(caps, bound)) - (l == 0) for *_, caps, bound in plans
        )
    if cost > MAX_STRATA_COST:
        raise BudgetExceeded(
            f"the strata of {ci.k} equation(s) with degrees of up to"
            f" {max(ci.degrees).bit_length():,} bits would cost more than"
            f" {MAX_STRATA_COST:,} (one per stratum plus the bits of the divisor counts)"
        )
    out: list[StratumContribution] = []
    if not plans:
        return out
    top = max(bound for *_, bound in plans)  # no entry of a listed label passes it
    rows = [binomial_row(d, min(d - 1, top)) for d in ci.degrees]
    tails = [(i,) for i in range(top + 1)]
    last_row = rows[-1]
    for j, dj, caps, bound in plans:
        # G(d_j, l + the label's sum); G(d_j, 0) would serve only the zero
        # label at index 1, which is not listed
        g_row = [g_closed(dj, t) if t else 0 for t in range(l, bound + l + 1)]
        level = [((), 0, 1)]  # (ivec prefix, its sum, its multiplicity)
        for cap, row in zip(caps[:-1], rows):
            level = [
                (ivec + tails[i], s + i, m * row[i])
                for ivec, s, m in level
                for i in range(min(cap, bound - s) + 1)
            ]
        # the last entry turns each prefix into the records of its labels; at
        # index 1 the zero label, whose prefix alone sums to 0, is not listed
        out += [
            _stratum((j, ivec + tails[i], m * last_row[i], g_row[s + i]))
            for ivec, s, m in level
            for i in range(not (s or l), min(caps[-1], bound - s) + 1)
        ]
    return out


def k_lg(ci: CompleteIntersection) -> KlgReport:
    """Number of central-fiber components of the compactified mirror, minus one.

    For index >= 2 the uncompactified central fiber is irreducible and k_lg is
    exactly the stratum sum; at index 1 the central fiber already splits into k
    components before resolving, adding k - 1.
    """
    contributions = enumerate_strata(ci)
    total = sum(map(mul, map(itemgetter(2), contributions), map(itemgetter(3), contributions)))
    if ci.l >= 1:
        value = total
        branch: Literal["l_zero", "l_positive"] = "l_positive"
    else:
        value = total + ci.k - 1
        branch = "l_zero"
    return KlgReport(
        k_lg=value,
        central_fiber_components=value + 1,
        branch=branch,
        contributions=tuple(contributions),
    )


def k_lg_closed(ci: CompleteIntersection) -> int:
    """Closed form of ``k_lg``: the stratum sum, summed by Vandermonde.

    For each j, the strata add prod_t C(d_t, i_t) * C(d_j - 1, |i| + l) over
    the box i_t <= d_t - 1 (t != j), i_j <= d_j - 2.  Over the full box
    0 <= i_t <= d_t that sum is C(D + d_j - 1, D + l), with D = sum_t d_t.
    Inclusion-exclusion takes off the caps: entry t != j is free or pinned at
    d_t; entry j is free, pinned at d_j - 1 (weight d_j) or pinned at d_j.
    With D_free the free degrees and P the pins, a term is

        (-1)^(entries pinned) * prod C(d_t, pin) * C(D_free + d_j - 1, D_free + l + P),

    so it depends only on the totals D_free and P.  The terms are merged by
    those totals as each entry is added, keyed by D_free * (D + 1) + P, which
    leaves at most (D + 1)^2 of them per j rather than 3 * 2^(k - 1).  A pin
    that takes P past d_j - 1 - l is dropped at once: its binomial has
    l + P > d_j - 1, and P only grows as entries are added, so the term and
    every term it spawns vanish.  A j with d_j - 1 - l < 0 adds nothing.  The
    terms of j depend on j only through d_j (swapping two entries of equal
    degree maps the terms of one onto those of the other), so they are summed
    once per distinct degree and multiplied by how many equations share it.  At
    index 1 the zero label (1 per j) goes and the k - 1 strict-transform
    components come: a net -1.

    It shares only ``binomial`` with ``delta_j``, whose binomials are
    C(sum_I d + d_j - 1, dim + k), and with the stratum listing, as
    ``tests/test_routes.py`` checks: ``k_lg_closed == dim_R_1`` is no tautology.
    """
    l = ci.l
    base = sum(ci.degrees) + 1  # D + 1: every pinned total is at most D
    total = 0
    for dj in dict.fromkeys(ci.degrees):
        bound = dj - 1 - l  # the largest pinned total whose binomial can be nonzero
        if bound < 0:
            continue
        j = ci.degrees.index(dj) + 1
        terms = {0: 1}  # D_free * base + P -> signed weight
        for t, d in enumerate(ci.degrees, 1):
            pins = ((d - 1, -d), (d, -1)) if t == j else ((d, -1),)  # (pin, -C(d, pin))
            merged: dict[int, int] = {}
            for key, c in terms.items():
                free = key + d * base
                merged[free] = merged.get(free, 0) + c
                for pin, weight in pins:
                    if key % base + pin > bound:
                        break  # the pins ascend
                    merged[key + pin] = merged.get(key + pin, 0) + c * weight
            terms = merged
        part = 0
        for key, c in terms.items():
            free, pinned = divmod(key, base)
            part += c * binomial(free + dj - 1, free + l + pinned)
        total += ci.degrees.count(dj) * part
    return total - 1 if l == 0 else total


def verify_main_theorem(ci: CompleteIntersection) -> TheoremReport:
    """Compare the Hodge number with the central-fiber count.

    The two sides are computed along separate routes (ring dimension vs
    stratum enumeration) that share only ``binomial``, and the one check is
    h_pr = k_lg.  The paper's form, h = k_lg for dim > 2 and h = k_lg + 1 for
    dim = 2, follows from it and is not a second check: ``hodge_h1`` sets
    h = h_pr + 1 at dim 2 and h = h_pr otherwise.
    """
    hodge = hodge_h1(ci)
    count = k_lg(ci).k_lg
    return TheoremReport(holds=hodge.h_pr == count, h=hodge.h, h_pr=hodge.h_pr, k_lg=count)
