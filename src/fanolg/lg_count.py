"""Component count of the central fiber of the compactified mirror fibration.

The compactified family acquires exceptional divisors only over a controlled
family of blow-up centers (the canonical strata), each locally modeled by the
hypersurfaces handled in ``resolution``.  Summing the per-stratum divisor
counts gives k_LG, the number of central-fiber components minus one, which the
main comparison checks against the Hodge number h^{1,N-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Literal, NamedTuple

from .exactmath import BudgetExceeded, binomial_row, capped_vectors, count_capped_vectors
from .jacobian_ring import dim_R_1, hodge_h1
from .resolution import g_closed
from .varieties import CompleteIntersection

# What one stratum enumeration may cost: each listed stratum counts 1 and each
# j the (bound + 1) * d_j bits of its divisor row G(d_j, l..d_j - 1).  Eight
# equations of degree 20 in dimension 153 (12,498,200 strata) and index-1
# hypersurfaces of degree 1,000 or more are refused; nine equations of degree
# 12 in dimension 100 (831,402 strata, about 6 s) stay inside.
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


@dataclass(frozen=True)
class KlgReport:
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


@dataclass(frozen=True)
class TheoremReport:
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
    carries at least one divisor.  Labels come in ``itertools.product`` order
    for each j in turn, each as a ``StratumContribution``.

    Raises ``BudgetExceeded`` before listing anything when the strata
    plus the bits of the divisor rows would cost more than
    ``MAX_STRATA_COST``.  The strata of each j are charged C(bound + k, k),
    their count with the caps ignored, and counted exactly only when those
    bounds do not fit.
    """
    l = ci.l
    plans = []
    for j, dj in enumerate(ci.degrees, 1):
        bound = dj - 1 - l
        if bound >= 0:
            caps = [d - 2 if t == j else d - 1 for t, d in enumerate(ci.degrees, 1)]
            plans.append((j, dj, caps, bound))
    bits = sum((bound + 1) * dj for _, dj, _, bound in plans)
    cost = bits + sum(comb(bound + ci.k, ci.k) for *_, bound in plans)
    if cost > MAX_STRATA_COST and bits <= MAX_STRATA_COST:
        cost = bits + sum(
            count_capped_vectors(caps, bound) - (l == 0) for *_, caps, bound in plans
        )
    if cost > MAX_STRATA_COST:
        raise BudgetExceeded(
            f"the strata of {ci} would cost more than {MAX_STRATA_COST:,}"
            " (one per stratum plus the bits of the divisor counts)"
        )
    out: list[StratumContribution] = []
    rows = [binomial_row(d, d - 1) for d in ci.degrees]
    for j, dj, caps, bound in plans:
        g_row = [g_closed(dj, s + l) for s in range(bound + 1)]
        for ivec, s in capped_vectors(caps, bound):
            if l == 0 and s == 0:
                continue
            multiplicity = 1
            for row, i in zip(rows, ivec):
                multiplicity *= row[i]
            out.append(StratumContribution(j, ivec, multiplicity, g_row[s]))
    return out


def k_lg(ci: CompleteIntersection) -> KlgReport:
    """Number of central-fiber components of the compactified mirror, minus one.

    For index >= 2 the uncompactified central fiber is irreducible and k_lg is
    exactly the stratum sum; at index 1 the central fiber already splits into k
    components before resolving, adding k - 1.
    """
    contributions = enumerate_strata(ci)
    total = sum(c.multiplicity * c.divisors for c in contributions)
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
    """Closed form of ``k_lg``: the inclusion-exclusion double sum

        sum_j sum over subsets I of {1..k} of
            (-1)^(k - |I|) * C(sum_I d + d_j - 1, dim + k),

    taken as is for index >= 2, and shifted by -(dim + 2k) + k - 1 at index 1
    (removing the empty strata and adding the strict-transform components).

    The double sum is ``dim_R_prime_1`` (its inner sum is ``delta_j``) and the
    shift is -(dim + k + 1), the index-1 correction, so this is the same count
    as ``dim_R_1`` on every input and is evaluated by it.  Comparing it with
    ``k_lg`` re-checks ``h_pr == k_lg``; it is not an independent route.
    """
    return dim_R_1(ci)


def verify_main_theorem(ci: CompleteIntersection) -> TheoremReport:
    """Compare the Hodge number with the central-fiber count.

    The two sides are computed along fully separate routes (ring dimension vs
    stratum enumeration), and the one check is h_pr = k_lg.  The paper's form,
    h = k_lg for dim > 2 and h = k_lg + 1 for dim = 2, follows from it and is
    not a second check: ``hodge_h1`` sets h = h_pr + 1 at dim 2 and h = h_pr
    otherwise.
    """
    hodge = hodge_h1(ci)
    count = k_lg(ci).k_lg
    return TheoremReport(holds=hodge.h_pr == count, h=hodge.h, h_pr=hodge.h_pr, k_lg=count)
