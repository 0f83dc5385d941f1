"""The routes to the paper's claim h^{1,N-1} = k_LG, in one table.

Each route computes the primitive Hodge number h_pr of a Fano complete
intersection by its own code, two on the ring side and two on the
Landau-Ginzburg side.  Every test that compares routes iterates ``ROUTES``
(or ``RING``) through ``agreed``, so a new route is one more row.

Each row names the functions of ``fanolg`` its value calls (``src``) and the
helpers it shares with some other route (``shares``), as ``module.name``.  Two
routes share exactly what both declare, and ``tests/test_routes.py`` checks
that against every name their code reaches.  The input type and the budget
error (``COMMON``) are reached by every route and shared by design.  The
values are read through the modules at call time, so a helper patched in its
module changes every route that calls it.

These are not routes, since each restates one:

- ``dim_R_1`` is ``hodge_h1``'s ``dim_R``, the inclusion-exclusion row;
- ``alt_dim_formula`` is the monomial count minus the index-1 correction, as
  its own docstring says;
- ``verify_main_theorem`` compares the inclusion-exclusion row with the
  strata listing.

``hypersurface_corollary`` takes hypersurfaces only, so it is no row;
criterion 6 compares it with the ring rows.
"""

from typing import Callable, NamedTuple

from fanolg import CompleteIntersection, jacobian_ring, lg_count


class Route(NamedTuple):
    name: str
    side: str  # "ring" or "LG"
    value: Callable[[CompleteIntersection], int]  # ci -> h_pr
    src: tuple[str, ...]  # what value calls, from which the test reads the reach
    shares: frozenset[str]  # the helpers the route shares with some other route


ROUTES = (
    Route(
        "inclusion-exclusion",
        "ring",
        lambda ci: jacobian_ring.hodge_h1(ci).h_pr,
        ("jacobian_ring.hodge_h1",),
        frozenset({"exactmath.binomial", "jacobian_ring._index_one_correction"}),
    ),
    Route(
        "monomial count",
        "ring",
        lambda ci: jacobian_ring.count_monomials_oracle(ci)
        - jacobian_ring._index_one_correction(ci),
        ("jacobian_ring.count_monomials_oracle", "jacobian_ring._index_one_correction"),
        frozenset(
            {
                "exactmath.binomial",
                "exactmath.capped_sum_counts",
                "jacobian_ring._index_one_correction",
            }
        ),
    ),
    Route(
        "strata listing",
        "LG",
        lambda ci: lg_count.k_lg(ci).k_lg,
        ("lg_count.k_lg",),
        # capped_sum_counts enters only the budget of enumerate_strata
        frozenset({"exactmath.binomial", "exactmath.capped_sum_counts"}),
    ),
    Route(
        "strata closed form",
        "LG",
        lambda ci: lg_count.k_lg_closed(ci),
        ("lg_count.k_lg_closed",),
        frozenset({"exactmath.binomial"}),
    ),
)

RING = tuple(route for route in ROUTES if route.side == "ring")

COMMON = frozenset({"varieties.CompleteIntersection", "exactmath.BudgetExceeded"})


def agreed(ci: CompleteIntersection, routes: tuple[Route, ...] = ROUTES) -> int:
    """The value on which ``routes`` agree for ``ci``; an AssertionError that
    names every route's value when they differ."""
    values = {route.name: route.value(ci) for route in routes}
    assert len(set(values.values())) == 1, f"the routes disagree on {ci}: {values}"
    return values[routes[0].name]
