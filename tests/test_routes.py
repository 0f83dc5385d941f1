"""The route table checked against the routes' code: two routes share exactly
the helpers both declare, so a new shared helper fails here, and so does a
declaration that has gone stale; and mutants of the routes' code, each of
which the comparison of the routes must catch, one entry of the shared
``binomial`` at a time among them."""

import ast
import inspect
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

import fanolg
from fanolg import fano_sweep, g_closed, jacobian_ring, lg_count, resolution
from fanolg.exactmath import binomial, capped_sum_counts
from routes import COMMON, ROUTES, agreed

PACKAGE = Path(fanolg.__file__).parent


@cache
def module_names(module):
    """Each module-level name of ``fanolg.<module>``: its ``module.name`` and
    the node its definition reads, or None for a name imported from a sibling
    module."""
    names = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = (f"{module}.{node.name}", node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names[target.id] = (f"{module}.{target.id}", node.value)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                names[alias.asname or alias.name] = (f"{node.module}.{alias.name}", None)
    return names


@cache
def reach(route):
    """Every ``module.name`` of ``fanolg`` the route's ``src`` references,
    directly or through the names those reference, annotations included; the
    ``COMMON`` names end the walk."""
    seen = set()
    todo = list(route.src)
    while todo:
        module, name = todo.pop().split(".")
        qualified, definition = module_names(module)[name]
        if definition is None:  # imported, perhaps re-exported: look it up where it comes from
            todo.append(qualified)
        elif qualified not in seen and qualified not in COMMON:
            seen.add(qualified)
            names = module_names(module)
            for node in ast.walk(definition):
                if isinstance(node, ast.Name) and node.id in names:
                    todo.append(names[node.id][0])
    return seen


def rewritten(function, fragment, replacement):
    """``function`` with the one occurrence of ``fragment`` in its source
    replaced, defined over its module's namespace: a mutant of a line inside a
    body, which no attribute patch reaches."""
    source = inspect.getsource(function)
    assert source.count(fragment) == 1, fragment
    namespace = {}
    exec(source.replace(fragment, replacement), function.__globals__, namespace)
    return namespace[function.__name__]


def slug(route):
    return route.name.replace(" ", "-")


@pytest.mark.parametrize(
    "a, b",
    [pytest.param(a, b, id=f"{slug(a)}+{slug(b)}") for a, b in combinations(ROUTES, 2)],
)
def test_routes_share_exactly_the_declared_helpers(a, b):
    assert reach(a) & reach(b) == a.shares & b.shares


@pytest.mark.parametrize("route", ROUTES, ids=slug)
def test_each_declared_helper_is_shared_with_another_route(route):
    others = set().union(*(reach(o) for o in ROUTES if o is not route))
    assert route.shares == reach(route) & others


@pytest.mark.parametrize(
    "module, name, mutant",
    [
        # one relation short at index 1, in the helper both ring routes share
        (jacobian_ring, "_index_one_correction", lambda ci: ci.dim + ci.k if ci.index == 1 else 0),
        # G(4, 1) one too large in the strata listing; the closed form sums by Vandermonde
        (lg_count, "g_closed", lambda d, s: g_closed(d, s) + ((d, s) == (4, 1))),
        # one head vector too many at total 1 in the monomial count, which
        # shares the helper with the strata budget
        (
            jacobian_ring,
            "capped_sum_counts",
            lambda caps, bound: [
                n + (total == 1) for total, n in enumerate(capped_sum_counts(caps, bound))
            ],
        ),
        # no strict-transform correction at index 1 in the strata listing ...
        (lg_count, "k_lg", rewritten(lg_count.k_lg, "total + ci.k - 1", "total + ci.k")),
        # ... and in the closed form
        (
            lg_count,
            "k_lg_closed",
            rewritten(lg_count.k_lg_closed, "total - 1 if l == 0", "total if l == 0"),
        ),
        # block j capped at d_j - 1 like the others, so i_j = d_j - 1 is listed
        (
            lg_count,
            "enumerate_strata",
            rewritten(lg_count.enumerate_strata, "d - 2 if t == j", "d - 1 if t == j"),
        ),
        # every subset's sign flipped in the inclusion-exclusion ...
        (
            jacobian_ring,
            "delta_j",
            rewritten(
                jacobian_ring.delta_j,
                "-term if (k - mask.bit_count()) & 1 else term",
                "term if (k - mask.bit_count()) & 1 else -term",
            ),
        ),
        # ... and the head exponents capped at d_t, not d_t - 1, in the monomial count
        (
            jacobian_ring,
            "count_monomials_oracle",
            rewritten(
                jacobian_ring.count_monomials_oracle,
                "[d - 1 for d in ci.degrees]",
                "[d for d in ci.degrees]",
            ),
        ),
    ],
    ids=[
        "index-one-correction-minus-1",
        "g_closed-4-1-plus-1",
        "capped_sum_counts-1-plus-1",
        "k_lg-index-one-plus-1",
        "k_lg_closed-index-one-plus-1",
        "enumerate_strata-cap-j-plus-1",
        "delta_j-signs-flipped",
        "count_monomials_oracle-caps-plus-1",
    ],
)
def test_each_mutant_is_caught(monkeypatch, module, name, mutant):
    # on fano_sweep(8, 3, 6), which criterion 5 runs unpatched, the first
    # mutant breaks 32 of its 115 inputs, the second 21 and the third 71; the
    # next three break the 32 inputs of index 1 each: two change only the
    # index-1 term, and the cap matters only where the bound d_j - 1 - l
    # reaches d_j - 1; the sign mutant breaks 55 and the caps mutant 36
    monkeypatch.setattr(module, name, mutant)
    with pytest.raises(AssertionError, match="the routes disagree"):
        for ci in fano_sweep(8, 3, 6):
            agreed(ci)


# the modules that call binomial by their own name, the routes' and g_closed's
BINOMIAL_USERS = (jacobian_ring, lg_count, resolution)
# the entries that enter only the strata budget estimate, which no route reads
UNSEEN_BINOMIALS = {(6, 1), (6, 2), (7, 2), (7, 3), (8, 3)}


def test_each_binomial_entry_the_routes_form_is_seen(monkeypatch):
    # every (n, k) binomial forms while the routes run over fano_sweep(8, 3, 6),
    # then each made one too large in every module at once (65 entries)
    sweep, formed = list(fano_sweep(8, 3, 6)), set()

    def recording(n, k):
        formed.add((n, k))
        return binomial(n, k)

    def patch(function):
        for module in BINOMIAL_USERS:
            monkeypatch.setattr(module, "binomial", function)

    patch(recording)
    for ci in sweep:
        agreed(ci)
    unseen = set()
    for entry in formed:
        patch(lambda n, k: binomial(n, k) + ((n, k) == entry))
        try:
            for ci in sweep:
                agreed(ci)
        except AssertionError as exc:
            assert "the routes disagree" in str(exc)
        else:
            unseen.add(entry)
    assert unseen == UNSEEN_BINOMIALS
