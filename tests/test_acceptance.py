"""Acceptance suite.

Each test runs one acceptance criterion end to end, enforces exactness (all
comparisons are integer equality) and the stated runtime budget, and prints a
single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they appear.
"""

import time
from itertools import product
from math import comb

from fanolg import (
    ChartType,
    CompleteIntersection,
    convolution_identity_sides,
    f_closed,
    fano_sweep,
    fg_rec,
    g_closed,
    hypersurface_corollary,
    resolution_trace,
    verify_main_theorem,
    verify_period,
)
from routes import RING, agreed


class Criterion:
    """Context manager that times a criterion and prints its verdict line."""

    def __init__(self, name, limit_seconds):
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name}: {elapsed:.2f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s >= {self.limit}s"
            )
        return False


def test_criterion_1_cubic_fixtures():
    with Criterion("criterion 1: cubic hypersurface fixtures", 1.0):
        surface = verify_main_theorem(CompleteIntersection(2, (3,)))
        assert (surface.h, surface.k_lg, surface.holds) == (7, 6, True)
        threefold = verify_main_theorem(CompleteIntersection(3, (3,)))
        assert (threefold.h, threefold.k_lg, threefold.holds) == (5, 5, True)
        fourfold = verify_main_theorem(CompleteIntersection(4, (3,)))
        assert (fourfold.h, fourfold.k_lg, fourfold.holds) == (1, 1, True)
        for dim in range(5, 9):
            high = verify_main_theorem(CompleteIntersection(dim, (3,)))
            assert (high.h, high.k_lg, high.holds) == (0, 0, True)


def test_criterion_2_resolution_counts():
    with Criterion("criterion 2: resolution count fixtures", 1.0):
        assert fg_rec(3, 1)[0] == 3
        assert fg_rec(3, 2) == (6, 1)
        assert fg_rec(3, 3) == (10, 0)
        for d in range(1, 21):
            assert fg_rec(d + 1, 1)[0] == d + 1


def test_criterion_3_recursion_closed_form_equivalence():
    with Criterion("criterion 3: recursion vs closed form, d,s <= 40", 5.0):
        for d in range(1, 41):
            for s in range(0, 41):
                f, g = fg_rec(d, s)
                assert f == f_closed(d, s) == comb(d + s - 1, s), (d, s)
                assert g == g_closed(d, s) == comb(d - 1, s), (d, s)


def test_criterion_4_convolution_identity_sweep():
    with Criterion("criterion 4: convolution identity, exhaustive sweep", 30.0):
        for k in (1, 2, 3):
            for dbar in product(range(1, 7), repeat=k):
                for e in range(13):
                    for l in range(7):
                        lhs, rhs = convolution_identity_sides(dbar, e, l)
                        assert lhs == rhs, (dbar, e, l)


def test_criterion_5_main_theorem_sweep():
    with Criterion("criterion 5: main comparison sweep, dim <= 8", 120.0):
        count = 0
        for ci in fano_sweep(8, 3, 6):
            count += 1
            agreed(ci)  # h_pr = k_LG by every route of the table
        assert count > 100  # the sweep must actually cover the range


def test_criterion_6_hodge_oracle_equivalence():
    with Criterion("criterion 6: ring dimension oracle equivalence", 120.0):
        for ci in fano_sweep(8, 3, 6):
            agreed(ci, RING)
        for dim in range(2, 9):
            for d in range(2, dim + 2):
                ci = CompleteIntersection(dim, (d,))
                assert hypersurface_corollary(dim, d) == agreed(ci, RING), (dim, d)
        assert hypersurface_corollary(3, 4) == 30


def test_criterion_7_period_condition():
    cases = [
        CompleteIntersection(2, (3,)),
        CompleteIntersection(3, (3,)),
        CompleteIntersection(3, (2,)),
        CompleteIntersection(3, (4,)),
        CompleteIntersection(4, (2, 2)),
    ]
    for ci in cases:
        order = 3 * ci.index
        with Criterion(f"criterion 7: period condition, {ci} to order {order}", 60.0):
            report = verify_period(ci, order)
            assert report.match, (ci, report.first_mismatch)
            if ci.degrees == (3,) and ci.dim == 3:
                assert report.phi.coefficients[2] == 12


def test_criterion_7_period_condition_over_a_family():
    with Criterion("criterion 7: period condition to order index + 1, dim <= 8", 30.0):
        count = 0
        for ci in fano_sweep(8, 3, 9):
            count += 1
            report = verify_period(ci, ci.index + 1)
            assert report.match, (ci, report.first_mismatch)
        assert count == 126


def test_criterion_8_rewriting_termination():
    with Criterion("criterion 8: rewriting termination, entries <= 6, s <= 6", 30.0):
        for k in (1, 2, 3):
            for dbar in product(range(1, 7), repeat=k):
                for s in range(0, 7):
                    trace = resolution_trace(ChartType(dbar, s), node_limit=1_000_000)
                    for parent, edge in trace.iter_edges():
                        assert edge.node.chart.weight() < parent.chart.weight()
                    for leaf in trace.leaves():
                        assert leaf.chart.is_terminal
