"""Tests for the counting recursions, closed forms, and the blow-up rewriting."""

import hashlib
import json
import tracemalloc
from functools import cache
from itertools import product
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import (
    BudgetExceeded,
    ChartType,
    chart_children,
    f_closed,
    fg_rec,
    g_closed,
    resolution_trace,
)
from fanolg import resolution
from fanolg.resolution import MAX_RECURSION_SUMMANDS, MAX_TRACE_CELLS
from answers import recursive_trace
import fresh


def unshared_tree(chart: ChartType) -> tuple[int, set[ChartType]]:
    """Oracle: the rewriting tree by plain recursion over ``chart_children``,
    every subtree expanded anew.  One node per chart, plus one subtree per
    distinct child chart of its blow-up (the x_i != 0 charts share one);
    returns the node count and the set of charts met."""
    count, charts = 1, {chart}
    if not chart.is_terminal:
        for child in {edge.child for edge in chart_children(chart)}:
            sub_count, sub_charts = unshared_tree(child)
            count += sub_count
            charts |= sub_charts
    return count, charts


def outcome(build, chart: ChartType, node_limit: int):
    """The trace's JSON form, or the type of the exception the build raised."""
    try:
        return build(chart, node_limit=node_limit).to_json_dict()
    except (BudgetExceeded, ValueError) as exc:
        return type(exc)


@cache
def recursive_f(d: int, s: int) -> int:
    """Oracle: the recursion F(d, s) = sum_i C(s, i) G(d, i), G(d, i) =
    F(d - i, i), as plain memoised Python recursion over every term."""
    if d <= 0:
        return 0
    if s == 0:
        return 1
    return sum(comb(s, i) * (1 if i == 0 else recursive_f(d - i, i)) for i in range(s + 1))


def reachable_summands(d: int, s: int) -> int:
    """Oracle: the summands the recursion for F(d, s) adds, counted over the
    states (d', s') with d', s' >= 1 that ``recursive_f`` reaches from (d, s):
    one per term i = 0..s' whose F(d' - i, i) does not vanish at d' - i <= 0,
    so min(s', d' - 1) + 1 per state."""
    seen, pending = set(), [(d, s)]
    while pending:
        state = pending.pop()
        if state not in seen:
            seen.add(state)
            level, t = state
            pending.extend((level - i, i) for i in range(1, min(t, level - 1) + 1))
    return sum(min(t, level - 1) + 1 for level, t in seen)


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCountingFunctions:
    """Criteria 2 and 3 give F and G for d, s <= 40; here are the plain
    recursion past that range, the budget and the refusals."""

    @settings(max_examples=100)
    @given(st.integers(1, 150), st.integers(0, 150))
    def test_property_equals_plain_recursion(self, d, s):
        assert fg_rec(d, s) == (recursive_f(d, s), 1 if s == 0 else recursive_f(d - s, s))

    @settings(max_examples=100)
    @given(st.integers(1, 12), st.integers(0, 10**9))
    def test_property_huge_s_small_d(self, d, s):
        # no binomial row runs to s: the root's row stops at min(s, d - 1)
        assert fg_rec(d, s) == (f_closed(d, s), g_closed(d, s))

    def test_deep_recursion_answers(self):
        # one state per level of d: far past Python's recursion limit
        assert fg_rec(3000, 1) == (3000, 2999)
        assert fg_rec(2500, 3) == (f_closed(2500, 3), g_closed(2500, 3))

    def test_large_square_within_budget(self):
        # G(240, 120) = F(120, 120), read from F(240, 120)'s table
        assert fg_rec(240, 120)[1] == fg_rec(120, 120)[0] == f_closed(120, 120)

    def test_summand_budget(self):
        # (400, 400) reaches about 1.9M summands, past the budget of 1M
        assert reachable_summands(400, 400) > MAX_RECURSION_SUMMANDS
        with pytest.raises(BudgetExceeded, match="summands"):
            fg_rec(400, 400)
        with pytest.raises(BudgetExceeded, match="summands"):
            fg_rec(800, 400)

    @pytest.mark.parametrize("d, s, count", [(60, 60, 7704), (120, 56, 47904), (3000, 1, 5999)])
    def test_summand_budget_is_exact(self, monkeypatch, d, s, count):
        assert reachable_summands(d, s) == count
        monkeypatch.setattr(resolution, "MAX_RECURSION_SUMMANDS", count)
        assert fg_rec(d, s) == (f_closed(d, s), g_closed(d, s))
        monkeypatch.setattr(resolution, "MAX_RECURSION_SUMMANDS", count - 1)
        with pytest.raises(BudgetExceeded, match=f"more than {count - 1:,} summands"):
            fg_rec(d, s)

    def test_deepest_chain_within_budget(self):
        # every level of (d, 1) holds the one state s' = 1: 2d - 1 = 999,997 summands
        assert fg_rec(499999, 1) == (499999, 499998)

    # the command line prints these messages as they are
    @pytest.mark.parametrize("function", [fg_rec, f_closed, g_closed])
    @pytest.mark.parametrize(
        "d, s, message", [(0, 1, r"^d must be >= 1, got 0$"), (3, -1, r"^s must be >= 0, got -1$")]
    )
    def test_recursion_and_closed_forms_refuse_alike(self, function, d, s, message):
        with pytest.raises(ValueError, match=message):
            function(d, s)


class TestChartChildren:
    def test_large_exponent_case(self):
        edges = chart_children(ChartType((3,), 1))
        assert [(e.label, e.child) for e in edges] == [
            ("a1 != 0", ChartType((2,), 1)),
            ("x1 != 0", ChartType((3, 2), 0)),
        ]
        assert edges[0].stratum == "a1 = x1 = 0"

    def test_small_exponent_case(self):
        # the center only involves x1..x_{d1}, so there are d1 x-charts, not s
        edges = chart_children(ChartType((1,), 3))
        assert [(e.label, e.child) for e in edges] == [
            ("a1 != 0", ChartType((), 3)),
            ("x1 != 0", ChartType((1,), 2)),
        ]

    def test_exponent_equal_to_s(self):
        edges = chart_children(ChartType((2, 3), 2))
        assert edges[0].child == ChartType((3,), 2)  # exhausted exponent removed
        assert [e.child for e in edges[1:]] == [ChartType((2, 3), 1)] * 2

    def test_terminal_rejected(self):
        with pytest.raises(ValueError):
            chart_children(ChartType((3,), 0))
        with pytest.raises(ValueError):
            chart_children(ChartType((), 4))


class Exponent(int):
    """An exponent that counts the comparisons ``exponent < 1``, the chart
    check's test of the smallest exponent."""

    checks = 0

    def __lt__(self, other):
        if type(other) is int and other == 1:
            Exponent.checks += 1
        return int.__lt__(self, other)


class TestChartEntry:
    def test_a_chart_is_its_tuple(self):
        chart = ChartType((3, 2), 1)
        assert chart == ((3, 2), 1) and hash(chart) == hash(((3, 2), 1))
        assert repr(chart) == "ChartType(dbar=(3, 2), s=1)"
        assert str(chart) == "L((3, 2); s=1)"
        assert chart.weight() == (1, 5) and not chart.is_terminal

    @pytest.mark.parametrize(
        "chart, message",
        [
            (ChartType((0, 2), 1), r"chart exponents must be positive, got \(0, 2\)"),
            (ChartType((3,), -1), r"chart requires s >= 0, got s=-1"),
        ],
    )
    def test_checked_where_it_enters(self, chart, message):
        for enter in (resolution_trace, chart_children):
            with pytest.raises(ValueError, match=message):
                enter(chart)

    def test_dbar_made_a_tuple(self):
        trace = resolution_trace(ChartType([3, 2], 2))
        assert type(trace.root.chart.dbar) is tuple
        assert trace.to_json_dict() == resolution_trace(ChartType((3, 2), 2)).to_json_dict()
        assert [edge.child for edge in chart_children(ChartType([3], 1))] == [
            ChartType((2,), 1),
            ChartType((3, 2), 0),
        ]

    def test_checked_once_per_call(self, monkeypatch):
        # the derived charts keep Exponent entries, so checking them again
        # would count more
        monkeypatch.setattr(Exponent, "checks", 0)
        chart = ChartType(tuple(map(Exponent, (6, 6, 6))), 6)
        assert resolution_trace(chart).node_count == 7231
        assert Exponent.checks == 1
        chart_children(chart)
        assert Exponent.checks == 2


class TestResolutionTrace:
    def test_ordinary_double_point_chains(self):
        # a^(d+1) = lambda*x resolves along a chain of d+1 blow-ups in the a-chart
        for d in range(1, 8):
            trace = resolution_trace(ChartType((d + 1,), 1))
            steps = 0
            node = trace.root
            while node.edges:
                node = node.edges[0].node  # the a-chart is always listed first
                steps += 1
            assert steps == d + 1

    def test_leftmost_path_length_general(self):
        for start, s in [(7, 2), (6, 3), (5, 5)]:
            trace = resolution_trace(ChartType((start,), s))
            steps = 0
            node = trace.root
            while node.edges and node.edges[0].node.chart.s == node.chart.s:
                node = node.edges[0].node
                steps += 1
            assert steps == ceil(start / s)

    def test_smallest_chart(self):
        trace = resolution_trace(ChartType((1,), 1))
        assert trace.node_count == 3
        assert all(e.node.chart.is_terminal for e in trace.root.edges)

    def test_x_chart_multiplicity_is_recorded(self):
        trace = resolution_trace(ChartType((4,), 3))
        a_edge, x_edge = trace.root.edges
        assert a_edge.charts == ("a1 != 0",)
        assert x_edge.charts == ("x1 != 0", "x2 != 0", "x3 != 0")

    def test_each_chart_is_one_shared_node(self):
        trace = resolution_trace(ChartType((8, 8, 8), 8))
        assert trace.node_count == 93747
        assert len({node.chart for node in trace.iter_nodes()}) == len(trace.nodes) == 4637
        nodes = {node.chart: node for node in trace.iter_nodes()}
        assert all(edge.node is nodes[edge.node.chart] for _, edge in trace.iter_edges())

    @pytest.mark.parametrize(
        "dbar, s", [((1,), 10**8), ((10**8,), 1), ((1, 10**8), 1), ((400,), 2)]
    )
    def test_chain_refused_before_the_walk(self, dbar, s):
        # a chain of 10^8 blow-ups closes no chart before its bottom, but each
        # level adds a node and a sibling: the tree has at least 2 * 10^8 + 1;
        # L((400); s=2) passes that bound, but its x-chart L((400, 398); s=1)
        # runs an a-chart chain of 797 levels
        chart = ChartType(dbar, s)
        with pytest.raises(BudgetExceeded, match="exceeded 1000 nodes"):
            resolution_trace(chart, node_limit=1000)
        assert traced_peak(outcome, resolution_trace, chart, 1000) < 2**16

    def test_large_chart_equals_recursive_build(self):
        # (8, 8, 8) s = 8 lies past the range of the property tests below
        chart = ChartType((8, 8, 8), 8)
        trace, oracle = resolution_trace(chart), recursive_trace(chart)
        assert trace.node_count == oracle.node_count == 93747
        assert trace.to_json_dict() == oracle.to_json_dict()
        assert trace.to_dot() == oracle.to_dot()
        # in a fresh interpreter, whose free lists hold nothing yet, so that
        # the peak does not depend on the tests run before: 1.77 MiB on
        # CPython 3.11
        script = (
            "import tracemalloc\n"
            "from fanolg import ChartType, resolution_trace\n"
            "tracemalloc.start()\n"
            "resolution_trace(ChartType((8, 8, 8), 8))\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        done = fresh.python("-c", script)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1.95 * 2**20

    def test_bounds_before_the_walk_refuse_no_trace_within_both_budgets(self, monkeypatch):
        # every chart with up to 3 exponents of at most 4 and s <= 6, at its
        # own tree size and cells, which the walk charges exactly: one cell
        # fewer is refused
        charts = [
            ChartType(dbar, s)
            for k in range(4) for dbar in product(range(1, 5), repeat=k) for s in range(7)
        ]
        # each trace built under the shipped budget, before any is patched
        for chart, trace in [(chart, resolution_trace(chart)) for chart in charts]:
            cells = sum(
                len(c.dbar) + (1 if c.is_terminal else min(c.s, c.dbar[0]) + 2)
                for c in (node.chart for node in trace.nodes)
            )
            monkeypatch.setattr(resolution, "MAX_TRACE_CELLS", cells)
            assert resolution_trace(chart, trace.node_count).node_count == trace.node_count
            monkeypatch.setattr(resolution, "MAX_TRACE_CELLS", cells - 1)
            with pytest.raises(BudgetExceeded, match="cells"):
                resolution_trace(chart, trace.node_count)

    @pytest.mark.parametrize("d", [300, 2000, 99999])
    def test_cell_budget(self, d):
        # long exponent lists: each chart of the x-chart chain stores up to s entries
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_TRACE_CELLS:,} cells"):
            resolution_trace(ChartType((d,), d))

    @settings(max_examples=150)
    @given(
        dbar=st.lists(st.integers(1, 6), max_size=3).map(tuple),
        s=st.integers(0, 6),
    )
    def test_property_equals_recursive_build(self, dbar, s):
        chart = ChartType(dbar, s)
        trace, oracle = resolution_trace(chart), recursive_trace(chart)
        assert trace.node_count == oracle.node_count
        assert trace.to_json_dict() == oracle.to_json_dict()
        assert trace.to_dot() == oracle.to_dot()
        # the tree size and the distinct charts, each limit and one below it
        distinct = len(trace.nodes)
        for limit in (trace.node_count, trace.node_count - 1, distinct, distinct - 1):
            assert outcome(resolution_trace, chart, limit) == outcome(recursive_trace, chart, limit)

    @settings(max_examples=150)
    @given(
        dbar=st.lists(st.integers(1, 6), max_size=3).map(tuple),
        s=st.integers(0, 6),
    )
    def test_property_dag_unfolds_to_the_tree(self, dbar, s):
        chart = ChartType(dbar, s)
        trace = resolution_trace(chart)
        count, charts = unshared_tree(chart)
        assert trace.node_count == count
        assert trace.root.chart == chart
        assert {node.chart for node in trace.iter_nodes()} == charts
        assert len(trace.nodes) == len(charts)
        for parent, edge in trace.iter_edges():
            steps = chart_children(parent.chart)
            assert edge.charts == tuple(e.label for e in steps if e.child == edge.node.chart)
            assert edge.stratum == steps[0].stratum
            assert edge.node.chart.weight() < parent.chart.weight()
        for node in trace.iter_nodes():
            if not node.chart.is_terminal:
                # one edge per distinct child, the a1 != 0 chart first
                children = [edge.node.chart for edge in node.edges]
                assert children == list(dict.fromkeys(e.child for e in chart_children(node.chart)))
        assert all(leaf.chart.is_terminal for leaf in trace.leaves())


class TestTraceSerialization:
    """The shape of the JSON and DOT forms is what the ``resolve-trace`` rows
    of ``answers.py`` check, with a second route to every node and edge."""

    def test_pinned_output(self):
        # the criterion-8 family and (8, 8, 8) s = 8, the charts of the traces
        # benchmark in its order: every byte of their JSON and DOT is pinned
        charts = [
            ChartType(dbar, s)
            for k in (1, 2, 3)
            for dbar in product(range(1, 7), repeat=k)
            for s in range(7)
        ]
        charts.append(ChartType((8, 8, 8), 8))
        assert len(charts) == 1807
        json_digest, dot_digest = hashlib.sha256(), hashlib.sha256()
        for chart in charts:
            trace = resolution_trace(chart)
            json_digest.update(json.dumps(trace.to_json_dict()).encode())
            dot_digest.update(trace.to_dot().encode())
        assert json_digest.hexdigest()[:16] == "2523591b64a641d2"
        assert dot_digest.hexdigest()[:16] == "744f128f875a9f47"
