"""Tests for the counting recursions, closed forms, and the blow-up rewriting."""

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
    ResolutionTrace,
    TraceEdge,
    TraceNode,
    chart_children,
    f_closed,
    f_multi,
    f_rec,
    fg_rec,
    g_closed,
    g_rec,
    resolution_trace,
)
from fanolg import resolution
from fanolg.resolution import MAX_RECURSION_SUMMANDS, MAX_TRACE_CELLS


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


def worklist_trace(chart: ChartType, node_limit: int = 1_000_000) -> ResolutionTrace:
    """Oracle: the two-phase build of the trace.  A worklist expands each
    distinct chart once through ``chart_children`` (the x-chart popped first,
    a chart skipped if already seen), then the nodes are assembled in
    increasing weight, with the tree size of each chart summed on the way."""
    if node_limit < 1:
        raise ValueError(f"node_limit must be positive, got {node_limit}")

    def exceeded() -> BudgetExceeded:
        return BudgetExceeded(f"resolution trace from {chart} exceeded {node_limit} nodes")

    steps: dict[ChartType, tuple[str, dict[ChartType, list[str]]]] = {}
    pending = [chart]
    while pending:
        current = pending.pop()
        if current in steps:
            continue
        stratum, grouped = "", {}
        if not current.is_terminal:
            for edge in chart_children(current):
                stratum = edge.stratum
                grouped.setdefault(edge.child, []).append(edge.label)
        steps[current] = (stratum, grouped)
        if len(steps) > node_limit:
            raise exceeded()
        pending.extend(grouped)

    nodes: dict[ChartType, TraceNode] = {}
    sizes: dict[ChartType, int] = {}
    for current in sorted(steps, key=ChartType.weight):
        stratum, grouped = steps[current]
        size = 1 + sum(sizes[child] for child in grouped)
        if size > node_limit:
            raise exceeded()
        sizes[current] = size
        edges = (TraceEdge(stratum, tuple(labels), nodes[child]) for child, labels in grouped.items())
        nodes[current] = TraceNode(current, tuple(edges))
    return ResolutionTrace(tuple(reversed(nodes.values())), sizes[chart])


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
    def test_f_fixtures(self):
        assert f_rec(3, 1) == 3
        assert f_rec(3, 2) == 6
        assert f_rec(3, 3) == 10

    def test_f_base_cases(self):
        for d in range(1, 11):
            assert f_rec(d, 0) == 1
        for s in range(0, 11):
            assert f_rec(0, s) == 0
            assert f_rec(-3, s) == 0

    def test_g_fixtures(self):
        assert g_rec(3, 2) == 1
        assert g_rec(3, 3) == 0
        for d in range(1, 11):
            assert g_rec(d, 0) == 1

    def test_g_vanishes_when_d_at_most_s(self):
        for d in range(1, 12):
            for s in range(d, 15):
                assert g_rec(d, s) == 0

    def test_g_closed_values(self):
        assert g_closed(3, 2) == 1
        assert g_closed(5, 1) == 4
        assert g_closed(2, 5) == 0

    def test_f_closed_values(self):
        # chains of ordinary double points: d + 1 components in the length-one case
        for d in range(1, 11):
            assert f_closed(d + 1, 1) == d + 1
        assert f_closed(3, 3) == comb(5, 3) == 10
        for s in range(0, 11):
            assert f_closed(1, s) == 1

    def test_quadratic_family(self):
        # F(3, s) = (s+2)(s+1)/2 for all s
        for s in range(0, 12):
            assert f_rec(3, s) == comb(s + 2, 2)

    def test_recursion_matches_closed_form(self):
        for d in range(1, 16):
            for s in range(0, 16):
                assert g_rec(d, s) == g_closed(d, s), (d, s)
                assert f_rec(d, s) == f_closed(d, s), (d, s)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2, 150), st.integers(0, 150))
    def test_property_equals_plain_recursion(self, d, s):
        assert f_rec(d, s) == recursive_f(d, s)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**9))
    def test_property_huge_s_small_d(self, d, s):
        # no binomial row runs to s: the root's row stops at min(s, d - 1)
        assert fg_rec(d, s) == (f_closed(d, s), g_closed(d, s))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 60))
    def test_property_shared_table_equals_separate_routes(self, d, s):
        assert fg_rec(d, s) == (f_rec(d, s), g_rec(d, s))

    def test_deep_recursion_answers(self):
        # one state per level of d: far past Python's recursion limit
        assert f_rec(3000, 1) == 3000
        assert g_rec(3000, 1) == 2999
        assert fg_rec(3000, 1) == (3000, 2999)
        assert f_rec(2500, 3) == f_closed(2500, 3)

    def test_large_square_within_budget(self):
        assert f_rec(120, 120) == f_closed(120, 120)
        assert g_rec(240, 120) == f_rec(120, 120)

    def test_summand_budget(self):
        # (400, 400) reaches about 1.9M summands, past the budget of 1M
        assert reachable_summands(400, 400) > MAX_RECURSION_SUMMANDS
        with pytest.raises(BudgetExceeded, match="summands"):
            f_rec(400, 400)
        with pytest.raises(BudgetExceeded):
            g_rec(800, 400)
        with pytest.raises(BudgetExceeded):
            fg_rec(400, 400)

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

    @pytest.mark.parametrize("d", [500001, 10**9])
    def test_huge_d_is_refused_at_once(self, d):
        # 2d - 1 summands at least, one state per level: refused before any level
        def refused():
            with pytest.raises(BudgetExceeded, match="summands"):
                f_rec(d, 1)

        assert traced_peak(refused) < 2**20

    def test_memory_of_a_large_square(self):
        assert traced_peak(fg_rec, 300, 300) < 6 * 2**20

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            f_rec(3, -1)
        with pytest.raises(ValueError):
            g_rec(0, 2)
        with pytest.raises(ValueError):
            g_closed(0, 1)
        with pytest.raises(ValueError):
            f_closed(2, -1)
        with pytest.raises(ValueError):
            fg_rec(0, 1)
        with pytest.raises(ValueError):
            fg_rec(3, -1)


class TestFMulti:
    def test_examples(self):
        assert f_multi((3,), 2) == 6
        assert f_multi((2, 3), 1) == 2 + 3 == 5
        for s in range(0, 11):
            assert f_multi((1, 1, 1), s) == 3

    def test_recursive_route_agrees(self):
        for k in (1, 2, 3):
            for dbar in product(range(1, 9), repeat=k):
                for s in range(0, 9):
                    assert f_multi(dbar, s) == sum(f_rec(d, s) for d in dbar)

    def test_empty_dbar_rejected(self):
        with pytest.raises(ValueError):
            f_multi((), 2)


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

    def test_smallest_nonterminal_chart(self):
        edges = chart_children(ChartType((1,), 1))
        assert len(edges) == 2
        assert all(e.child.is_terminal for e in edges)

    def test_weights_strictly_decrease(self):
        for k in (1, 2, 3):
            for dbar in product(range(1, 6), repeat=k):
                for s in range(1, 6):
                    chart = ChartType(dbar, s)
                    for edge in chart_children(chart):
                        assert edge.child.weight() < chart.weight(), (chart, edge)

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

    def test_finiteness_and_terminal_leaves(self):
        trace = resolution_trace(ChartType((3,), 3))
        assert all(leaf.chart.is_terminal for leaf in trace.leaves())

    def test_weight_decrease_along_every_edge(self):
        for k in (1, 2):
            for dbar in product(range(1, 5), repeat=k):
                for s in range(0, 5):
                    trace = resolution_trace(ChartType(dbar, s))
                    for parent, edge in trace.iter_edges():
                        assert edge.node.chart.weight() < parent.chart.weight()

    def test_x_chart_multiplicity_is_recorded(self):
        trace = resolution_trace(ChartType((4,), 3))
        a_edge, x_edge = trace.root.edges
        assert a_edge.charts == ("a1 != 0",)
        assert x_edge.charts == ("x1 != 0", "x2 != 0", "x3 != 0")

    def test_node_limit(self):
        with pytest.raises(BudgetExceeded):
            resolution_trace(ChartType((6, 6), 4), node_limit=10)

    def test_terminal_root(self):
        trace = resolution_trace(ChartType((3, 2), 0))
        assert trace.node_count == 1
        assert trace.root.edges == ()
        assert list(trace.iter_nodes()) == [trace.root]

    def test_node_limit_counts_tree_nodes(self):
        # 679 distinct charts unfold to a tree of 7,231 nodes; the budget is on the tree
        chart = ChartType((6, 6, 6), 6)
        trace = resolution_trace(chart, node_limit=7231)
        assert trace.node_count == 7231
        assert len(trace.nodes) == 679
        for limit in (7230, 900):
            with pytest.raises(BudgetExceeded):
                resolution_trace(chart, node_limit=limit)

    def test_each_chart_is_one_shared_node(self):
        trace = resolution_trace(ChartType((8, 8, 8), 8))
        assert trace.node_count == 93747
        assert len({node.chart for node in trace.iter_nodes()}) == len(trace.nodes) == 4637
        nodes = {node.chart: node for node in trace.iter_nodes()}
        assert all(edge.node is nodes[edge.node.chart] for _, edge in trace.iter_edges())

    def test_early_rejection(self):
        # the tree passes 1M nodes long before the distinct charts are all expanded
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="exceeded 1000000 nodes"):
                resolution_trace(ChartType((12, 12, 12), 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("d", [300, 2000, 99999])
    def test_cell_budget(self, d):
        # long exponent lists: each chart of the x-chart chain stores up to s entries
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_TRACE_CELLS:,} cells"):
            resolution_trace(ChartType((d,), d))

    @settings(max_examples=150, deadline=None)
    @given(
        dbar=st.lists(st.integers(1, 6), max_size=3).map(tuple),
        s=st.integers(0, 6),
    )
    def test_property_equals_worklist_build(self, dbar, s):
        chart = ChartType(dbar, s)
        trace, oracle = resolution_trace(chart), worklist_trace(chart)
        assert trace.node_count == oracle.node_count
        assert trace.to_json_dict() == oracle.to_json_dict()
        assert trace.to_dot() == oracle.to_dot()
        for limit in (trace.node_count, trace.node_count - 1):
            assert outcome(resolution_trace, chart, limit) == outcome(worklist_trace, chart, limit)

    @settings(max_examples=150, deadline=None)
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
    def test_json_shape(self):
        trace = resolution_trace(ChartType((3,), 1))
        payload = trace.to_json_dict()
        assert payload["node_count"] == trace.node_count == 7
        nodes, edges = payload["nodes"], payload["edges"]
        assert [node["id"] for node in nodes] == list(range(len(trace.nodes)))
        root = nodes[0]
        assert root["dbar"] == [3]
        assert root["s"] == 1
        assert root["weight"] == [1, 3]
        root_edges = [edge for edge in edges if edge["parent"] == 0]
        assert {edge["stratum"] for edge in root_edges} == {"a1 = x1 = 0"}
        assert [edge["charts"] for edge in root_edges] == [["a1 != 0"], ["x1 != 0"]]
        assert [nodes[edge["child"]]["dbar"] for edge in root_edges] == [[2], [3, 2]]
        json.dumps(payload)  # must be serializable as-is

    def test_json_lists_each_chart_once(self):
        trace = resolution_trace(ChartType((6, 6, 6), 6))
        payload = trace.to_json_dict()
        charts = [(tuple(node["dbar"]), node["s"]) for node in payload["nodes"]]
        assert len(charts) == len(set(charts)) == 679
        assert len(payload["edges"]) == sum(1 for _ in trace.iter_edges())
        assert payload["node_count"] == 7231

    def test_dot_output(self):
        dot = resolution_trace(ChartType((2,), 2)).to_dot()
        assert dot.startswith("digraph resolution_trace {")
        assert dot.rstrip().endswith("}")
        assert "->" in dot
        assert 'label="dbar=(2) s=2' in dot

    def test_dot_has_one_box_per_distinct_chart(self):
        trace = resolution_trace(ChartType((6, 6, 6), 6))
        dot = trace.to_dot()
        assert dot.count("[label=\"dbar=") == len(trace.nodes) == 679
        assert dot.count(" -> ") == sum(1 for _ in trace.iter_edges())
