"""Component counts for crepant resolutions of the local models

    a_1^{d_1} * ... * a_k^{d_k} = lambda * x_1 * ... * x_s,

viewed as families over the lambda-line.  The module provides the counting
functions F and G (mutual recursion and closed binomial forms), their
multi-exponent sum, and a chart-rewriting simulator of the blow-up procedure
whose lexicographically decreasing weight proves termination.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import getitem, mul
from typing import Iterator, NamedTuple

from .exactmath import BudgetExceeded, binomial, binomial_row


# Summands the recursion for F may add in one evaluation: (300, 300) needs
# about 0.8M, (400, 400) about 1.9M, (d, 1) 2d - 1.
MAX_RECURSION_SUMMANDS = 1_000_000

# Cells a resolution trace may store: each expanded chart costs len(dbar) + m + 2
# for a center of size m, each terminal chart len(dbar) + 1.  The criterion-8
# family and (8, 8, 8) s = 8 need at most 34,966 (that chart itself),
# (6, 6, 6) s = 6 needs 4,316.
MAX_TRACE_CELLS = 10_000_000


# ---------------------------------------------------------------------------
# counting functions


def f_rec(d: int, s: int) -> int:
    """Number of irreducible components over lambda = 0 in a crepant resolution
    of a^d = lambda * x_1 * ... * x_s (exceptional divisors plus the strict
    transform of the central fiber), by the mutual recursion with ``g_rec``:

        F(d, s) = sum_{i=0}^{s} C(s, i) * G(d, i),   G(d, i) = F(d - i, i).

    Conventions: 0 whenever d <= 0, and 1 when s = 0 (the hypersurface is
    already smooth, its central fiber irreducible).  The recursion is evaluated
    without Python recursion, level by level in d, each state as a dot product
    of a binomial row with the level's G values (see ``_f_states``), and
    raises ``BudgetExceeded`` when it would add more than
    ``MAX_RECURSION_SUMMANDS`` summands; past d = 500,000 it raises at once.
    """
    if s < 0:
        raise ValueError(f"f_rec requires s >= 0, got s={s}")
    if d <= 0:
        return 0
    if s == 0:
        return 1
    return _f_states(d, s)[d][s]


def _f_states(d: int, s: int) -> list[dict[int, int]]:
    """F at every state (d', s') the recursion reaches from (d, s), for d, s >= 1,
    as ``levels[d'][s']`` (``levels[0]`` is empty: no state reads level 0).

    The state (d', s') needs G(d', i) = F(d' - i, i) for 1 <= i <= s', and only
    for i < d', since F vanishes at d' - i <= 0; G(d', 0) = 1.  A first pass
    walks the levels d' from d down to 1 and collects the reachable s' of each
    level (the children of a level are those of its largest s'), counting one
    summand per term before any arithmetic.  Every level holds a state and
    every state above level 1 costs at least 2 summands, so d > 500,000 is
    refused before any level is walked.

    The second pass goes up the levels, so every child is known before its
    parents.  At level d' it builds the vector G(d', 0..top) once, with top =
    min(max s', d' - 1) the last term any state of the level reads, and reads
    every state as the dot product of that vector with the binomial row
    C(s', 0..).  Each row is built once per distinct s', only as long as the
    highest level that holds s' needs, min(s', d' - 1) + 1 entries, so the
    rows together hold fewer entries than the summands counted and the root's
    s may be huge.
    """
    if 2 * d - 1 > MAX_RECURSION_SUMMANDS:
        raise _summand_limit(d, s)
    reach: defaultdict[int, dict[int, int]] = defaultdict(dict)
    reach[d][s] = 0
    levels: list[dict[int, int]] = []  # the states of each level, d first
    rows: dict[int, list[int]] = {}
    summands = 0
    for level in range(d, 0, -1):
        states = reach.pop(level)  # every level is reached, by steps of i = 1
        high = max(states)
        if high < level:  # every state t sums all its t + 1 terms
            summands += sum(states) + len(states)
        else:
            high = level - 1
            summands += sum(min(t, high) + 1 for t in states)
        if summands > MAX_RECURSION_SUMMANDS:
            raise _summand_limit(d, s)
        for i in range(1, high + 1):
            reach[level - i][i] = 0
        # every level reaches the states 1..high, so a state is new here when
        # it passes every earlier high, and level - i is then its highest level
        for i in range(len(rows) + 1, high + 1):
            rows[i] = binomial_row(i, min(i, level - i - 1))
        levels.append(states)
    rows[s] = binomial_row(s, min(s, d - 1))  # the root's level d is the highest

    levels.append({})
    levels.reverse()
    for level in range(1, d + 1):
        states = levels[level]
        top = min(max(states), level - 1)
        # one summand per choice of which x-variables vanish at the blow-up
        # center; the empty choice, C(t, 0) * G(level, 0), is the 1
        g = [1, *map(getitem, reversed(levels[level - top:level]), range(1, top + 1))]
        for t in states:
            # map stops at the shorter side: g ends at min(t, level - 1) when t's
            # row is longer than this level needs, and t's row when t < top
            states[t] = sum(map(mul, rows[t], g))
    return levels


def _summand_limit(d: int, s: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"the recursion for F({d},{s}) would add more than"
        f" {MAX_RECURSION_SUMMANDS:,} summands"
    )


def fg_rec(d: int, s: int) -> tuple[int, int]:
    """F(d, s) and G(d, s) from one evaluation of the recursion of ``f_rec``.

    G(d, s) = F(d - s, s) is the i = s term of the recursion for F(d, s), so
    for 1 <= s <= d - 1 its state lies in the table that F(d, s) builds; G is
    1 at s = 0 and 0 for s >= d.  Same values and budget as ``f_rec`` and
    ``g_rec``, with the shared states evaluated once.
    """
    if d < 1:
        raise ValueError(f"fg_rec requires d >= 1, got d={d}")
    if s < 0:
        raise ValueError(f"fg_rec requires s >= 0, got s={s}")
    if s == 0:
        return 1, 1
    levels = _f_states(d, s)
    return levels[d][s], levels[d - s][s] if s < d else 0


def g_rec(d: int, s: int) -> int:
    """Number of exceptional divisors in the central fiber whose center is the
    deepest vanishing stratum a = x_1 = ... = x_s = 0, by reduction to ``f_rec``.

    Blowing up the deepest stratum leaves, in the one chart that still meets it,
    the same family with d lowered to d - s; divisors met in the other charts
    sit over shallower strata and are not counted here.  G(d, 0) = 1.
    """
    if d < 1:
        raise ValueError(f"g_rec requires d >= 1, got d={d}")
    if s < 0:
        raise ValueError(f"g_rec requires s >= 0, got s={s}")
    if s == 0:
        return 1
    return f_rec(d - s, s)


def g_closed(d: int, s: int) -> int:
    """Closed form of ``g_rec``: C(d - 1, s)."""
    if d < 1:
        raise ValueError(f"g_closed requires d >= 1, got d={d}")
    if s < 0:
        raise ValueError(f"g_closed requires s >= 0, got s={s}")
    return binomial(d - 1, s)


def f_closed(d: int, s: int) -> int:
    """Closed form of ``f_rec``: C(d + s - 1, s)."""
    if d < 1:
        raise ValueError(f"f_closed requires d >= 1, got d={d}")
    if s < 0:
        raise ValueError(f"f_closed requires s >= 0, got s={s}")
    return binomial(d + s - 1, s)


def f_multi(dbar: tuple[int, ...], s: int) -> int:
    """Components over lambda = 0 for the multi-exponent model
    a_1^{d_1} ... a_k^{d_k} = lambda * x_1 ... x_s.

    Resolving the singularities along a_1 = 0, then a_2 = 0, and so on splits
    the count into one summand per exponent, so the total is sum_i F(d_i, s),
    each by its closed form.
    """
    dbar = tuple(dbar)
    if not dbar:
        raise ValueError("f_multi requires a nonempty exponent list")
    if any(d < 1 for d in dbar):
        raise ValueError(f"f_multi exponents must be positive, got {dbar}")
    return sum(f_closed(d, s) for d in dbar)


# ---------------------------------------------------------------------------
# chart rewriting


class ChartType(NamedTuple):
    """Local model of the rewriting: a_1^{d_1} ... a_k^{d_k} = lambda * x_1 ... x_s.

    ``dbar`` lists the exponents of the a-variables (possibly empty); ``s``
    counts the x-variables.  Charts with no a-variables or no x-variables are
    smooth, hence terminal.  The weight (s, sum(dbar)), compared
    lexicographically, decreases strictly under every rewriting step.  Charts are
    checked only where they enter ``resolution_trace`` or ``chart_children``.
    """

    dbar: tuple[int, ...]
    s: int

    def weight(self) -> tuple[int, int]:
        return (self.s, sum(self.dbar))

    @property
    def is_terminal(self) -> bool:
        return not self.dbar or self.s == 0

    def __str__(self) -> str:
        return f"L(({', '.join(map(str, self.dbar))}); s={self.s})"


class ChartEdge(NamedTuple):
    stratum: str
    label: str
    child: ChartType


def _blow_up(dbar: tuple[int, ...], s: int) -> tuple[int, ChartType, ChartType]:
    """The rewriting rule on a non-terminal chart: the center size m, the
    a_1 != 0 chart and the (isomorphic) x_i != 0 charts."""
    d1 = dbar[0]
    m = min(d1, s)
    rest = d1 - m
    if rest:
        return m, ChartType((rest,) + dbar[1:], s), ChartType(dbar + (rest,), s - 1)
    return m, ChartType(dbar[1:], s), ChartType(dbar, s - 1)


_A_LABELS = ("a1 != 0",)


def _center(m: int) -> tuple[str, tuple[str, ...]]:
    """The blow-up center {a_1 = x_1 = ... = x_m = 0} and the labels of its x-charts."""
    stratum = "a1 = " + " = ".join(f"x{i}" for i in range(1, m + 1)) + " = 0"
    return stratum, tuple(f"x{i} != 0" for i in range(1, m + 1))


def chart_children(chart: ChartType) -> list[ChartEdge]:
    """One blow-up step applied to a non-terminal chart, one edge per chart of
    the blow-up (a thin wrapper over the rule that ``resolution_trace`` uses).

    The center is {a_1 = x_1 = ... = x_m = 0} with m = min(d_1, s), and the
    blow-up is covered by m + 1 charts.  In the chart a_1 != 0 the exponent d_1
    drops to d_1 - m and the x-variables survive; in each chart x_i != 0
    (i = 1..m) one x-variable is consumed and an a-variable with exponent
    d_1 - m appears.  Exponents that reach zero are removed, so for d_1 < s the
    a-chart loses a_1 entirely and the x-charts keep dbar unchanged.  Every
    child weight is strictly smaller than the parent weight.
    """
    chart = ChartType(tuple(chart.dbar), chart.s)
    if chart.dbar and min(chart.dbar) < 1:
        raise ValueError(f"chart exponents must be positive, got {chart.dbar}")
    if chart.s < 0:
        raise ValueError(f"chart requires s >= 0, got s={chart.s}")
    if chart.is_terminal:
        raise ValueError(f"chart {chart} is terminal (smooth); there is nothing to blow up")
    m, a_child, x_child = _blow_up(*chart)
    stratum, x_labels = _center(m)
    edges = [ChartEdge(stratum, _A_LABELS[0], a_child)]
    edges.extend(ChartEdge(stratum, label, x_child) for label in x_labels)
    return edges


class TraceEdge(NamedTuple):
    """One grouped blow-up step: the chart labels that lead to ``node`` (every
    x_i != 0 chart of one blow-up leads to the same child, so the labels are
    the multiplicity) and the blow-up center."""

    stratum: str
    charts: tuple[str, ...]
    node: TraceNode


class TraceNode(NamedTuple):
    """The single node of a trace for ``chart``.  Its edges point at the shared
    nodes of the child charts, the a_1 != 0 chart first."""

    chart: ChartType
    edges: tuple[TraceEdge, ...]


@dataclass(frozen=True)
class ResolutionTrace:
    """The rewriting grown from one starting chart, stored as a DAG with one
    node per distinct chart (hash-consing).

    The rewriting tree records one node per distinct child chart of every
    blow-up: the a_1 != 0 chart, and one node for the x_i != 0 charts, which
    are pairwise isomorphic by construction.  That tree repeats identical
    subtrees many times over, so the trace keeps each chart once and lets
    every edge point at the shared node of its child; the edge keeps its chart
    labels, so the multiplicity is preserved.

    ``node_count`` is the size of the tree, not of the DAG: the number of
    nodes the rewriting would record if every shared subtree were copied
    out.  ``nodes`` holds each distinct chart once, the root first and every
    parent before its children.  The iterators yield each distinct node or
    edge once; since the weight decrease and terminality are properties of a
    chart and its children, checking them there checks the whole tree.
    """

    nodes: tuple[TraceNode, ...]
    node_count: int

    @property
    def root(self) -> TraceNode:
        return self.nodes[0]

    def iter_nodes(self) -> Iterator[TraceNode]:
        return iter(self.nodes)

    def iter_edges(self) -> Iterator[tuple[TraceNode, TraceEdge]]:
        for node in self.nodes:
            for edge in node.edges:
                yield node, edge

    def leaves(self) -> Iterator[TraceNode]:
        for node in self.nodes:
            if not node.edges:
                yield node

    def to_json_dict(self) -> dict:
        """``node_count`` (the tree size), then the distinct charts as ``nodes``
        (``id`` is the position, the root has id 0) and the grouped blow-up
        steps as ``edges`` between node ids, ``charts`` giving the multiplicity."""
        # keyed by identity: every edge points at the shared node of its chart
        ids = {id(node): index for index, node in enumerate(self.nodes)}
        return {
            "node_count": self.node_count,
            "nodes": [
                {
                    "id": index,
                    "dbar": list(node.chart.dbar),
                    "s": node.chart.s,
                    "weight": list(node.chart.weight()),
                }
                for index, node in enumerate(self.nodes)
            ],
            "edges": [
                {
                    "parent": ids[id(node)],
                    "child": ids[id(edge.node)],
                    "stratum": edge.stratum,
                    "charts": list(edge.charts),
                }
                for node, edge in self.iter_edges()
            ],
        }

    def to_dot(self) -> str:
        """One box per distinct chart and one arrow per grouped blow-up step,
        labelled with its charts and its center."""
        lines = ["digraph resolution_trace {", "  node [shape=box];"]
        ids = {id(node): index for index, node in enumerate(self.nodes)}
        for index, node in enumerate(self.nodes):
            dbar = ",".join(map(str, node.chart.dbar))
            weight = node.chart.weight()
            lines.append(
                f'  n{index} [label="dbar=({dbar}) s={node.chart.s}\\n'
                f'w=({weight[0]},{weight[1]})"];'
            )
        for node, edge in self.iter_edges():
            label = ", ".join(edge.charts) + "\\n" + edge.stratum
            lines.append(f'  n{ids[id(node)]} -> n{ids[id(edge.node)]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def resolution_trace(chart: ChartType, node_limit: int = 1_000_000) -> ResolutionTrace:
    """Run the rewriting to completion from ``chart``, recording every blow-up.

    One depth-first pass over the charts, which are the walk's keys, expands
    each distinct chart once, the x_i != 0 chart before the a_1 != 0 chart,
    and sums the tree size of each chart as it closes, after its children.
    ``node_limit`` bounds the tree size: the build fails with
    ``BudgetExceeded`` at the first subtree that holds more than
    ``node_limit`` nodes, before the rest is expanded.  It fails the same way
    once the expanded charts would store more than ``MAX_TRACE_CELLS`` cells,
    charged ``len(dbar) + m + 2`` per expanded chart with a center of size m
    and ``len(dbar) + 1`` per terminal chart, which bounds the memory of long
    exponent lists.  The nodes are then assembled in increasing weight
    (pre-order among equal weights), so every child node exists before its
    parents.  Since the weights decrease strictly, the rewriting always ends;
    the budgets bound the work, not a termination bug.
    """
    chart = ChartType(tuple(chart.dbar), chart.s)
    if chart.dbar and min(chart.dbar) < 1:
        raise ValueError(f"chart exponents must be positive, got {chart.dbar}")
    if chart.s < 0:
        raise ValueError(f"chart requires s >= 0, got s={chart.s}")
    if node_limit < 1:
        raise ValueError(f"node_limit must be positive, got {node_limit}")

    # each distinct chart in pre-order, its blow-up step (None when terminal)
    # and, once closed, its tree size
    steps: dict[ChartType, tuple[int, ChartType, ChartType] | None] = {}
    sizes: dict[ChartType, int] = {}
    cells = 0
    pending = [chart]
    while pending:
        key = pending.pop()
        if key in sizes:
            continue
        if key in steps:  # met again only to close it, since no chart is its own descendant
            _, a_key, x_key = steps[key]
            size = sizes[key] = 1 + sizes[a_key] + sizes[x_key]
            if size > node_limit:
                raise BudgetExceeded(f"resolution trace from {chart} exceeded {node_limit} nodes")
            continue
        dbar, s = key
        # a chart stores len(dbar) + 1 cells, a blow-up step m + 1 more
        if dbar and s:
            m, a_key, x_key = steps[key] = _blow_up(dbar, s)
            pending += (key, a_key, x_key)  # close after both children, the x-chart first
            cells += len(dbar) + m + 2
        else:
            steps[key], sizes[key] = None, 1
            cells += len(dbar) + 1
        if cells > MAX_TRACE_CELLS:
            raise BudgetExceeded(
                f"resolution trace from {chart} would store more than {MAX_TRACE_CELLS:,} cells"
            )

    centers: dict[int, tuple[str, tuple[str, ...]]] = {}
    nodes: dict[ChartType, TraceNode] = {}
    for key in sorted(steps, key=ChartType.weight):
        step = steps[key]
        if step is None:
            nodes[key] = TraceNode(key, ())
            continue
        m, a_key, x_key = step
        if m not in centers:
            centers[m] = _center(m)
        stratum, x_labels = centers[m]
        edges = (
            TraceEdge(stratum, _A_LABELS, nodes[a_key]),
            TraceEdge(stratum, x_labels, nodes[x_key]),
        )
        nodes[key] = TraceNode(key, edges)
    return ResolutionTrace(tuple(reversed(nodes.values())), sizes[chart])
