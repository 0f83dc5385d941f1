"""Component counts for crepant resolutions of the local models

    a_1^{d_1} * ... * a_k^{d_k} = lambda * x_1 * ... * x_s,

viewed as families over the lambda-line.  The module provides the counting
functions F and G (mutual recursion and closed binomial forms), their
multi-exponent sum, and a chart-rewriting simulator of the blow-up procedure
whose lexicographically decreasing weight proves termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .exactmath import binomial


class NodeLimitExceeded(RuntimeError):
    """Raised when a resolution trace would grow past its node budget."""


class SummandLimitExceeded(RuntimeError):
    """Raised when the recursion for F would add more summands than its budget."""


# Summands the recursion for F may add in one evaluation: (300, 300) needs
# about 0.8M, (400, 400) about 1.9M.
MAX_RECURSION_SUMMANDS = 1_000_000


# ---------------------------------------------------------------------------
# counting functions


def f_rec(d: int, s: int) -> int:
    """Number of irreducible components over lambda = 0 in a crepant resolution
    of a^d = lambda * x_1 * ... * x_s (exceptional divisors plus the strict
    transform of the central fiber), by the mutual recursion with ``g_rec``:

        F(d, s) = sum_{i=0}^{s} C(s, i) * G(d, i),   G(d, i) = F(d - i, i).

    Conventions: 0 whenever d <= 0, and 1 when s = 0 (the hypersurface is
    already smooth, its central fiber irreducible).  The recursion is evaluated
    without Python recursion (see ``_f_positive``), and raises
    ``SummandLimitExceeded`` when it would add more than
    ``MAX_RECURSION_SUMMANDS`` summands.
    """
    if s < 0:
        raise ValueError(f"f_rec requires s >= 0, got s={s}")
    if d <= 0:
        return 0
    return _f_positive(d, s)


def _f_positive(d: int, s: int) -> int:
    """F(d, s) for d >= 1, bottom-up over the states the recursion reaches.

    The state (d', s') needs G(d', i) = F(d' - i, i) for 1 <= i <= s', and only
    for i < d', since F vanishes at d' - i <= 0; G(d', 0) = 1.  A first pass
    walks the levels d' from d down to 1 and collects the reachable s' of each
    level (the children of a level are those of its largest s'), counting one
    summand per term before any arithmetic; a second pass evaluates the states
    in increasing d', so every child is known before its parents.
    """
    if s == 0:
        return 1
    reach: dict[int, set[int]] = {d: {s}}
    levels: list[tuple[int, set[int]]] = []
    summands = 0
    for level in range(d, 0, -1):
        states = reach.pop(level)  # every level is reached, by steps of i = 1
        summands += sum(min(t, level - 1) + 1 for t in states)
        if summands > MAX_RECURSION_SUMMANDS:
            raise SummandLimitExceeded(
                f"the recursion for F({d},{s}) would add more than"
                f" {MAX_RECURSION_SUMMANDS:,} summands"
            )
        for i in range(1, min(max(states), level - 1) + 1):
            reach.setdefault(level - i, set()).add(i)
        levels.append((level, states))

    value: dict[tuple[int, int], int] = {}
    for level, states in reversed(levels):
        for t in states:
            # one summand per choice of which x-variables vanish at the blow-up
            # center; the empty choice, C(t, 0) * G(level, 0), is the 1
            top = min(t, level - 1)
            value[level, t] = 1 + sum(
                binomial(t, i) * value[level - i, i] for i in range(1, top + 1)
            )
    return value[d, s]


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


@dataclass(frozen=True)
class ChartType:
    """Local model of the rewriting: a_1^{d_1} ... a_k^{d_k} = lambda * x_1 ... x_s.

    ``dbar`` lists the exponents of the a-variables (possibly empty); ``s``
    counts the x-variables.  Charts with no a-variables or no x-variables are
    smooth, hence terminal.  The weight (s, sum(dbar)), compared
    lexicographically, decreases strictly under every rewriting step.
    """

    dbar: tuple[int, ...]
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dbar", tuple(self.dbar))
        if any(d < 1 for d in self.dbar):
            raise ValueError(f"chart exponents must be positive, got {self.dbar}")
        if self.s < 0:
            raise ValueError(f"chart requires s >= 0, got s={self.s}")

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


def _nonzero(exponents: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(d for d in exponents if d)


def chart_children(chart: ChartType) -> list[ChartEdge]:
    """One blow-up step applied to a non-terminal chart.

    The center is {a_1 = x_1 = ... = x_m = 0} with m = min(d_1, s), and the
    blow-up is covered by m + 1 charts.  In the chart a_1 != 0 the exponent d_1
    drops to d_1 - m and the x-variables survive; in each chart x_i != 0
    (i = 1..m) one x-variable is consumed and an a-variable with exponent
    d_1 - m appears.  Exponents that reach zero are removed, so for d_1 < s the
    a-chart loses a_1 entirely and the x-charts keep dbar unchanged.  Every
    child weight is strictly smaller than the parent weight.
    """
    if chart.is_terminal:
        raise ValueError(f"chart {chart} is terminal (smooth); there is nothing to blow up")
    d1, rest = chart.dbar[0], chart.dbar[1:]
    m = min(d1, chart.s)
    stratum = "a1 = " + " = ".join(f"x{i}" for i in range(1, m + 1)) + " = 0"
    a_child = ChartType(_nonzero((d1 - m,) + rest), chart.s)
    x_child = ChartType(_nonzero(chart.dbar + (d1 - m,)), chart.s - 1)
    edges = [ChartEdge(stratum, "a1 != 0", a_child)]
    edges.extend(ChartEdge(stratum, f"x{i} != 0", x_child) for i in range(1, m + 1))
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
        ids = {node.chart: index for index, node in enumerate(self.nodes)}
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
                    "parent": ids[node.chart],
                    "child": ids[edge.node.chart],
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
        ids = {node.chart: index for index, node in enumerate(self.nodes)}
        for index, node in enumerate(self.nodes):
            dbar = ",".join(map(str, node.chart.dbar))
            weight = node.chart.weight()
            lines.append(
                f'  n{index} [label="dbar=({dbar}) s={node.chart.s}\\n'
                f'w=({weight[0]},{weight[1]})"];'
            )
        for node, edge in self.iter_edges():
            label = ", ".join(edge.charts) + "\\n" + edge.stratum
            lines.append(f'  n{ids[node.chart]} -> n{ids[edge.node.chart]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def resolution_trace(chart: ChartType, node_limit: int = 1_000_000) -> ResolutionTrace:
    """Run the rewriting to completion from ``chart``, recording every blow-up.

    Each distinct chart is expanded once, and the trace is assembled in
    increasing weight, so every child node exists before its parents; the
    tree size of each chart is memoised on the way.  ``node_limit`` bounds
    the tree size: the build fails with ``NodeLimitExceeded`` as soon as the
    distinct charts alone pass it, or a chart's tree would hold more than
    ``node_limit`` nodes.  Since the weights decrease strictly, the rewriting
    always ends; the limit bounds the work, not a termination bug.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be positive, got {node_limit}")

    def exceeded() -> NodeLimitExceeded:
        return NodeLimitExceeded(f"resolution trace from {chart} exceeded {node_limit} nodes")

    # each distinct chart with its blow-up center and its children, grouped
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
