"""Component counts for crepant resolutions of the local models

    a_1^{d_1} * ... * a_k^{d_k} = lambda * x_1 * ... * x_s,

viewed as families over the lambda-line.  The module provides the counting
functions F and G, by their mutual recursion (``fg_rec``, the recursion's one
entry point) and by closed binomial forms (``f_closed``, ``g_closed``), and a
chart-rewriting simulator of the blow-up procedure whose lexicographically
decreasing weight proves termination.
"""

from __future__ import annotations

from functools import partial
from operator import mul
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

# Tree nodes a resolution trace may hold unless told otherwise (``--node-limit``).
DEFAULT_NODE_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# counting functions


def fg_rec(d: int, s: int) -> tuple[int, int]:
    """F(d, s) and G(d, s), d >= 1 and s >= 0, by the mutual recursion

        F(d, s) = sum_{i=0}^{s} C(s, i) * G(d, i),   G(d, i) = F(d - i, i),

    with F = 0 at d <= 0.  This is the one evaluation of the recursion; its
    closed forms are ``f_closed`` and ``g_closed``.  F counts the irreducible
    components over lambda = 0 in a crepant resolution of
    a^d = lambda * x_1 * ... * x_s (exceptional divisors plus the strict
    transform of the central fiber), G the exceptional divisors whose center
    is the deepest stratum a = x_1 = ... = x_s = 0: blowing it up leaves, in
    the one chart that still meets it, the same family with d lowered to
    d - s.  F(d, 0) = G(d, 0) = 1 and G(d, s) = 0 for s >= d; otherwise G(d, s)
    is the i = s term for F(d, s), so its state lies in F's table.

    The levels d are evaluated bottom up, without Python recursion (see
    ``_fg_diagonals``); ``BudgetExceeded`` is raised when the recursion would
    add more than ``MAX_RECURSION_SUMMANDS`` summands, at once past d = 500,000.
    """
    _check_fg_arguments(d, s)
    if s == 0:
        return 1, 1
    return _fg_diagonals(d, s)


def _check_fg_arguments(d: int, s: int) -> None:
    """The domain of F and G, for the recursion and the closed forms alike."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")


def _fg_diagonals(d: int, s: int) -> tuple[int, int]:
    """F(d, s) and G(d, s) for d, s >= 1, over the states (d', s') the
    recursion reaches from (d, s).

    The state (d', s') needs G(d', i) = F(d' - i, i) for 1 <= i <= s', and only
    for i < d', since F vanishes at d' - i <= 0; G(d', 0) = 1.  So the level d'
    reads the states (d' - i, i) for i up to high = min(top, d' - 1), with top
    its largest s'.  Those states make up the diagonal d' (level plus s' equal
    to d'); every state but the root lies on one diagonal, reached from one
    level, and every level is reached, by steps of i = 1.

    A first pass walks the levels from d down to 1 and keeps one int per level,
    its top: the highest level that reaches a level reaches it with the
    largest i, and that level only falls as the walk goes down.  The pass
    counts the summands of the states each level reaches, min(i, d' - 1 - i)
    + 1 each, in closed form and before any arithmetic.  Every level holds a
    state and every state above level 1 costs at least 2 summands, so
    d > 500,000 is refused before any level is walked.  The binomial row
    C(i, 0..) is built once per distinct i, only as long as the highest level
    that holds i needs, min(i, d' - 1) + 1 entries, so the rows together hold
    fewer entries than the summands counted and the root's s may be huge.

    The second pass builds each diagonal d', going up, as the vector
    [1, G(d', 1), ..., G(d', high)] that the states of level d' read: its
    entry i is the row of i times the diagonal of level d' - i, built before
    it.  The diagonal of a level is dropped once the highest level that reaches
    it is built.  F(d, s) is the root's row times the diagonal d, and G(d, s)
    its entry s.
    """
    if 2 * d - 1 > MAX_RECURSION_SUMMANDS:
        raise _summand_limit(d, s)
    tops = [0] * (d + 1)  # per level: the largest s' reached there
    tops[d] = s
    reacher = d  # the highest level that reaches the current one
    rows = [[1]]  # C(i, 0..) for every i a level reads
    summands = min(s, d - 1) + 1  # the root's own terms
    for level in range(d, 0, -1):
        while reacher - tops[reacher] > level:
            reacher -= 1
        if reacher > level:  # the root's level keeps s
            tops[level] = reacher - level
        top = tops[level]
        high = top if top < level else level - 1
        # the states (level - i, i) cost i + 1 up to i = half, level - i after
        half = high if 2 * high < level else (level - 1) // 2
        summands += half * (half + 3) // 2 + (high - half) * (2 * level - 1 - high - half) // 2
        if summands > MAX_RECURSION_SUMMANDS:
            raise _summand_limit(d, s)
        if high >= len(rows):
            # a state is new here when it passes every earlier high, and
            # level - i is then its highest level
            rows += [binomial_row(i, min(i, level - i - 1)) for i in range(len(rows), high + 1)]

    diagonals: list[list[int] | None] = [None] * (d + 1)
    diagonals[1] = [1]  # G(1, i) = 0 for i >= 1
    dead = 1  # the diagonals below it are dropped
    for level in range(2, d + 1):
        top = tops[level]
        high = top if top < level else level - 1
        # map stops at the shorter side: the diagonal of level - i ends at its
        # high when i's row is longer than that state needs
        diagonal = diagonals[level] = [1]
        for i in range(1, high + 1):
            diagonal.append(sum(map(mul, rows[i], diagonals[level - i])))
        while dead + tops[dead] <= level:
            diagonals[dead] = None
            dead += 1
    last = diagonals[d]
    return sum(map(mul, binomial_row(s, min(s, d - 1)), last)), last[s] if s < d else 0


def _summand_limit(d: int, s: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"the recursion for F({d},{s}) would add more than"
        f" {MAX_RECURSION_SUMMANDS:,} summands"
    )


def g_closed(d: int, s: int) -> int:
    """Closed form of G, which ``fg_rec`` evaluates by recursion: C(d - 1, s)."""
    _check_fg_arguments(d, s)
    return binomial(d - 1, s)


def f_closed(d: int, s: int) -> int:
    """Closed form of F, which ``fg_rec`` evaluates by recursion: C(d + s - 1, s)."""
    _check_fg_arguments(d, s)
    return binomial(d + s - 1, s)


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


# ChartType((dbar, s)) without the generated __new__, a Python-level function;
# the rewriting builds every derived chart from checked ones this way
_chart = partial(tuple.__new__, ChartType)


def _blow_up(dbar: tuple[int, ...], s: int) -> tuple[int, ChartType, ChartType]:
    """The rewriting rule on a non-terminal chart: the center size m, the
    a_1 != 0 chart and the (isomorphic) x_i != 0 charts."""
    d1 = dbar[0]
    m = s if s < d1 else d1
    rest = d1 - m
    if rest:
        return m, _chart(((rest,) + dbar[1:], s)), _chart((dbar + (rest,), s - 1))
    return m, _chart((dbar[1:], s)), _chart((dbar, s - 1))


_A_LABELS = ("a1 != 0",)


def _center(m: int) -> tuple[str, tuple[str, ...]]:
    """The blow-up center {a_1 = x_1 = ... = x_m = 0} and the labels of its x-charts."""
    stratum = "a1 = " + " = ".join(f"x{i}" for i in range(1, m + 1)) + " = 0"
    return stratum, tuple(f"x{i} != 0" for i in range(1, m + 1))


def _entering(chart: ChartType) -> ChartType:
    """A chart given from outside, checked: its ``dbar`` made a tuple, its
    exponents positive and s >= 0."""
    chart = ChartType(tuple(chart.dbar), chart.s)
    if chart.dbar and min(chart.dbar) < 1:
        raise ValueError(f"chart exponents must be positive, got {chart.dbar}")
    if chart.s < 0:
        raise ValueError(f"chart requires s >= 0, got s={chart.s}")
    return chart


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
    chart = _entering(chart)
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


# TraceNode((chart, edges)) and TraceEdge((stratum, charts, node)) without the
# generated __new__, for the nodes the trace assembles
_node = partial(tuple.__new__, TraceNode)
_edge = partial(tuple.__new__, TraceEdge)


class ResolutionTrace(NamedTuple):
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
    out.  ``nodes`` holds each distinct chart once, in the reverse of the
    order in which the depth-first walk of ``resolution_trace``, x-chart
    first, closes their subtrees: the root first and every parent before its
    children.  The iterators yield each distinct node or edge once; since the
    weight decrease and terminality are properties of a chart and its
    children, checking them there checks the whole tree.
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


def resolution_trace(chart: ChartType, node_limit: int = DEFAULT_NODE_LIMIT) -> ResolutionTrace:
    """Run the rewriting to completion from ``chart``, recording every blow-up.

    One depth-first pass expands each distinct chart once, the x_i != 0 chart
    before the a_1 != 0 chart, and sums the tree size of each chart as it
    closes, after its children.  A chart is hashed once, when it is first
    seen, and gets an integer id; the walk runs on ids, over plain lists of
    blow-up steps and tree sizes.  ``node_limit`` bounds the tree size: the
    walk keeps a lower bound on it, the distinct charts seen (each is at least
    one tree node) plus the tree size of each closed subtree met again (a
    copy the tree holds besides the first), and the build fails with
    ``BudgetExceeded`` once that bound passes ``node_limit``, before the rest
    is expanded.  Every subtree that closes is counted in the bound, and once
    the walk ends the bound is the tree size.  It fails the same way once the
    expanded charts would store more than ``MAX_TRACE_CELLS`` cells, charged
    ``len(dbar) + m + 2`` per expanded chart with a center of size m and
    ``len(dbar) + 1`` per terminal chart, which bounds the memory of long
    exponent lists.

    A chain closes no subtree before its bottom, so two checks run first.  The
    a-chart keeps s and takes s off its first exponent, or drops it, so its
    chain runs sum_t ceil(d_t / s) levels, and the x-chart chain runs s
    levels; each level adds its node and a sibling, so a non-terminal chart's
    tree has at least lower = 2 * max(s, sum_t ceil(d_t / s)) + 1 nodes, a
    terminal chart's 1.  The starting chart is refused when its own lower
    passes the limit.  Then its x-chart chain, the walk's first descent, is
    followed: per level, its node plus the lower of its a-chart, and its cells
    plus those of the a-chart's chain, each of whose charts stores its
    exponents and at least 3 more.  The chain lowers s by one per level and an
    a-chart chain keeps it, so these charts are distinct and the sums are
    lower bounds.  The cells are checked at every level and the nodes only at
    the chain's bottom, so where both sums pass, the cell error is raised, as
    the walk raises it for long exponent lists.  ``L((400000); s=2)``, whose
    x-chart runs an a-chart chain of 799,998 levels, is refused at once, and
    the chain costs at most the cells the walk would charge for it.

    The nodes are then assembled in the order the charts closed, so every
    child node exists before its parents, and listed in reverse: the root
    first and every parent before its children.  Since the weights decrease
    strictly, the rewriting always ends; the budgets bound the work, not a
    termination bug.
    """
    chart = _entering(chart)
    if node_limit < 1:
        raise ValueError(f"node_limit must be positive, got {node_limit}")

    def exceeded() -> BudgetExceeded:
        return BudgetExceeded(f"resolution trace from {chart} exceeded {node_limit} nodes")

    def too_many_cells() -> BudgetExceeded:
        return BudgetExceeded(
            f"resolution trace from {chart} would store more than {MAX_TRACE_CELLS:,} cells"
        )

    # the x-chart chain runs s levels and the a-chart chain sum_t ceil(d_t / s),
    # each level adding its node and a sibling: a chain too long is refused unwalked
    dbar, s = chart
    if dbar and s and 2 * max(s, sum(-(-d // s) for d in dbar)) + 1 > node_limit:
        raise exceeded()
    # down the x-chart chain: per level its node and the lower bound of its
    # a-chart's tree, its cells and those of the a-chart's chain; the bottom
    # stores at least one cell
    nodes = cells = 1
    while dbar and s:
        m, (a_dbar, _), x_chart = _blow_up(dbar, s)
        cells += len(dbar) + m + 3
        if a_dbar:
            # per exponent, the levels of the a-chart chain, each storing the
            # exponents left and 3 more
            levels = [-(-d // s) for d in a_dbar]
            nodes += 2 + 2 * max(s, sum(levels))
            cells += sum(map(mul, levels, range(len(levels) + 3, 3, -1)))
        else:
            nodes += 2
        if cells > MAX_TRACE_CELLS:
            raise too_many_cells()
        dbar, s = x_chart
    if nodes > node_limit:
        raise exceeded()

    # per id: the chart, its blow-up step (None when terminal or not yet
    # expanded) and its tree size (0 until closed); the ids in close order
    ids = {chart: 0}
    charts = [chart]
    steps: list[tuple[int, int, int] | None] = [None]
    sizes = [0]
    closed: list[int] = []
    # the lower bound on the tree size is len(charts) plus the tree sizes of
    # the closed subtrees met again, and room is node_limit less the latter
    room = node_limit
    cells = 0
    pending = [0]
    pop = pending.pop
    while pending:
        i = pop()
        size = sizes[i]
        if size:  # a closed subtree met again
            room -= size
            if len(charts) > room:
                raise exceeded()
            continue
        step = steps[i]
        if step:  # met again only to close it, since no chart is its own descendant
            _, a, x = step
            sizes[i] = 1 + sizes[a] + sizes[x]
            closed.append(i)
            continue
        dbar, s = charts[i]
        # a chart stores len(dbar) + 1 cells, a blow-up step m + 1 more
        if dbar and s:
            m, a_chart, x_chart = _blow_up(dbar, s)
            # a new id comes from len(), whose ints are smaller than those of n + 1
            n = len(charts)
            a = ids.setdefault(a_chart, n)
            if a == n:
                charts.append(a_chart)
                steps.append(None)
                sizes.append(0)
                n = len(charts)
            x = ids.setdefault(x_chart, n)
            if x == n:
                charts.append(x_chart)
                steps.append(None)
                sizes.append(0)
            if len(charts) > room:
                raise exceeded()
            steps[i] = (m, a, x)
            pending += (i, a, x)  # close after both children, the x-chart first
            cells += len(dbar) + m + 2
        else:
            sizes[i] = 1
            closed.append(i)
            cells += len(dbar) + 1
        if cells > MAX_TRACE_CELLS:
            raise too_many_cells()
    node_count = sizes[0]
    del ids, sizes

    centers: dict[int, tuple[str, tuple[str, ...]]] = {}
    nodes: list = steps  # each step gives way to its node, built after its children's
    for i in closed:
        step = nodes[i]
        if step is None:
            nodes[i] = _node((charts[i], ()))
            continue
        m, a, x = step
        center = centers.get(m)
        if center is None:
            center = centers[m] = _center(m)
        stratum, x_labels = center
        edges = (_edge((stratum, _A_LABELS, nodes[a])), _edge((stratum, x_labels, nodes[x])))
        nodes[i] = _node((charts[i], edges))
    return ResolutionTrace(tuple(map(nodes.__getitem__, reversed(closed))), node_count)
