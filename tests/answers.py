"""Every command line the CLI answers, one row each.

A row gives the line (its words split at spaces), the exit code (0, or 1 for a
failed verification) and the digest of what the line prints: the first 16 hex
digits of the sha256 of ``repr((exit, stdout, stderr))`` at 80 columns.
``test_answers.py`` runs every row through ``fanolg.cli.main``.  It requires
the row's exit code, an empty stderr, the row's digest and the same output
from the full parser, each within ``seconds`` of wall time where the row gives
it, and it checks each JSON payload, and each CSV row, against a second route
to its values.  It also requires a row for every view of every command, a
JSON twin for every other view of a command that has a JSON view, and a row
for every line of the README's command-line block.  A row that gives
``address_space`` (a cap in bytes) or ``peak`` (a tracemalloc peak in bytes)
also runs in a fresh interpreter under that cap, and must keep its digest,
``seconds`` and ``peak`` there, which ``test_bounds.py`` checks for these
rows and those of ``refusals.py``.  The refused lines are the rows of
``refusals.py``.

Below the table are the helpers that read its rows: ``digest``, which defines
the digest column, ``run`` and ``run_both_parsers``, which run a line,
``stringify``, the reference for the JSON payloads, and ``recursive_trace``,
the oracle for the ``resolve-trace`` payloads, which ``test_resolution.py``
compares with ``resolution_trace`` too.
"""

import hashlib
import time
from typing import NamedTuple

from fanolg import (
    BudgetExceeded,
    ChartType,
    ResolutionTrace,
    TraceEdge,
    TraceNode,
    chart_children,
    cli,
)

QUADRICS = ",".join(["2"] * 20)


class Answer(NamedTuple):
    line: str
    code: int
    digest: str
    seconds: float | None = None
    address_space: int | None = None
    peak: int | None = None


ANSWERS = [
    # the cubic threefold: h = 5, in each view of each command that takes it
    Answer("hodge --dim 3 --degrees 3", 0, "e5057ed5db91cc38"),
    Answer("hodge --dim 3 --degrees 3 --format text", 0, "e5057ed5db91cc38"),
    Answer("hodge --dim 3 --degrees 3 --format json", 0, "ff2d1da2e82bd45a"),
    Answer("klg --dim 3 --degrees 3", 0, "14ab69f93e25ffd1"),
    Answer("klg --dim 3 --degrees 3 --format json", 0, "de104ea4502d56fb"),
    Answer("klg --dim 3 --degrees 3 --strata", 0, "e308daa4fcdb6010"),
    Answer("klg --dim 3 --degrees 3 --strata --format json", 0, "e655fa36f31c7311"),
    Answer("verify --dim 3 --degrees 3", 0, "cc018671566938e7"),
    Answer("verify --dim 3 --degrees 3 --format text", 0, "cc018671566938e7"),
    Answer("verify --dim 3 --degrees 3 --format json", 0, "581ce3f461aa3631"),
    Answer("periods --dim 3 --degrees 3", 0, "1697b4f4bb2be9f9"),
    Answer("periods --dim 3 --degrees 3 --format text", 0, "1697b4f4bb2be9f9"),
    Answer("periods --dim 3 --degrees 3 --format json", 0, "c277ff83643bcc2c"),
    # from dim 11 on, the h-labels outgrow "complete intersection"
    Answer("hodge --dim 12 --degrees 2,3", 0, "e2208823ddbc20de"),
    Answer("hodge --dim 12 --degrees 2,3 --format json", 0, "119b0f3fdf40c7b4"),
    Answer("hodge --dim 20 --degrees 2,3", 0, "4ee7530c923e0545"),
    Answer("hodge --dim 20 --degrees 2,3 --format json", 0, "7f4f0b4f65ba432b"),
    Answer("hodge --dim 1001 --degrees 2,3", 0, "210081801910c85d"),
    Answer("hodge --dim 1001 --degrees 2,3 --format json", 0, "1c6819a6f3877352"),
    Answer("hodge --dim 4 --degrees 2,2 --format json", 0, "9e5c86f16d74c39d"),
    # no quadric runs a mask loop, so twenty of them are charged nothing:
    # h = 779 in dimension 20, 0 in dimension 30
    *[
        Answer(f"{command} --dim {dim} --degrees {QUADRICS} --format json", 0, digest)
        for command, dim, digest in (
            ("hodge", 20, "2cd8367844900dce"),
            ("hodge", 30, "8c22c3a7a3f14425"),
            ("verify", 20, "a54470911c7588bb"),
            ("verify", 30, "7b201861f5d85b36"),
        )
    ],
    # h and k_LG past 2**53, the integers a JSON number keeps in most readers
    Answer("hodge --dim 30 --degrees 31 --format json", 0, "b1c09078f88f627c"),
    Answer("klg --dim 30 --degrees 31 --strata --format json", 0, "953f5a727e3ff3c8"),
    Answer("verify --dim 30 --degrees 31 --format json", 0, "afe4fe0d08092782"),
    Answer("klg --dim 4 --degrees 2,3 --strata", 0, "06a4138d97c3cab3"),
    Answer("klg --dim 4 --degrees 2,3 --strata --format json", 0, "73ab2cb60b6f813c"),
    # the cubic surface: k_LG = 6 from one stratum, h = 7 with the hyperplane class
    Answer("klg --dim 2 --degrees 3 --format json", 0, "839a10f97f3297d1"),
    Answer("klg --dim 2 --degrees 3 --format json --strata", 0, "ad4a5997e9f144a3"),
    Answer("verify --dim 2 --degrees 3", 0, "f06d5b405c94799c"),
    Answer("verify --dim 2 --degrees 3 --format json", 0, "7bd5ac0c3416c68d"),
    # no stratum carries a divisor
    Answer("klg --dim 3 --degrees 2 --strata --format json", 0, "279fe800b015e04b"),
    Answer("verify --dim 4 --degrees 2,2", 0, "bbc6f869fdb0e21e"),
    Answer("verify --dim 4 --degrees 2,2 --format json", 0, "58a900726f794141"),
    # whole rows C(d, 0..d - 1) at these degrees took seconds and then passed
    # the cap: index 200,002 lists no label, so no binomial row is built, and
    # the one stratum (899999, 900000 | j = 2, i = (0, 0)) reads only C(d, 0)
    Answer("verify --dim 400000 --degrees 200000", 0, "d400b9cdf48038c6",
           seconds=1, address_space=2**30),
    Answer("verify --dim 400000 --degrees 200000 --format json", 0, "8a7cbcb02849eeac"),
    Answer("verify --dim 2699996 --degrees 899999,900000", 0, "3f1b3d097b15a470",
           seconds=1, address_space=2**30),
    Answer("verify --dim 2699996 --degrees 899999,900000 --format json", 0, "d92988a60024b8e6"),
    # the default order is 3 * index
    Answer("periods --dim 3 --degrees 2", 0, "ef90fd325810396a"),
    Answer("periods --dim 3 --degrees 2 --format json", 0, "09427fd22d7618f6"),
    Answer("periods --dim 3 --degrees 2 --order 9", 0, "ef90fd325810396a"),
    Answer("periods --dim 3 --degrees 2 --order 9 --format json", 0, "09427fd22d7618f6"),
    Answer("periods --dim 4 --degrees 2,2", 0, "b6ce4f006e6cb527"),
    Answer("periods --dim 4 --degrees 2,2 --format json", 0, "d3b88dd0b43d0727"),
    # recorded while order 0 still built f
    Answer("periods --dim 3 --degrees 3 --order 0", 0, "ea4b92084a2d75d6"),
    Answer("periods --dim 3 --degrees 3 --order 0 --format json", 0, "7fb16433be1a7d16"),
    Answer("periods --dim 3 --degrees 3 --order 4 --format json", 0, "3debc530574c806b"),
    # f would have C(23, 11) + 1 = 1,352,079 terms, and building it took
    # seconds and hundreds of MB; the constant term of f^0 is 1 regardless
    Answer("periods --dim 12 --degrees 12 --order 0", 0, "ae59192726d727a9",
           seconds=1, address_space=2**29),
    Answer("periods --dim 12 --degrees 12 --order 0 --format json", 0, "2786e2197c5ce4ac"),
    # 1,000 variables, 999 of them interchangeable: the orbit search once
    # rebuilt every term through a full permutation per swap, about a minute
    Answer("periods --dim 1000 --degrees 2 --order 1 --format json", 0, "b161eb9ac781faa8",
           seconds=5, address_space=2**29),
    # constant terms past 2**53
    Answer("periods --dim 3 --degrees 3 --order 20", 0, "5c40d3cbb462aa0a"),
    Answer("periods --dim 3 --degrees 3 --order 20 --format json", 0, "93fd763c32fc95be"),
    Answer("fg --d 3 --s 2", 0, "a5ef0a879d21a35d"),
    Answer("fg --d 3 --s 2 --format json", 0, "6f343df13c41cc21"),
    Answer("fg --d 5 --s 1 --format json", 0, "613fc915536db4c4"),
    # one state per level of d, far past Python's recursion limit
    Answer("fg --d 3000 --s 1", 0, "3aff95f692e2c93d"),
    Answer("fg --d 3000 --s 1 --format json", 0, "dad8672c1aaea1ea"),
    # 499,999 levels of one state each: the cap holds a few of their vectors
    # at a time, not one container per level
    Answer("fg --d 499999 --s 1 --format json", 0, "5b65fa9fdef8529b", address_space=2**27),
    Answer("fg --d 10 --s 100000000 --format json", 0, "121e372ed61ab12a"),
    # F(120, 120) past 2**53
    Answer("fg --d 120 --s 120 --format json", 0, "308a774465767a36"),
    # about 0.8M summands, under the budget of 1M
    Answer("fg --d 300 --s 300 --format json", 0, "3caa4b4369d0d33a", peak=6 * 2**20),
    Answer("resolve-trace --dbar 3 --s 1", 0, "8ec1cc075d855912"),
    Answer("resolve-trace --dbar 2,2 --s 2", 0, "c959f8cbf94286f1"),
    Answer("resolve-trace --dbar 2,2 --s 2 --format dot", 0, "1b59d216cac69ee6"),
    Answer("resolve-trace --dbar 3,2 --s 2", 0, "f0da92095dd3f7ec"),
    Answer("resolve-trace --dbar 3,2 --s 2 --format dot", 0, "3d3091b2cdb9b7dc"),
    # 679 distinct charts, 7,231 tree nodes; a limit one below is a refusal
    Answer("resolve-trace --dbar 6,6,6 --s 6", 0, "299fc6866a05bc16"),
    Answer("resolve-trace --dbar 6,6,6 --s 6 --format dot", 0, "3ea935dde604ed88"),
    Answer("resolve-trace --dbar 6,6,6 --s 6 --node-limit 7231", 0, "299fc6866a05bc16"),
    Answer("sweep --max-dim 4 --max-k 2 --max-degree 3", 0, "241e7991a0f9fe26"),
    Answer("sweep --max-dim 5 --max-k 2 --max-degree 4", 0, "260f5b7b3cc04553"),
    Answer("sweep --max-dim 8 --max-k 3 --max-degree 6", 0, "3ace3f88064e5299"),
    # 9 rows, out of about 4.8 * 10^12 nondecreasing tuples of up to 14
    # degrees in [2, 40]: the listing must not walk them
    Answer("sweep --max-dim 3 --max-k 14 --max-degree 40", 0, "832c1db4306e08a4", seconds=1),
    # k degrees of at least 2 need k <= dim, so a million equations list the
    # rows of three; walking every k to the bound took 36 s at 10,000
    *[
        Answer(f"sweep --max-dim 3 --max-k {max_k} --max-degree 2", 0, "c28e88dee66b17e3",
               seconds=1)
        for max_k in (1000000, 3)
    ],
]


def digest(result):
    """The first 16 hex digits of the sha256 of ``repr(result)``."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def run(capsys, *argv):
    """(exit, stdout, stderr) of one command line, argparse exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = ("hodge", "klg", "verify", "periods", "fg", "resolve-trace", "sweep")


def run_both_parsers(capsys, monkeypatch, *argv):
    """``run`` of one command line, which must build the parser of the
    subcommand it names and no other (the full parser for a line that names
    none) and print the same as it does with the full parser; with the wall
    time of the first run."""
    built = []
    build = cli._build_parser

    def recording(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", recording)
    start = time.perf_counter()
    shipped = run(capsys, *argv)
    seconds = time.perf_counter() - start
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert run(capsys, *argv) == shipped
    monkeypatch.setattr(cli, "_build_parser", build)
    return shipped, seconds


def stringify(obj):
    """Every int of a payload as a decimal string (bools excluded): with
    ``json.dumps(..., indent=2)``, the reference for ``_render_json``."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {key: stringify(value) for key, value in obj.items()}
    return obj


def recursive_trace(chart: ChartType, node_limit: int = 1_000_000) -> ResolutionTrace:
    """Oracle: the trace by memoised recursion over ``chart_children``, the
    x-chart's subtree before the a-chart's.  Each chart's node is made as its
    subtree closes, and the trace lists them in reverse."""
    if node_limit < 1:
        raise ValueError(f"node_limit must be positive, got {node_limit}")
    closed: dict[ChartType, tuple[TraceNode, int]] = {}  # node and tree size, in close order

    def close(current: ChartType) -> tuple[TraceNode, int]:
        if current not in closed:
            edges = [] if current.is_terminal else chart_children(current)
            grouped: dict[ChartType, list[str]] = {}
            for edge in edges:
                grouped.setdefault(edge.child, []).append(edge.label)
            size = 1 + sum(close(child)[1] for child in reversed(grouped))
            steps = (TraceEdge(edges[0].stratum, tuple(labels), closed[child][0])
                     for child, labels in grouped.items())
            closed[current] = TraceNode(current, tuple(steps)), size
        return closed[current]

    node_count = close(chart)[1]
    if node_count > node_limit:
        raise BudgetExceeded(f"resolution trace from {chart} exceeded {node_limit} nodes")
    return ResolutionTrace(tuple(node for node, _ in reversed(closed.values())), node_count)
