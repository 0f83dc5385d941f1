"""The answer contract of the CLI, over every row of ``answers.py``: the row's
exit code, an empty stderr, the row's digest and the same output from the
parser of the one subcommand as from the full parser.  Each JSON payload
renders back to its text and equals, with every int as its decimal string,
the payload a second route computes from the row's arguments, so every number
is a canonical decimal string, exact far past the 53 bits a JSON number keeps
in most readers.  Each CSV row of ``sweep`` agrees with the routes, and
``hodge`` text keeps its colons in one column.  Each row's ``seconds`` bounds
the wall time of its first run."""

import json
from math import comb, prod
from pathlib import Path

import pytest

from fanolg import ChartType, CompleteIntersection, cli, i_series, jacobian_ring
from answers import ANSWERS, digest, recursive_trace, run_both_parsers, stringify
from refusals import row_id
from routes import agreed


def parsed(words):
    """The command, the view and the words without ``--format``."""
    command, views = words[0], cli._COMMANDS[words[0]][3]
    if "--format" not in words:
        return command, next(iter(views)), tuple(words)
    at = words.index("--format")
    return command, words[at + 1], tuple(words[:at] + words[at + 2 :])


def variety(args):
    """The row's variety, and the fields with which its payload starts."""
    ci = CompleteIntersection(args.dim, tuple(map(int, args.degrees.split(","))))
    return ci, {"dim": ci.dim, "degrees": list(ci.degrees)}


def hodge_payload(payload, args):
    ci, fields = variety(args)
    h_pr, prime = agreed(ci), jacobian_ring.count_monomials_oracle(ci)
    h = h_pr + (ci.dim == 2)
    return fields | {"index": ci.index, "dim_R_prime": prime, "dim_R": h_pr, "h_pr": h_pr, "h": h}


def klg_payload(payload, args):
    ci, fields = variety(args)
    k_lg = agreed(ci)
    branch = "l_zero" if ci.l == 0 else "l_positive"
    expected = fields | {"k_lg": k_lg, "central_fiber_components": k_lg + 1, "branch": branch}
    if args.strata:
        # each stratum within its caps and counted by math.comb, and their sum
        # against the routes
        expected["contributions"] = strata = []
        for c in payload["contributions"]:
            j, ivec = int(c["j"]), [int(i) for i in c["ivec"]]
            caps = [d - 1 - (t == j - 1) for t, d in enumerate(ci.degrees)]
            assert all(0 <= i <= cap for i, cap in zip(ivec, caps, strict=True)), c
            multiplicity = prod(map(comb, ci.degrees, ivec))
            divisors = comb(ci.degrees[j - 1] - 1, sum(ivec) + ci.l)
            assert divisors, c
            strata.append({"j": j, "ivec": ivec, "multiplicity": multiplicity, "divisors": divisors})
        total = sum(c["multiplicity"] * c["divisors"] for c in strata)
        assert total + (ci.k - 1 if ci.l == 0 else 0) == k_lg
    return expected


def verify_payload(payload, args):
    ci, fields = variety(args)
    h_pr = agreed(ci)
    return fields | {"holds": True, "h": h_pr + (ci.dim == 2), "h_pr": h_pr, "k_lg": h_pr}


def periods_payload(payload, args):
    ci, fields = variety(args)
    order = 3 * ci.index if args.order is None else args.order
    closed = i_series(ci, order)
    series = list(closed.coefficients)
    return fields | {
        "order": order, "match": True, "first_mismatch": None, "alpha": closed.alpha,
        "constant_terms": series, "closed_form": series,
    }


def fg_payload(payload, args):
    d, s = args.d, args.s
    f, g = comb(d + s - 1, s), comb(d - 1, s)
    return {"d": d, "s": s, "f_recursion": f, "f_closed": f, "g_recursion": g, "g_closed": g,
            "agree": True}


def resolve_trace_payload(payload, args):
    trace = recursive_trace(ChartType(tuple(map(int, args.dbar.split(","))), args.s))
    ids = {node.chart: i for i, node in enumerate(trace.nodes)}
    steps = [(node, edge) for node in trace.nodes for edge in node.edges]
    # the weight decreases along every edge
    assert all(edge.node.chart.weight() < node.chart.weight() for node, edge in steps)
    nodes = [
        {"id": i, "dbar": node.chart.dbar, "s": node.chart.s, "weight": node.chart.weight()}
        for i, node in enumerate(trace.nodes)
    ]
    edges = [
        {"parent": ids[node.chart], "child": ids[edge.node.chart], "stratum": edge.stratum,
         "charts": edge.charts}
        for node, edge in steps
    ]
    return {"node_count": trace.node_count, "nodes": nodes, "edges": edges}


# command -> the payload a second route computes from the parsed row
SECOND_ROUTE = {
    "hodge": hodge_payload,
    "klg": klg_payload,
    "verify": verify_payload,
    "periods": periods_payload,
    "fg": fg_payload,
    "resolve-trace": resolve_trace_payload,
}


def check_sweep_csv(out):
    header, *rows = out.splitlines()
    assert header == "N,degrees,index,h_pr,h,k_lg,theorem_holds"
    varieties = []
    for row in rows:
        dim, degrees = row.split(",")[:2]
        ci = CompleteIntersection(int(dim), tuple(map(int, degrees.split("-"))))
        h_pr = agreed(ci)
        assert row == f"{dim},{degrees},{ci.index},{h_pr},{h_pr + (ci.dim == 2)},{h_pr},true"
        varieties.append(ci)
    assert varieties and varieties == sorted(varieties, key=lambda ci: (ci.dim, ci.k, ci.degrees))


@pytest.mark.parametrize("row", ANSWERS, ids=row_id)
def test_answer(capsys, monkeypatch, row):
    monkeypatch.setenv("COLUMNS", "80")
    words = row.line.split()
    (code, out, err), seconds = run_both_parsers(capsys, monkeypatch, *words)
    assert (code, err) == (row.code, "")
    assert digest((code, out, err)) == row.digest
    assert row.seconds is None or seconds < row.seconds
    command, view, _ = parsed(words)
    if view == "json":
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        args = cli._build_parser().parse_args(words)
        assert payload == stringify(SECOND_ROUTE[command](payload, args))
    elif (command, view) == ("hodge", "text"):
        lines = out.splitlines()
        assert len(lines) == 6 and len({line.index(":") for line in lines}) == 1
    elif command == "sweep":
        check_sweep_csv(out)


def test_every_view_of_every_command_has_a_row():
    views = {(command, view) for command, (*_, renders) in cli._COMMANDS.items() for view in renders}
    assert {parsed(row.line.split())[:2] for row in ANSWERS} == views


def test_every_other_view_has_a_json_twin():
    # both views render one payload, so the twin's second route covers the row
    rows = [parsed(row.line.split()) for row in ANSWERS]
    twins = {rest for _, view, rest in rows if view == "json"}
    for command, view, rest in rows:
        if view != "json" and "json" in cli._COMMANDS[command][3]:
            assert rest in twins, " ".join(rest)


def test_every_readme_line_is_a_row():
    # each fanolg line of the command-line block, comments dropped; an optional
    # [...] part gives one line with it and one without
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        words = line.partition("#")[0].split()
        if words[:1] == ["fanolg"]:
            head, _, rest = " ".join(words[1:]).partition("[")
            option, _, tail = rest.partition("]")
            lines += {" ".join(f"{head}{option}{tail}".split()), " ".join(f"{head}{tail}".split())}
    assert len(lines) == 8
    assert set(lines) <= {row.line for row in ANSWERS}
