"""End-to-end tests of the command-line interface and its output contracts."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import cli, givental
from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    f_closed,
    fg_rec,
    g_closed,
    hodge_h1,
    i_series,
    k_lg,
    verify_main_theorem,
    verify_period,
)
from fanolg.cli import _render_json, main
import fresh
from routes import RING, agreed


def run(capsys, *argv):
    """(exit, stdout, stderr) of one command line, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_cubic_threefold(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "3", "--degrees", "3")
        assert code == 0
        assert "h = 5" in out and "k_lg = 5" in out

    def test_cubic_surface(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--degrees", "3")
        assert code == 0
        assert "h = 7" in out and "k_lg = 6" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "4", "--degrees", "2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        ci = CompleteIntersection(int(payload["dim"]), tuple(int(d) for d in payload["degrees"]))
        report = verify_main_theorem(ci)
        assert payload["holds"] is True and report.holds
        assert int(payload["h"]) == report.h
        assert int(payload["k_lg"]) == report.k_lg


class TestHodge:
    @pytest.mark.parametrize("dim", [12, 20, 1001])
    def test_colons_share_one_column(self, capsys, dim):
        # from dim 11 on, the h-labels outgrow "complete intersection"
        code, out, _ = run(capsys, "hodge", "--dim", str(dim), "--degrees", "2,3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert len({line.index(":") for line in lines}) == 1

    @pytest.mark.parametrize("dim", [20, 30])
    def test_any_number_of_quadrics_answers(self, capsys, dim):
        # no quadric runs a mask loop, so twenty of them are charged nothing
        h = agreed(CompleteIntersection(dim, (2,) * 20))
        assert h == (779 if dim == 20 else 0)
        flags = ("--dim", str(dim), "--degrees", ",".join(["2"] * 20), "--format", "json")
        code, out, err = run(capsys, "hodge", *flags)
        assert (code, err) == (0, "")
        assert {json.loads(out)[key] for key in ("h", "h_pr", "dim_R")} == {str(h)}
        code, out, err = run(capsys, "verify", *flags)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["holds"] is True
        assert {payload[key] for key in ("h", "h_pr", "k_lg")} == {str(h)}

    def test_json_values_are_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "hodge", "--dim", "3", "--degrees", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        report = hodge_h1(CompleteIntersection(3, (3,)))
        assert payload["h"] == str(report.h) == "5"
        assert isinstance(payload["index"], str)


class TestKlg:
    def test_text_with_strata(self, capsys):
        code, out, _ = run(capsys, "klg", "--dim", "3", "--degrees", "3", "--strata")
        assert code == 0
        assert "k_lg" in out and "stratum j=1" in out

    def test_json_breakdown(self, capsys):
        code, out, _ = run(
            capsys, "klg", "--dim", "2", "--degrees", "3", "--format", "json", "--strata"
        )
        assert code == 0
        payload = json.loads(out)
        report = k_lg(CompleteIntersection(2, (3,)))
        assert int(payload["k_lg"]) == report.k_lg == 6
        assert payload["branch"] == "l_zero"
        assert payload["contributions"] == [
            {"j": "1", "ivec": ["1"], "multiplicity": "3", "divisors": "2"}
        ]

    def test_json_without_strata_flag_omits_breakdown(self, capsys):
        code, out, _ = run(capsys, "klg", "--dim", "2", "--degrees", "3", "--format", "json")
        assert code == 0
        assert "contributions" not in json.loads(out)


class TestPeriods:
    def test_default_order_and_match(self, capsys):
        code, out, _ = run(capsys, "periods", "--dim", "3", "--degrees", "2")
        assert code == 0
        assert "verified up to order 9" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "periods", "--dim", "3", "--degrees", "3", "--order", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["first_mismatch"] is None
        assert payload["constant_terms"] == ["1", "0", "12", "0", "540"]
        assert payload["constant_terms"] == payload["closed_form"]

    @pytest.mark.parametrize(
        "line",
        ["periods --dim 3 --degrees 3 --order 0", "periods --dim 3 --degrees 3 --order 0 --format json"],
    )
    def test_order_zero_builds_no_polynomial(self, capsys, monkeypatch, line):
        # the constant term of f^0 is 1 whatever f is; the bytes are the
        # pinned ones, recorded while order 0 still built f
        def refuse(ci):
            raise AssertionError("build_fx called at order 0")

        monkeypatch.setattr(givental, "build_fx", refuse)
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = result = run(capsys, *line.split())
        assert (code, err) == (0, "")
        assert out.endswith("period condition verified up to order 0\n") or json.loads(out)["match"]
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == PINNED_OUTPUT[line]

    def test_a_mismatch_exits_1_and_names_its_order(self, capsys, monkeypatch):
        def off_at_two(ci, order):
            closed = i_series(ci, order)
            wrong = list(closed.coefficients)
            wrong[2] += 1
            return dataclasses.replace(closed, coefficients=tuple(wrong))

        monkeypatch.setattr(givental, "i_series", off_at_two)
        flags = ("periods", "--dim", "3", "--degrees", "3", "--order", "4")
        code, out, err = run(capsys, *flags)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "MISMATCH at order 2"
        code, out, err = run(capsys, *flags, "--format", "json")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["match"], payload["first_mismatch"]) == (False, "2")


class TestFg:
    def test_deep_recursion_answers(self, capsys):
        code, out, _ = run(capsys, "fg", "--d", "3000", "--s", "1")
        assert code == 0
        assert "F(3000,1): recursion 3000, closed form 3000" in out
        assert "G(3000,1): recursion 2999, closed form 2999" in out

    def test_huge_s_answers(self, capsys):
        code, out, _ = run(capsys, "fg", "--d", "10", "--s", "100000000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f_recursion"] == payload["f_closed"] == str(f_closed(10, 10**8))
        assert payload["g_recursion"] == payload["g_closed"] == "0"

    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "fg", "--d", "3", "--s", "2")
        assert code == 0
        assert "F(3,2): recursion 6, closed form 6" in out
        assert "G(3,2): recursion 1, closed form 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fg", "--d", "5", "--s", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f_recursion"] == payload["f_closed"] == "5"
        assert payload["g_recursion"] == payload["g_closed"] == "4"
        assert payload["agree"] is True


class TestResolveTrace:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "resolve-trace", "--dbar", "3", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["node_count"] == "7"
        root = payload["nodes"][0]
        assert root["id"] == "0"
        assert root["dbar"] == ["3"]
        assert root["weight"] == ["1", "3"]
        assert [e["charts"] for e in payload["edges"] if e["parent"] == "0"] == [
            ["a1 != 0"],
            ["x1 != 0"],
        ]

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "resolve-trace", "--dbar", "2,2", "--s", "2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph resolution_trace {")
        assert "->" in out

    def test_node_limit_is_exact(self, capsys):
        argv = ("resolve-trace", "--dbar", "6,6,6", "--s", "6", "--node-limit")
        code, out, _ = run(capsys, *argv, "7231")
        assert code == 0
        assert json.loads(out)["node_count"] == "7231"
        code, out, err = run(capsys, *argv, "7230")
        assert code == 3
        assert out == "" and "exceeded 7230 nodes" in err


class TestSweep:
    def test_csv_shape_and_content(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-dim", "4", "--max-k", "2", "--max-degree", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,degrees,index,h_pr,h,k_lg,theorem_holds"
        assert "3,3,2,5,5,5,true" in lines
        assert "2,2-2,1,5,6,5,true" in lines
        # deterministic ordering by (N, k, degrees)
        assert lines[1:] == sorted(
            lines[1:],
            key=lambda row: (
                int(row.split(",")[0]),
                len(row.split(",")[1].split("-")),
                row.split(",")[1],
            ),
        )

    def test_every_row_verifies(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-dim", "5", "--max-k", "2", "--max-degree", "4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows and all(row.endswith(",true") for row in rows)

    def test_a_failing_row_exits_1_with_the_whole_csv(self, capsys, monkeypatch):
        calls = []

        def second_row_fails(ci):
            calls.append(ci)
            report = verify_main_theorem(ci)
            return dataclasses.replace(report, holds=False) if len(calls) == 2 else report

        monkeypatch.setattr(cli, "verify_main_theorem", second_row_fails)
        code, out, err = run(capsys, "sweep", "--max-dim", "4", "--max-k", "2", "--max-degree", "3")
        rows = out.strip().splitlines()[1:]
        assert (code, err) == (1, "")
        assert len(rows) == len(calls) > 2
        assert [row.endswith(",false") for row in rows] == [i == 1 for i in range(len(rows))]


def json_leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from json_leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from json_leaves(value)
    else:
        yield obj


class TestJsonRoundTrip:
    """Every numeric field is a canonical decimal string that reads back to the
    exact value, far past the 53 bits a JSON number keeps in most readers, and
    the parsed payload renders back to the same text."""

    def check(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        for leaf in json_leaves(payload):
            assert leaf is None or isinstance(leaf, (bool, str)), leaf
            if isinstance(leaf, str) and leaf.lstrip("-").isdigit():
                assert str(int(leaf)) == leaf
        return payload

    def test_hodge(self, capsys):
        payload = self.check(capsys, "hodge", "--dim", "30", "--degrees", "31")
        report = hodge_h1(CompleteIntersection(30, (31,)))
        assert int(payload["dim_R_prime"]) == report.dim_R_prime
        assert int(payload["h"]) == report.h > 2**53

    def test_klg(self, capsys):
        payload = self.check(capsys, "klg", "--dim", "30", "--degrees", "31", "--strata")
        report = k_lg(CompleteIntersection(30, (31,)))
        assert int(payload["k_lg"]) == report.k_lg > 2**53
        assert [int(c["divisors"]) for c in payload["contributions"]] == [
            c.divisors for c in report.contributions
        ]

    def test_klg_without_contributing_strata(self, capsys):
        payload = self.check(capsys, "klg", "--dim", "3", "--degrees", "2", "--strata")
        assert payload["k_lg"] == "0"
        assert payload["contributions"] == []

    def test_resolve_trace(self, capsys):
        payload = self.check(capsys, "resolve-trace", "--dbar", "6,6,6", "--s", "6")
        assert payload["node_count"] == "7231"
        assert len(payload["nodes"]) == 679
        assert payload["nodes"][3]["dbar"] == []

    def test_verify(self, capsys):
        payload = self.check(capsys, "verify", "--dim", "30", "--degrees", "31")
        report = verify_main_theorem(CompleteIntersection(30, (31,)))
        assert payload["holds"] is True
        assert (int(payload["h"]), int(payload["k_lg"])) == (report.h, report.k_lg)
        assert report.h > 2**53

    def test_periods(self, capsys):
        payload = self.check(
            capsys, "periods", "--dim", "3", "--degrees", "3", "--order", "20"
        )
        report = verify_period(CompleteIntersection(3, (3,)), 20)
        constant_terms = [int(c) for c in payload["constant_terms"]]
        assert constant_terms == list(report.phi.coefficients)
        assert max(constant_terms) > 2**53
        assert payload["first_mismatch"] is None

    def test_fg(self, capsys):
        payload = self.check(capsys, "fg", "--d", "120", "--s", "120")
        f, g = fg_rec(120, 120)
        assert int(payload["f_recursion"]) == f == f_closed(120, 120) > 2**53
        assert int(payload["g_recursion"]) == g == g_closed(120, 120) == 0
        assert payload["agree"] is True


class TestUnexpectedErrors:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (RuntimeError("injected\nacross lines"), "RuntimeError): injected across lines"),
            (MemoryError(), "MemoryError)"),  # no message, so no colon after the type
        ],
        ids=["RuntimeError", "MemoryError"],
    )
    def test_any_other_exception_is_a_one_line_error(self, capsys, monkeypatch, exc, line):
        def crash(ci):
            raise exc

        monkeypatch.setattr("fanolg.cli.hodge_h1", crash)
        code, out, err = run(capsys, "hodge", "--dim", "3", "--degrees", "3")
        assert code == 4
        assert out == ""
        assert err == f"error: internal error ({line}\n"


class TestWholeAnswers:
    """An answer is printed whole or not at all, exact values of any length
    included, and the int-to-str digit limit is lifted only while rendering."""

    def test_digit_limit_is_restored(self, capsys, monkeypatch):
        before = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "hodge", "--dim", "20000", "--degrees", "20001")
        assert code == 0 and len(out) > 4 * 4300
        assert sys.get_int_max_str_digits() == before

        def crash(payload):
            raise RuntimeError("injected")

        monkeypatch.setitem(cli._COMMANDS["hodge"][3], "text", crash)
        code, out, _ = run(capsys, "hodge", "--dim", "3", "--degrees", "3")
        assert (code, out) == (4, "")
        assert sys.get_int_max_str_digits() == before

    def test_sweep_is_all_or_nothing(self, capsys, monkeypatch):
        calls = []

        def third_row_over_budget(ci):
            calls.append(ci)
            if len(calls) == 3:
                raise BudgetExceeded("injected")
            return verify_main_theorem(ci)

        monkeypatch.setattr(cli, "verify_main_theorem", third_row_over_budget)
        code, out, err = run(capsys, "sweep", "--max-dim", "4", "--max-k", "2", "--max-degree", "3")
        assert len(calls) == 3
        assert (code, out, err) == (3, "", "error: injected\n")


def _stringify(obj):
    """Every int of a payload as a decimal string (bools excluded): with
    ``json.dumps(..., indent=2)``, the reference for ``_render_json``."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _stringify(value) for key, value in obj.items()}
    return obj


# quotes, backslashes, control characters and non-ASCII text, among any others
awkward_text = st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters()
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | awkward_text
)
payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(awkward_text, children, max_size=4),
    max_leaves=40,
)


class TestRenderJson:
    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_equals_json_dumps_of_stringified_payload(self, payload):
        assert _render_json(payload) == json.dumps(_stringify(payload), indent=2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            _render_json({"x": 1.5})


CI = ("--dim", "3", "--degrees", "3")
COMMANDS = ("hodge", "klg", "verify", "periods", "fg", "resolve-trace", "sweep")
IDENTITY_ARGV = [
    *[(command, *CI, *fmt) for command in ("hodge", "verify", "periods")
      for fmt in ((), ("--format", "text"), ("--format", "json"))],
    ("klg", *CI), ("klg", *CI, "--strata"), ("klg", *CI, "--strata", "--format", "json"),
    ("fg", "--d", "3", "--s", "2"), ("fg", "--d", "3", "--s", "2", "--format", "json"),
    ("resolve-trace", "--dbar", "3,2", "--s", "2"),
    ("resolve-trace", "--dbar", "3,2", "--s", "2", "--format", "dot"),
    ("sweep", "--max-dim", "4", "--max-k", "2", "--max-degree", "3"),
    ("-h",), *[(command, "-h") for command in COMMANDS],
    (),
    ("frobnicate",),
    ("hodge", "--dim", "3"),
    ("hodge", *CI, "extra"),
    ("hodge", *CI, "--format", "xml"),
    ("resolve-trace", "--dbar", "3", "--s", "1", "--format", "text"),
]


class TestOneSubparser:
    """Building only the named subcommand's parser changes no output."""

    @pytest.mark.parametrize("argv", IDENTITY_ARGV, ids=lambda argv: " ".join(argv) or "none")
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        build = cli._build_parser

        def recording(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "_build_parser", recording)
        shipped = run(capsys, *argv)
        assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
        assert run(capsys, *argv) == shipped


# (exit, stdout, stderr) of each command line with COLUMNS=80, as the first 16
# hex digits of the sha256 of its repr, recorded before the commands returned
# payloads for one renderer; the refused lines are rows of refusals.py
PINNED_OUTPUT = {
    "hodge --dim 3 --degrees 3": "e5057ed5db91cc38",
    "hodge --dim 12 --degrees 2,3": "e2208823ddbc20de",
    "hodge --dim 4 --degrees 2,2 --format json": "9e5c86f16d74c39d",
    "klg --dim 3 --degrees 3": "14ab69f93e25ffd1",
    "klg --dim 4 --degrees 2,3 --strata": "06a4138d97c3cab3",
    "klg --dim 4 --degrees 2,3 --strata --format json": "73ab2cb60b6f813c",
    "klg --dim 2 --degrees 3 --format json": "839a10f97f3297d1",
    "verify --dim 2 --degrees 3": "f06d5b405c94799c",
    "verify --dim 4 --degrees 2,2 --format json": "58a900726f794141",
    "periods --dim 3 --degrees 3 --order 20": "5c40d3cbb462aa0a",
    "periods --dim 4 --degrees 2,2": "b6ce4f006e6cb527",
    "periods --dim 3 --degrees 3 --order 4 --format json": "3debc530574c806b",
    "periods --dim 3 --degrees 3 --order 0": "ea4b92084a2d75d6",
    "periods --dim 3 --degrees 3 --order 0 --format json": "7fb16433be1a7d16",
    "fg --d 3 --s 2": "a5ef0a879d21a35d",
    "fg --d 120 --s 120 --format json": "308a774465767a36",
    "resolve-trace --dbar 3,2 --s 2": "b0a8d8eb0612935c",
    "resolve-trace --dbar 3,2 --s 2 --format dot": "f05512fd7917511d",
    "sweep --max-dim 4 --max-k 2 --max-degree 3": "241e7991a0f9fe26",
    "resolve-trace --dbar 6,6,6 --s 6": "140b17e1fa5b1e71",
    "resolve-trace --dbar 6,6,6 --s 6 --format dot": "81ce00f910bb7ed9",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("line", PINNED_OUTPUT)
    def test_same_bytes(self, capsys, monkeypatch, line):
        monkeypatch.setenv("COLUMNS", "80")
        result = run(capsys, *line.split())
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == PINNED_OUTPUT[line]


def readme_command_lines():
    """Every ``fanolg`` line of the README's command-line block as argv, comments
    dropped; an optional ``[...]`` part gives one line with it and one without."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        words = line.partition("#")[0].split()
        if words[:1] != ["fanolg"]:
            continue
        text = " ".join(words[1:])
        if "[" in text:
            head, _, rest = text.partition("[")
            option, _, tail = rest.partition("]")
            lines += [f"{head}{option}{tail}".split(), f"{head}{tail}".split()]
        else:
            lines.append(text.split())
    return lines


class TestReadmeCommands:
    def test_every_line_is_found(self):
        assert len(readme_command_lines()) == 8

    @pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
    def test_answers(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip()


class TestEntryPoint:
    """``python -m fanolg.cli`` (or ``python -m fanolg``) in a fresh
    interpreter, reading ``sys.argv``."""

    def fanolg(self, *argv, module="fanolg.cli"):
        return fresh.python("-m", module, *argv)

    def test_command(self):
        done = self.fanolg("fg", "--d", "3", "--s", "2")
        assert done.returncode == 0
        assert "F(3,2): recursion 6, closed form 6" in done.stdout

    def test_package_runs_as_the_command(self):
        argv = ("hodge", "--dim", "3", "--degrees", "3")
        done = self.fanolg(*argv, module="fanolg")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == self.fanolg(*argv).stdout
        assert "h_pr^(1,2)" in done.stdout

    def test_help_lists_every_command(self):
        done = self.fanolg("--help")
        assert done.returncode == 0
        assert re.findall(r"^    (\S+)", done.stdout, re.M) == list(COMMANDS)

    def test_answer_past_the_digit_limit_prints_whole(self):
        done = self.fanolg("hodge", "--dim", "20000", "--degrees", "20001")
        assert done.returncode == 0 and done.stderr == ""
        texts = [line.rpartition(" ")[2] for line in done.stdout.splitlines()[2:]]
        assert len(texts) == 4 and min(map(len, texts)) > 4300
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # int() of the text meets the same limit here
        try:
            values = [int(text) for text in texts]
        finally:
            sys.set_int_max_str_digits(digits)
        report = hodge_h1(CompleteIntersection(20000, (20001,)))
        assert values == [report.dim_R_prime, report.dim_R, report.h_pr, report.h]

    def test_sweep_lists_only_fano_tuples(self):
        # 9 rows, out of about 4.8 * 10^12 nondecreasing tuples of up to 14
        # degrees in [2, 40]: the listing must not walk them
        done = self.fanolg("sweep", "--max-dim", "3", "--max-k", "14", "--max-degree", "40")
        lines = done.stdout.splitlines()
        assert (done.returncode, done.stderr) == (0, "")
        assert lines[0] == "N,degrees,index,h_pr,h,k_lg,theorem_holds"
        assert len(lines) == 10 and all(row.endswith(",true") for row in lines[1:])

    def test_quadrics_answer_in_linear_time(self):
        # 200 quadrics at index 1: each delta_j is one binomial, read in O(1)
        code, seconds, _, answer, err = fresh.timed_main(
            "hodge", "--dim", "200", "--degrees", ",".join(["2"] * 200), "--format", "json"
        )
        assert (code, err) == (0, "")
        assert seconds < 1
        ci = CompleteIntersection(200, (2,) * 200)
        assert json.loads("\n".join(answer))["h"] == str(agreed(ci, RING))

    def test_sweep_stops_k_at_the_dimension(self):
        # k degrees of at least 2 need k <= dim, so a million equations list
        # the rows of three; walking every k to the bound took 36 s at 10,000
        outputs = []
        for max_k in ("1000000", "3"):
            code, seconds, _, rows, err = fresh.timed_main(
                "sweep", "--max-dim", "3", "--max-k", max_k, "--max-degree", "2"
            )
            assert (code, err) == (0, "")
            assert seconds < 1
            outputs.append(rows)
        assert outputs[0] == outputs[1] and len(outputs[0]) == 6

    def test_periods_counts_the_terms_of_f_first(self):
        # f would have C(41, 20) = 269,128,937,220 terms; the address-space cap
        # stops the interpreter early should the count ever come after the terms
        code, seconds, peak, out, err = fresh.timed_main(
            "periods", "--dim", "20", "--degrees", "21", address_space=2**29, traced=True
        )
        assert (code, out) == (3, []) and seconds < 1 and peak < 2**20
        assert err == (
            "error: the mirror polynomial of 1 equation(s) with degrees of up to 5 bits"
            " would have more than 20,000,000 terms\n"
        )

    def test_periods_to_order_zero_builds_no_polynomial(self):
        # f would have C(23, 11) + 1 = 1,352,079 terms, and building it took
        # seconds and hundreds of MB; the constant term of f^0 is 1 regardless
        code, seconds, _, answer, err = fresh.timed_main(
            "periods", "--dim", "12", "--degrees", "12", "--order", "0", address_space=2**29
        )
        assert (code, err) == (0, "")
        assert seconds < 1
        assert answer[-1] == "period condition verified up to order 0"

    def test_periods_at_high_arity(self):
        # 1,000 variables, 999 of them interchangeable: the orbit search once
        # rebuilt every term through a full permutation per swap, about a minute
        code, seconds, _, answer, err = fresh.timed_main(
            "periods", "--dim", "1000", "--degrees", "2", "--order", "1", address_space=2**29
        )
        assert (code, err) == (0, "")
        assert seconds < 5
        assert answer[-1] == "period condition verified up to order 1"

    @pytest.mark.parametrize(
        "dim, degrees, expected",
        [
            # index 200,002: no label lists, so no binomial row is built
            ("400000", "200000", "h = 0, h_pr = 0, k_lg = 0 -> comparison holds"),
            # one stratum, (899999, 900000 | j = 2, i = (0, 0)): rows read only C(d, 0)
            ("2699996", "899999,900000", "h = 1, h_pr = 1, k_lg = 1 -> comparison holds"),
        ],
    )
    def test_strata_build_only_the_binomial_rows_they_read(self, dim, degrees, expected):
        # whole rows C(d, 0..d - 1) at these degrees took seconds and then
        # passed the address-space cap
        code, seconds, _, answer, err = fresh.timed_main(
            "verify", "--dim", dim, "--degrees", degrees, address_space=2**30
        )
        assert (code, err) == (0, "")
        assert seconds < 1
        assert answer == [f"dim {dim}, degrees ({degrees.replace(',', ', ')}): {expected}"]

    def test_over_limit_trace_is_refused_before_its_root_closes(self):
        # the tree passes 1,000,000 nodes long before the root's subtree
        # closes, and a build that waits for it outgrows the cap
        code, _, _, out, err = fresh.timed_main(
            "resolve-trace", "--dbar", "40,1,1", "--s", "7", address_space=2**28
        )
        assert (code, out) == (3, [])
        assert err == "error: resolution trace from L((40, 1, 1); s=7) exceeded 1000000 nodes\n"

    def test_deepest_fg_chain_answers_in_little_memory(self):
        # 499,999 levels of one state each: the cap holds a few of their
        # vectors at a time, not one container per level
        code, _, _, out, err = fresh.timed_main(
            "fg", "--d", "499999", "--s", "1", address_space=2**27
        )
        assert (code, err) == (0, "")
        assert out == [
            "F(499999,1): recursion 499999, closed form 499999",
            "G(499999,1): recursion 499998, closed form 499998",
            "agreement: yes",
        ]

    def test_closed_stdout_exits_4(self):
        # the reader takes one line of the 229 KB trace and leaves, so the
        # rest cannot be written
        argv = ["resolve-trace", "--dbar", "6,6,6", "--s", "6"]
        with subprocess.Popen(
            [sys.executable, "-m", "fanolg.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=fresh.environment(),
        ) as proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 4
        assert err == "error: stdout was closed before the output was written\n"

    def test_missing_flag(self):
        done = self.fanolg("hodge", "--dim", "3")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage: fanolg hodge [-h] --dim DIM --degrees DEGREES")
        assert "the following arguments are required: --degrees" in done.stderr
