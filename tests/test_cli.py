"""End-to-end tests of the command-line interface and its output contracts."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanolg
from fanolg import cli
from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    f_closed,
    f_rec,
    g_closed,
    g_rec,
    hodge_h1,
    k_lg,
    verify_main_theorem,
    verify_period,
)
from fanolg.cli import _render_json, main


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
    def test_invalid_not_fano(self, capsys):
        code, out, err = run(capsys, "hodge", "--dim", "3", "--degrees", "5")
        assert code == 2 and out == ""
        assert "not Fano" in err

    def test_invalid_degree_one(self, capsys):
        code, out, err = run(capsys, "hodge", "--dim", "3", "--degrees", "1,2")
        assert code == 2 and out == ""
        assert "degree" in err

    def test_invalid_degree_syntax(self, capsys):
        code, out, err = run(capsys, "hodge", "--dim", "3", "--degrees", "3,x")
        assert code == 2 and out == ""
        assert "comma-separated" in err

    def test_small_dimension(self, capsys):
        code, out, err = run(capsys, "hodge", "--dim", "1", "--degrees", "2")
        assert code == 2 and out == ""
        assert "dimension" in err

    @pytest.mark.parametrize("command", ["hodge", "verify"])
    def test_summand_budget_exceeded_is_a_one_line_error(self, capsys, command):
        code, out, err = run(capsys, command, "--dim", "30", "--degrees", ",".join(["2"] * 20))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "summands" in err
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--dim", "153", "--degrees", ",".join(["20"] * 8)),
            ("klg", "--dim", "200000", "--degrees", "200001"),
        ],
    )
    def test_strata_budget_exceeded_is_a_one_line_error(self, capsys, argv):
        # 12,498,200 strata; a hypersurface whose divisors reach 200,000 bits
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith("error: the strata of") and err.count("\n") == 1

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

    def test_negative_order_rejected(self, capsys):
        code, out, err = run(capsys, "periods", "--dim", "3", "--degrees", "3", "--order", "-1")
        assert code == 2 and out == ""
        assert "order" in err

    def test_work_budget_exceeded_is_a_one_line_error(self, capsys):
        code, out, err = run(capsys, "periods", "--dim", "6", "--degrees", "7", "--order", "7")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "term products" in err and "Traceback" not in err


class TestFg:
    def test_deep_recursion_answers(self, capsys):
        code, out, _ = run(capsys, "fg", "--d", "3000", "--s", "1")
        assert code == 0
        assert "F(3000,1): recursion 3000, closed form 3000" in out
        assert "G(3000,1): recursion 2999, closed form 2999" in out

    def test_recursion_budget_exceeded_is_a_one_line_error(self, capsys):
        code, out, err = run(capsys, "fg", "--d", "400", "--s", "400")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "summands" in err and "Traceback" not in err

    @pytest.mark.parametrize("d", ["500001", "1000000000"])
    def test_huge_d_is_a_one_line_error(self, capsys, d):
        code, out, err = run(capsys, "fg", "--d", d, "--s", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "summands" in err and "Traceback" not in err

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

    def test_invalid_d(self, capsys):
        code, out, err = run(capsys, "fg", "--d", "0", "--s", "2")
        assert code == 2 and out == ""
        assert "d must be" in err


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

    def test_node_limit_exceeded_is_a_failure(self, capsys):
        code, out, err = run(
            capsys, "resolve-trace", "--dbar", "6,6", "--s", "4", "--node-limit", "10"
        )
        assert code == 3 and out == ""
        assert "exceeded" in err

    def test_node_limit_counts_tree_nodes(self, capsys):
        # 679 distinct charts, but 7,231 tree nodes: a budget of 900 must not suffice
        code, out, err = run(
            capsys, "resolve-trace", "--dbar", "6,6,6", "--s", "6", "--node-limit", "900"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeded 900 nodes" in err and "Traceback" not in err

    def test_node_limit_is_exact(self, capsys):
        argv = ("resolve-trace", "--dbar", "6,6,6", "--s", "6", "--node-limit")
        code, out, _ = run(capsys, *argv, "7231")
        assert code == 0
        assert json.loads(out)["node_count"] == "7231"
        code, out, err = run(capsys, *argv, "7230")
        assert code == 3
        assert out == "" and "exceeded 7230 nodes" in err

    @pytest.mark.parametrize(
        "dbar, s, reason",
        [("12,12,12", "12", "exceeded 1000000 nodes"), ("99999", "99999", "cells")],
    )
    def test_large_chart_is_rejected_early(self, capsys, dbar, s, reason):
        code, out, err = run(capsys, "resolve-trace", "--dbar", dbar, "--s", s)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and "Traceback" not in err

    def test_invalid_chart(self, capsys):
        code, out, err = run(capsys, "resolve-trace", "--dbar", "0,2", "--s", "1")
        assert code == 2 and out == ""
        assert "positive" in err


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
        assert int(payload["f_recursion"]) == f_rec(120, 120) == f_closed(120, 120) > 2**53
        assert int(payload["g_recursion"]) == g_rec(120, 120) == g_closed(120, 120) == 0
        assert payload["agree"] is True


class TestUnexpectedErrors:
    def test_any_other_exception_is_a_one_line_error(self, capsys, monkeypatch):
        def crash(ci):
            raise RuntimeError("injected\nacross lines")

        monkeypatch.setattr("fanolg.cli.hodge_h1", crash)
        code, out, err = run(capsys, "hodge", "--dim", "3", "--degrees", "3")
        assert code == 4
        assert out == ""
        assert err == "error: internal error (RuntimeError): injected across lines\n"


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

        monkeypatch.setitem(cli._VIEWS["hodge"], "text", crash)
        code, out, _ = run(capsys, "hodge", "--dim", "3", "--degrees", "3")
        assert (code, out) == (4, "")
        assert sys.get_int_max_str_digits() == before

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (("--dim", "9" * 5000, "--degrees", "3"), "invalid int value"),
            (("--dim", "3", "--degrees", "9" * 5000), "comma-separated"),
        ],
    )
    def test_input_past_the_digit_limit_is_invalid(self, capsys, flags, reason):
        code, out, err = run(capsys, "hodge", *flags)
        assert code == 2 and out == ""
        assert reason in err.splitlines()[-1]

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


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hodge", "--dim", "3"])
        assert exc.value.code == 2


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
# payloads for one renderer
PINNED_OUTPUT = {
    "hodge --dim 3 --degrees 3": "e5057ed5db91cc38",
    "hodge --dim 12 --degrees 2,3": "849e09b410e9c7c9",
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
    "fg --d 3 --s 2": "a5ef0a879d21a35d",
    "fg --d 120 --s 120 --format json": "308a774465767a36",
    "resolve-trace --dbar 3,2 --s 2": "b0a8d8eb0612935c",
    "resolve-trace --dbar 3,2 --s 2 --format dot": "f05512fd7917511d",
    "sweep --max-dim 4 --max-k 2 --max-degree 3": "241e7991a0f9fe26",
    "hodge --dim 3 --degrees 3,x": "cce1a798794e583e",
    "verify --dim 3 --degrees 5": "0a50b3e0a0ec924a",
    "fg --d 0 --s 2": "dc594818786a7a06",
    "periods --dim 3 --degrees 3 --order -1": "b7b1d31a7fe495b5",
    "hodge --dim 3": "919c4c5ef7539749",
    "hodge --dim 30 --degrees 2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2": "b68f05c5ab3ced45",
    "klg --dim 200000 --degrees 200001": "dfd6d2489b2cae00",
    "periods --dim 6 --degrees 7 --order 7": "a151471eb87295a7",
    "fg --d 400 --s 400": "1ac52fc16ae40049",
    "resolve-trace --dbar 6,6 --s 4 --node-limit 10": "16ca3844ef8b20fa",
    "resolve-trace --dbar 6,6,6 --s 6": "140b17e1fa5b1e71",
    "resolve-trace --dbar 6,6,6 --s 6 --format dot": "81ce00f910bb7ed9",
    "resolve-trace --dbar 0,2 --s 1": "efc4e76fdb8d8455",
    "resolve-trace --dbar 3 --s -1": "95867f95d37027e8",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("line", PINNED_OUTPUT)
    def test_same_bytes(self, capsys, monkeypatch, line):
        monkeypatch.setenv("COLUMNS", "80")
        result = run(capsys, *line.split())
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == PINNED_OUTPUT[line]


class TestEntryPoint:
    """``python -m fanolg.cli`` in a fresh interpreter, reading ``sys.argv``."""

    def fanolg(self, *argv):
        src = str(Path(fanolg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
        return subprocess.run(
            [sys.executable, "-m", "fanolg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_command(self):
        done = self.fanolg("fg", "--d", "3", "--s", "2")
        assert done.returncode == 0
        assert "F(3,2): recursion 6, closed form 6" in done.stdout

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

    def test_periods_counts_the_terms_of_f_first(self):
        # f would have C(41, 20) = 269,128,937,220 terms; the address-space cap
        # stops the interpreter early should the count ever come after the terms
        script = (
            "import resource, time, tracemalloc\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
            "from fanolg.cli import main\n"
            "tracemalloc.start()\n"
            "start = time.perf_counter()\n"
            "code = main(['periods', '--dim', '20', '--degrees', '21'])\n"
            "print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])\n"
        )
        src = str(Path(fanolg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        code, seconds, peak = done.stdout.split()
        assert code == "3" and float(seconds) < 1 and int(peak) < 2**20
        assert done.stderr == (
            "error: the mirror polynomial of dim 20, degrees (21) would have more than"
            " 20,000,000 terms\n"
        )

    def test_closed_stdout_exits_4(self):
        # the reader takes one line of the 229 KB trace and leaves, so the
        # rest cannot be written
        src = str(Path(fanolg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["resolve-trace", "--dbar", "6,6,6", "--s", "6"]
        with subprocess.Popen(
            [sys.executable, "-m", "fanolg.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
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
