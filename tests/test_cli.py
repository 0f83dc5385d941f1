"""End-to-end tests of the command-line interface: what its answers are is
``test_answers.py``'s table, what it refuses ``test_refusals.py``'s; here are
the runs that patch the library, the JSON writer, the parser built per
subcommand and the entry point in a fresh interpreter.  The time and memory
bounds of command lines are fields of those tables' rows, which
``test_bounds.py`` checks in a fresh interpreter."""

import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanolg import cli, givental
from fanolg import (
    BudgetExceeded,
    CompleteIntersection,
    hodge_h1,
    i_series,
    verify_main_theorem,
)
from fanolg.cli import _render_json
import fresh
from answers import ANSWERS, COMMANDS, digest, run, run_both_parsers, stringify
from refusals import REFUSALS, line_id
from routes import RING, agreed


class TestPeriods:
    @pytest.mark.parametrize(
        "line",
        ["periods --dim 3 --degrees 3 --order 0", "periods --dim 3 --degrees 3 --order 0 --format json"],
    )
    def test_order_zero_builds_no_polynomial(self, capsys, monkeypatch, line):
        # the constant term of f^0 is 1 whatever f is; the bytes are the
        # answer row's, recorded while order 0 still built f
        def refuse(ci):
            raise AssertionError("build_fx called at order 0")

        monkeypatch.setattr(givental, "build_fx", refuse)
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = result = run(capsys, *line.split())
        assert (code, err) == (0, "")
        assert out.endswith("period condition verified up to order 0\n") or json.loads(out)["match"]
        assert digest(result) == next(row.digest for row in ANSWERS if row.line == line)

    def test_a_mismatch_exits_1_and_names_its_order(self, capsys, monkeypatch):
        def off_at_two(ci, order):
            closed = i_series(ci, order)
            wrong = list(closed.coefficients)
            wrong[2] += 1
            return closed._replace(coefficients=tuple(wrong))

        monkeypatch.setattr(givental, "i_series", off_at_two)
        flags = ("periods", "--dim", "3", "--degrees", "3", "--order", "4")
        code, out, err = run(capsys, *flags)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "MISMATCH at order 2"
        code, out, err = run(capsys, *flags, "--format", "json")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["match"], payload["first_mismatch"]) == (False, "2")


class TestSweep:
    def test_a_failing_row_exits_1_with_the_whole_csv(self, capsys, monkeypatch):
        calls = []

        def second_row_fails(ci):
            calls.append(ci)
            report = verify_main_theorem(ci)
            return report._replace(holds=False) if len(calls) == 2 else report

        monkeypatch.setattr(cli, "verify_main_theorem", second_row_fails)
        code, out, err = run(capsys, "sweep", "--max-dim", "4", "--max-k", "2", "--max-degree", "3")
        rows = out.strip().splitlines()[1:]
        assert (code, err) == (1, "")
        assert len(rows) == len(calls) > 2
        assert [row.endswith(",false") for row in rows] == [i == 1 for i in range(len(rows))]


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
    @settings(max_examples=200)
    @given(payloads)
    def test_equals_json_dumps_of_stringified_payload(self, payload):
        assert _render_json(payload) == json.dumps(stringify(payload), indent=2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            _render_json({"x": 1.5})


class TestOneSubparser:
    """Building only the named subcommand's parser changes no output: over each
    line the parser refuses and each help line here, and over each answered
    line in ``test_answers.py``."""

    @pytest.mark.parametrize(
        "line",
        [row.line for row in REFUSALS if row.stderr.startswith("usage: ")]
        + ["-h", *(f"{command} -h" for command in COMMANDS)],
        ids=line_id,
    )
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, line):
        monkeypatch.setenv("COLUMNS", "80")
        run_both_parsers(capsys, monkeypatch, *line.split())


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

    def test_quadrics_answer_in_linear_time(self):
        # 200 quadrics at index 1: each delta_j is one binomial, read in O(1);
        # the one second includes starting the interpreter
        start = time.perf_counter()
        done = self.fanolg("hodge", "--dim", "200", "--degrees", ",".join(["2"] * 200),
                           "--format", "json")
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stderr) == (0, "")
        ci = CompleteIntersection(200, (2,) * 200)
        assert json.loads(done.stdout)["h"] == str(agreed(ci, RING))

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
