"""The refusal contract of the CLI, over every row of ``refusals.py``: the
row's exit code, nothing on stdout, the row's stderr exactly, with usage lines
only when the parser refused the line, no traceback, and the int-to-str digit
limit as it was."""

import re
import sys
import time

import pytest

from fanolg.cli import main
from refusals import REFUSALS, row_id


@pytest.mark.parametrize("row", REFUSALS, ids=row_id)
def test_refusal(capsys, monkeypatch, row):
    assert row.code in (2, 3) and (row.code == 3) == (row.budget is not None)
    monkeypatch.setenv("COLUMNS", "80")
    digits = sys.get_int_max_str_digits()
    start = time.perf_counter()
    try:
        code, parser = main(row.line.split()), False
    except SystemExit as exc:
        code, parser = exc.code, True
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err) == (row.code, "", row.stderr)
    *usage, last = err.splitlines()
    if parser:
        assert usage[0].startswith("usage: fanolg ") and re.match(r"fanolg( \S+)?: error: ", last)
    else:
        assert not usage and last.startswith("error: ")
    assert "Traceback" not in err
    assert sys.get_int_max_str_digits() == digits
    if row.seconds is not None:
        assert seconds < row.seconds
