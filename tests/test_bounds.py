"""The bounds contract of the CLI, over every row of ``answers.py`` and
``refusals.py`` that gives an address-space cap or a tracemalloc peak: in a
fresh interpreter, under the row's cap and with tracemalloc on when the row
gives a peak, the row's exit code, and the row's digest or else nothing on
stdout and the row's stderr exactly, within the row's ``seconds`` and under
its ``peak`` where given.  No other test module runs ``fresh.timed_main``, so
every bounded run of a command line is a row of one of the tables."""

import ast
from pathlib import Path

import pytest

import fresh
from answers import ANSWERS, Answer, digest
from refusals import REFUSALS, row_id

BOUNDED = [row for row in (*ANSWERS, *REFUSALS) if row.address_space or row.peak]


@pytest.mark.parametrize("row", BOUNDED, ids=row_id)
def test_bounded_row(row):
    # the child is stopped at a few times the row's seconds, starting the
    # interpreter included
    code, seconds, peak, out, err = fresh.timed_main(
        *row.line.split(),
        address_space=row.address_space or 0,
        traced=row.peak is not None,
        timeout=60 if row.seconds is None else 5 * row.seconds,
    )
    if isinstance(row, Answer):
        assert (code, digest((code, out, err))) == (row.code, row.digest)
    else:
        assert (code, out, err) == (row.code, "", row.stderr)
    assert row.seconds is None or seconds < row.seconds
    assert row.peak is None or peak < row.peak


def names(path):
    """Every attribute, variable and imported name in the module's code."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_other_module_runs_timed_main():
    here = Path(__file__)
    for path in here.parent.glob("*.py"):
        if path.name not in (here.name, "fresh.py"):
            assert "timed_main" not in set(names(path)), path.name
