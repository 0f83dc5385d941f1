"""The package's public API, as ``fanolg.__init__`` states it, and its budget
constants, as the README states them and as the refusal table exceeds them."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import fanolg
from refusals import REFUSALS

PACKAGE = Path(fanolg.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
# each module-level MAX_* assignment, as (name, module)
BUDGETS = {
    (target.id, path.stem)
    for path in PACKAGE.glob("*.py")
    for node in ast.parse(path.read_text()).body
    if isinstance(node, ast.Assign)
    for target in node.targets
    if isinstance(target, ast.Name) and target.id.startswith("MAX_")
}


def test_all_names_every_public_import():
    # __init__ imports each public name and lists it again in __all__; a name
    # added to or dropped from only one of the two shows here
    public = {
        name
        for name, value in vars(fanolg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(fanolg.__all__) == public | {"__version__"}
    assert len(fanolg.__all__) == len(set(fanolg.__all__))


def test_readme_names_every_budget_constant_with_its_module():
    text = README.read_text()
    named = set(re.findall(r"`(MAX_\w+)`\s+in\s+`(\w+)`", text))
    assert BUDGETS and named == BUDGETS
    # a MAX_* name the README gives only without its module is caught too
    assert set(re.findall(r"\bMAX_\w+", text)) == {name for name, _ in named}


def test_every_budget_constant_has_a_refusal_row():
    named = {row.budget for row in REFUSALS if row.budget}
    assert {f"{module}.{name}" for name, module in BUDGETS} <= named
    for budget in named:
        module, name = budget.split(".")
        assert hasattr(importlib.import_module(f"fanolg.{module}"), name), budget
