"""The package's public API, as ``fanolg.__init__`` states it and as the
README's library block uses it, with one kind of result record and no
dataclass, and its budget constants, as the README states them and as the
refusal table exceeds them; and the test modules, which share helpers only
through the modules that are not tests."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import fanolg
import fresh
from refusals import REFUSALS

PACKAGE = Path(fanolg.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent
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


def test_every_readme_library_value():
    # each line of the library block runs, and a "# value" comment is the
    # repr of its line's expression
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1]
    namespace, values = {}, []
    for line in block.split("```", 1)[0].splitlines():
        code, _, value = line.partition("#")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            values.append(value.strip())
        else:
            exec(code, namespace)
    assert len(values) == 4


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


def imported_modules(path):
    """The module each import statement of ``path`` names, one per alias."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_test_module_imports_another():
    # a helper two test modules share lives beside the table it serves
    for path in TESTS.glob("test_*.py"):
        modules = list(imported_modules(path))
        assert not any(m.startswith("test_") for m in modules), (path.name, modules)


def test_every_result_record_is_a_named_tuple():
    # one kind of record, and no dataclass: the input type is a frozen slotted
    # class, since its derived fields take no part in comparison
    importers = {
        path.name for path in PACKAGE.glob("*.py") if "dataclasses" in imported_modules(path)
    }
    assert importers == set()
    classes = [getattr(fanolg, name) for name in fanolg.__all__]
    others = {
        cls.__name__
        for cls in classes
        if isinstance(cls, type) and not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
    }
    assert others == {"CompleteIntersection", "LaurentPolynomial", "BudgetExceeded"}


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, the largest module start-up could load
    done = fresh.python(
        "-c", "import sys, fanolg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
