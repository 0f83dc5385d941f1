"""The package's public API, as ``fanolg.__init__`` states it."""

from types import ModuleType

import fanolg


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
