"""The names that ``bench/tracer.py`` wraps still exist in hbplate.

The tracer replaces (module, name) pairs in hbplate's modules for the
length of a study. A name deleted from a module would only show up as a
failure of the bench's traced study; this reads the tracer's TIMED and
COUNTED tables without importing or running it and checks every pair
against the modules, in well under a second.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_tables():
    """The literal values of TIMED and COUNTED in the tracer's source."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def wrapped_names():
    tables = tracer_tables()
    assert set(tables) == {"TIMED", "COUNTED"}
    return sorted({(module, name) for module, name, _ in tables["TIMED"] + tables["COUNTED"]})


@pytest.mark.parametrize("module,name", wrapped_names())
def test_wrapped_name_is_bound(module, name):
    assert hasattr(importlib.import_module("hbplate." + module), name), (
        "bench/tracer.py wraps hbplate.%s.%s, which no longer exists" % (module, name))
