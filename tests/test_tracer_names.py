"""The names that ``bench/tracer.py`` wraps still exist in hbplate, and its
counters read the values of the program's marks.

The tracer replaces (module, name) pairs in hbplate's modules for the
length of a study. A name deleted from a module would only show up as a
failure of the bench's traced study; this reads the tracer's TIMED and
COUNTED tables without importing or running it and checks every pair
against the modules, in well under a second. The tracer imports only the
standard library, so its counters are loaded by path and fed the real
arguments and results of ``refine`` and ``mark_maximum``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hbplate.adaptivity import mark_maximum
from hbplate.hierarchy import init, refine

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


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refine_counts_read_the_marks():
    # random marks on a 3-level mesh, which the closure extends; the
    # subdivided cells are the active cells that the refinement took away
    derived = load_tracer().DERIVED
    mesh, _ = init(4, 3)
    for _ in range(2):
        mesh = refine(mesh, np.array([mesh.n_active - 1]), m=2)
    assert mesh.num_levels == 3
    eta = np.random.default_rng(3).uniform(0.0, 1.0, mesh.n_active)
    marked = mark_maximum(eta, 0.8)
    fine = refine(mesh, marked, 2)
    counts = derived["adaptivity.mark"]((eta, 0.8), marked)
    counts.update(derived["hierarchy.refine"]((mesh, marked, 2), fine))
    before, after = (set(map(tuple, m.active_elements().tolist())) for m in (mesh, fine))
    gone = before - after
    assert counts["adaptivity.marked"] == marked.size > 1
    assert counts["hierarchy.subdivided"] == len(gone)
    assert counts["adaptivity.closure_added"] == counts["hierarchy.subdivided"] - marked.size > 0
