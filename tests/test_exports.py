"""Every exported name of hbplate resolves: each entry of ``__all__`` in
the package and in its modules is bound, so deleting a name cannot leave a
stale export behind."""

import importlib
import pkgutil

import pytest

import hbplate

MODULES = ["hbplate"] + ["hbplate." + m.name for m in pkgutil.iter_modules(hbplate.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "%s.__all__ repeats a name" % name
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, "%s.__all__ names unbound %s" % (name, missing)


def test_star_import():
    namespace = {}
    exec("from hbplate import *", namespace)
    assert set(hbplate.__all__) <= set(namespace)
