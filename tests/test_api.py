"""Every module's public names: each name in `__all__` is defined, so that
`from fibpaths.<module> import *` works and a removal leaves no stale export."""

import importlib
import pkgutil

import pytest

import fibpaths

MODULES = ["fibpaths"] + sorted(
    "fibpaths." + info.name for info in pkgutil.iter_modules(fibpaths.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(exported) <= set(namespace)
