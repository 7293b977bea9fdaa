"""Every exported name exists, so a stale export fails here and not in a
user's ``from spinsq.<module> import *``."""

import ast
import importlib
from pathlib import Path

import pytest

import spinsq

MODULES = ("states", "schemes", "variance", "hypothesis", "montecarlo", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"spinsq.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from spinsq.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_exist():
    tree = ast.parse(Path(spinsq.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in imported} == set(MODULES) - {"cli"}
    for module, name in imported:
        source = importlib.import_module(f"spinsq.{module}")
        assert getattr(spinsq, name) is getattr(source, name), (module, name)
