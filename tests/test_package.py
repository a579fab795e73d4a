import ast
import importlib
import sys
from pathlib import Path

import pytest

import orgflow

SUBMODULES = ["org", "transport", "costs", "optimize", "config"]


def test_trace_targets_resolve():
    # a traced benchmark run wraps these attributes; a missing one breaks
    # the run before it starts
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.pop(0)
    for path, attr in tracing.TARGETS:
        assert callable(getattr(tracing._resolve(path), attr)), (path, attr)


@pytest.mark.parametrize("name", [None] + SUBMODULES)
def test_exported_names_exist(name):
    module = (orgflow if name is None
              else importlib.import_module(f"orgflow.{name}"))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_public_names():
    # every name orgflow/__init__.py imports from a submodule is in that
    # submodule's __all__, so a name taken off a submodule's surface cannot
    # linger in the package namespace
    tree = ast.parse(Path(orgflow.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"orgflow.{node.module}").__all__
        stray = [alias.name for alias in node.names
                 if alias.name not in public]
        assert not stray, (node.module, stray)
