"""Each module's ``__all__`` names what it defines, and the package re-exports only those names."""

import ast
import importlib
from pathlib import Path

import pytest

import qnmlp

MODULES = ["bench", "cli", "linalg", "mlp", "optim"]


def package_imports(module_name):
    """Names that ``qnmlp/__init__.py`` imports from ``qnmlp.<module_name>``."""
    tree = ast.parse(Path(qnmlp.__file__).read_text())
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module_name
            for alias in node.names]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist_and_cover_package_imports(module_name):
    module = importlib.import_module(f"qnmlp.{module_name}")
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
    assert [name for name in package_imports(module_name) if name not in exported] == []
