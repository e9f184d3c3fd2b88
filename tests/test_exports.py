"""The package root re-exports only what its modules export.

For every module that `lorsurf/__init__.py` imports from, each name in the
module's `__all__` exists, and each name the package imports from it is in
that `__all__`; so a deleted name cannot stay behind in an export list.
`lorsurf.errors` has no `__all__` and is skipped.
"""

import ast
import importlib

import pytest

import lorsurf


def _package_imports():
    """{module: [names]} of the package root's relative `from .module import` statements."""
    with open(lorsurf.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return imports


IMPORTS = _package_imports()


@pytest.mark.parametrize("module", sorted(m for m in IMPORTS if m != "errors"))
def test_export_list_names_real_names_and_covers_the_package_imports(module):
    mod = importlib.import_module(f"lorsurf.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in IMPORTS[module] if name not in mod.__all__] == []


def test_the_parse_finds_every_module_the_package_imports_from():
    assert sorted(IMPORTS) == ["canonical", "chart", "chartio", "corpus", "errors",
                               "minkowski", "natural", "reconstruct", "surfaces"]
