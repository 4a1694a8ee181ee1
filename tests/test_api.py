import ast
import pathlib
import types

import pytest

import hilbertgeom

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "hilbertgeom").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))


def test_public_names_are_unique_and_resolve():
    # a deleted export must not leave its name behind in __all__
    names = hilbertgeom.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(hilbertgeom, name)


def test_public_names_are_the_submodules_definitions():
    # __all__ is derived from the package's imports: it must pick up no
    # submodule, no private name and nothing defined outside the package
    for name in hilbertgeom.__all__:
        value = getattr(hilbertgeom, name)
        assert not isinstance(value, types.ModuleType), name
        assert not name.startswith("_"), name
        assert value.__module__.startswith("hilbertgeom."), name
    assert "pin_malloc_thresholds" not in hilbertgeom.__all__


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(hilbertgeom.__all__)  # the package's imports are its exports
    assert sorted(imported - used) == []
