import types

import hilbertgeom


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
