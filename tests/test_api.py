import ast
import importlib
import inspect
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


# every public callable that takes a parameter with a default, and those
# parameters: settings that take one value in the lab are module constants,
# so a new option has to change this pin
_DEFAULTED_PARAMETERS = {
    "Ellipse": ["center", "semi_axes", "rotation"],
    "FourPointConfig": ["budget", "seed"],
    "IdealTriangle": ["invalid_reason"],
    "PBall": ["center", "scale"],
    "RegularityReport": ["non_strictly_convex"],
    "SampledFunction": ["derivative"],
    "ThinTriangleConfig": ["budget", "seed"],
    "TriangleSamplerConfig": ["budget", "seed", "tol"],
    "ball_area": ["tol"],
    "boundary_graph": ["n"],
    "delta_four_point": ["config"],
    "delta_thin": ["config"],
    "densities": ["n_dirs", "validate"],
    "hilbert_distances": ["validate"],
    "ideal_triangle_area": ["tol"],
    "ideal_triangle_area_detail": ["tol"],
    "point_to_segment_distances": ["validate"],
    "region_area": ["tol", "max_depth", "max_points", "n_dirs"],
    "regular_polygon": ["circumradius", "center", "phase"],
    "run_suite": ["budget", "seed", "tol"],
    "sup_area_search": ["config"],
    "unit_ball_areas": ["n_dirs"],
}


def test_public_defaulted_parameters_are_pinned():
    found = {}
    for name in hilbertgeom.__all__:
        value = getattr(hilbertgeom, name)
        if isinstance(value, type) and issubclass(value, Exception):
            continue  # exceptions take only their message
        params = inspect.signature(value).parameters.values()
        defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if defaulted:
            found[name] = defaulted
    assert found == _DEFAULTED_PARAMETERS


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


def test_benchmark_trace_spans_resolve():
    # the benchmark's tracer wraps these entry points by name at run time:
    # a deleted or renamed one would fail only a traced benchmark run
    tree = ast.parse((_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    spans = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    for module, entries in ast.literal_eval(spans).items():
        for name in entries:
            assert callable(getattr(importlib.import_module(f"hilbertgeom.{module}"), name, None)), f"{module}.{name}"
