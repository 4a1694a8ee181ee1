import math

import pytest

from hilbertgeom.domains import unit_disk
from hilbertgeom.metric import hilbert_distance
from hilbertgeom.suites import (
    SUITE_ALIASES,
    SUITES,
    point_at_distance,
    power_cap_corner_bound,
    run_comparison_suite,
    run_graph_suite,
    run_suite,
)


def test_power_cap_corner_bound_closed_forms():
    # alpha=2, lam=1, tau=2/3: Lambda = 18 and the integral is 2*sqrt(2/3)
    expected = (3.0 * math.pi / 4.0) * 18.0 * 2.0 * math.sqrt(2.0 / 3.0)
    assert power_cap_corner_bound(2.0, 1.0, 2.0 / 3.0) == pytest.approx(expected, rel=1e-12)
    assert power_cap_corner_bound(1.5, 1.0, 0.5) == pytest.approx(51.76445976588787, rel=1e-9)


def test_point_at_distance_hits_target():
    disk = unit_disk()
    q = disk.interior_point()
    for d in (0.5, 2.0, 5.0):
        p = point_at_distance(disk, q, (1.0, 0.0), d)
        assert hilbert_distance(disk, q, p) == pytest.approx(d, abs=1e-9)


def test_graph_suite_passes():
    report = run_graph_suite()
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"disk-analytic", "p4-analytic", "convexity", "tangency-zero", "flat-edge-signal"} <= names
    for line in report.lines():
        assert line.startswith("PASS graph/")


def test_comparison_suite_small_budget():
    report = run_comparison_suite(pairs=12, seed=0)
    assert report.passed
    assert all("violations=0" in c.detail for c in report.checks)


def test_run_suite_dispatch_and_aliases():
    report = run_suite("graph")
    assert report.suite == "graph"
    for alias, target in SUITE_ALIASES.items():
        assert target in SUITES
    assert run_suite("lemma-a3").suite == "graph"
    with pytest.raises(KeyError):
        run_suite("nonsense")


@pytest.mark.parametrize("pairs", [0, -5])
def test_comparison_suite_rejects_no_pairs(pairs):
    with pytest.raises(ValueError, match="at least one pair"):
        run_comparison_suite(pairs=pairs)
    with pytest.raises(ValueError, match="at least one pair"):
        run_suite("comparison", budget=pairs)
