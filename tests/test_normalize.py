import itertools
import math

import numpy as np
import pytest

from hilbertgeom import normalize as normalize_module
from hilbertgeom.cli import main
from hilbertgeom.domains import (
    Ellipse,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    regular_polygon,
    unit_disk,
)
from hilbertgeom.errors import (
    ImproperImage,
    InsufficientSignal,
    InvalidTriangle,
    PreconditionViolated,
    SingularConstraints,
    StripTooWide,
)
from hilbertgeom.metric import hilbert_distances
from hilbertgeom.normalize import (
    GraphStrip,
    NormalizationResult,
    _candidate,
    boundary_graph,
    graph_alpha_fit,
    normalize_many,
    normalize_triangle_pointed,
)
from hilbertgeom.triangles import ideal_triangle_from_points, make_ideal_triangle

# frozen outputs
P4_ASYMMETRIC_ALPHA = 0.20280594289506867

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
TARGETS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_boundary_graph_disk_matches_circle():
    strip = boundary_graph(unit_disk(), [0.0, -1.0], [1.0, 0.0], 0.5)
    x = strip.x
    exact = 1.0 - np.sqrt(1.0 - x * x)
    assert np.max(np.abs(strip.f - exact)) <= 1e-12
    assert strip.f[-1] == pytest.approx(1.0 - math.sqrt(0.75), abs=1e-12)
    # secant coefficients are consistent with the stored samples
    assert strip.f[0] == pytest.approx(strip.b - strip.s * strip.rho, abs=1e-12)


def test_boundary_graph_quartic_ball():
    strip = boundary_graph(PBall(4.0), [0.0, -1.0], [1.0, 0.0], 0.5)
    exact = 1.0 - (1.0 - strip.x**4) ** 0.25
    assert np.max(np.abs(strip.f - exact)) <= 1e-9
    assert strip.f[-1] == pytest.approx(1.0 - 0.9375**0.25, abs=1e-12)


def test_boundary_graph_auto_frame_from_vector():
    # a bare tangent direction is completed to the inward frame
    strip = boundary_graph(unit_disk(), [0.0, -1.0], np.array([1.0, 0.0]), 0.3)
    assert strip.f[(len(strip.f) - 1) // 2] <= 1e-12
    assert np.all(strip.f >= 0.0)


def test_boundary_graph_preconditions():
    disk = unit_disk()
    with pytest.raises(PreconditionViolated):
        boundary_graph(disk, [0.0, -0.5], [1.0, 0.0], 0.3)  # not a boundary point
    with pytest.raises(PreconditionViolated):
        boundary_graph(disk, [0.0, -1.0], [0.0, 1.0], 0.3)  # x-axis not tangent
    with pytest.raises(PreconditionViolated, match="extends below"):
        # within the boundary tolerance, but 4e-8 inside
        boundary_graph(disk, [0.0, -1.0 + 4e-8], [1.0, 0.0], 0.3)
    with pytest.raises(StripTooWide):
        boundary_graph(disk, [0.0, -1.0], [1.0, 0.0], 1.2)


def _bisected_heights(domain, point, frame, strip):
    """Boundary heights over the strip's grid by 60 rounds of bisection on the
    gauge along each vertical line: the reference for the chord cast."""
    sc = domain.scale()
    x = strip.x
    world = lambda y: point + np.stack([x, y], axis=-1) @ frame
    # any interior start gives the same heights: just above the cap line
    y_hi = strip.s * x + strip.b + 1e-7 * sc
    assert np.all(domain.gauge(world(y_hi)) < 0.0)
    y_lo = np.full(len(x), -1e-9 * sc)
    for _ in range(60):
        y_m = 0.5 * (y_lo + y_hi)
        inside = domain.gauge(world(y_m)) < 0.0
        y_hi = np.where(inside, y_m, y_hi)
        y_lo = np.where(inside, y_lo, y_m)
    return np.maximum(0.5 * (y_lo + y_hi), 0.0)


_GRAPH_CASES = {
    "disk": (unit_disk(), [0.0, -1.0], 0.5),
    "rotated ellipse": (Ellipse((0.1, 0.2), (1.5, 0.7), 0.4), -1.3, 0.3),
    "square edge": (Polygon(SQUARE), [0.5, 0.0], 0.3),
    "hexagon vertex": (regular_polygon(6), [1.0, 0.0], 0.2),
    "pball4": (PBall(4.0), [0.0, -1.0], 0.5),
    "pball1.5": (PBall(1.5), -1.3, 0.3),
    "smoothed square": (SmoothedPolygon(SQUARE, 0.1), -1.3, 0.1),
    "power cap": (PowerCap(2.0), [0.0, 0.0], 0.5),
    "projective pball4": (
        ProjectiveImage(PBall(4.0), ProjectiveMap([[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.15, 0.1, 1.0]])),
        -1.3,
        0.2,
    ),
}


@pytest.mark.parametrize("name", sorted(_GRAPH_CASES))
def test_boundary_graph_matches_bisection_reference(name):
    domain, point, rho = _GRAPH_CASES[name]
    # a bare float is a boundary parameter
    p0 = domain.boundary_points([point])[0] if isinstance(point, float) else np.asarray(point)
    line = domain.supporting_line(p0)
    frame = np.array([[-line.v, line.u], [-line.u, -line.v]])
    strip = boundary_graph(domain, p0, frame, rho)
    ref = _bisected_heights(domain, p0, frame, strip)
    assert np.max(np.abs(strip.f - ref)) <= 2e-15 * domain.scale()


def test_graph_alpha_fit_contact_orders():
    disk_fit = graph_alpha_fit(boundary_graph(unit_disk(), [0.0, -1.0], [1.0, 0.0], 0.5))
    assert abs(disk_fit.alpha_hat - 2.0) <= 0.05
    p4_fit = graph_alpha_fit(boundary_graph(PBall(4.0), [0.0, -1.0], [1.0, 0.0], 0.5))
    assert abs(p4_fit.alpha_hat - 4.0) <= 0.1
    assert disk_fit.mu_hat > 0.0


def test_graph_alpha_fit_flat_edge_raises():
    square = Polygon(SQUARE)
    strip = boundary_graph(square, [0.5, 0.0], [1.0, 0.0], 0.3)
    assert np.max(strip.f) <= 1e-12
    with pytest.raises(InsufficientSignal):
        graph_alpha_fit(strip)


def _symmetric_disk_triangle():
    disk = unit_disk()
    period = disk.param_period
    return disk, make_ideal_triangle(disk, 0.0, period / 3.0, 2.0 * period / 3.0)


def test_normalize_disk_symmetric_triangle():
    disk, tri = _symmetric_disk_triangle()
    res = normalize_triangle_pointed(disk, tri)
    assert res.alpha == pytest.approx(0.5, abs=1e-9)
    assert res.vertex_residual <= 1e-8
    assert res.tangency_residual <= 1e-8
    assert res.permutation == (0, 1, 2)
    V = tri.vertices()[list(res.permutation)]
    mapped = ProjectiveMap(res.matrix).apply_many(V)
    assert np.max(np.abs(mapped - TARGETS)) <= 1e-8


def test_normalize_conic_always_half():
    # conics are projectively round: every ideal triangle normalizes to 1/2
    disk = unit_disk()
    period = disk.param_period
    for ts in ((0.05, 0.4, 0.77), (0.11, 0.45, 0.62), (0.0, 0.21, 0.5)):
        tri = make_ideal_triangle(disk, *(t * period for t in ts))
        res = normalize_triangle_pointed(disk, tri)
        assert res.alpha == pytest.approx(0.5, abs=1e-9)
    ell = Ellipse(semi_axes=(1.4, 0.7), rotation=0.4)
    tri = make_ideal_triangle(ell, 0.3, 2.1, 4.4)
    res = normalize_triangle_pointed(ell, tri)
    assert res.alpha == pytest.approx(0.5, abs=1e-9)


def test_normalize_pball_asymmetric_alpha_below_half():
    dom = PBall(4.0)
    period = dom.param_period
    tri = make_ideal_triangle(dom, 0.03 * period, 0.30 * period, 0.55 * period)
    res = normalize_triangle_pointed(dom, tri)
    assert res.alpha == pytest.approx(P4_ASYMMETRIC_ALPHA, abs=1e-9)
    assert 0.0 < res.alpha < 0.5
    assert res.vertex_residual <= 1e-8


def test_normalize_is_idempotent():
    dom = PBall(4.0)
    period = dom.param_period
    tri = make_ideal_triangle(dom, 0.03 * period, 0.30 * period, 0.55 * period)
    res = normalize_triangle_pointed(dom, tri)
    target_tri = ideal_triangle_from_points(res.domain, TARGETS)
    assert target_tri.validity
    res2 = normalize_triangle_pointed(res.domain, target_tri)
    M = np.asarray(res2.matrix)
    M = M / M[np.unravel_index(np.argmax(np.abs(M)), M.shape)]
    assert np.max(np.abs(M - np.eye(3))) <= 1e-8
    assert res2.alpha == pytest.approx(res.alpha, abs=1e-9)


def test_normalize_preserves_distances():
    dom = PBall(3.0)
    period = dom.param_period
    tri = make_ideal_triangle(dom, 0.08 * period, 0.41 * period, 0.69 * period)
    res = normalize_triangle_pointed(dom, tri)
    rng = np.random.default_rng(11)
    P, Q = [], []
    while len(P) < 6:
        cand = rng.uniform(-0.8, 0.8, (2, 2))
        if np.all(dom.gauge(cand) < -1e-3):
            P.append(cand[0])
            Q.append(cand[1])
    P, Q = np.array(P), np.array(Q)
    d0 = hilbert_distances(dom, P, Q)
    H = ProjectiveMap(res.matrix)
    d1 = hilbert_distances(res.domain, H.apply_many(P), H.apply_many(Q))
    assert np.max(np.abs(d1 - d0) / np.maximum(d0, 1e-12)) <= 1e-9


def test_normalize_rejects_invalid_triangle():
    square = Polygon(SQUARE)
    tri = make_ideal_triangle(square, 0.0, 0.25, 0.5)
    with pytest.raises(InvalidTriangle):
        normalize_triangle_pointed(square, tri)


def test_normalize_many_shares_min_alpha():
    disk, sym = _symmetric_disk_triangle()
    dom = PBall(4.0)
    period = dom.param_period
    asym = make_ideal_triangle(dom, 0.03 * period, 0.30 * period, 0.55 * period)
    results = normalize_many([(disk, sym), (dom, asym)])
    assert len(results) == 2
    floor = min(r.alpha for r in results)
    assert all(r.e_report == floor for r in results)
    assert floor == pytest.approx(P4_ASYMMETRIC_ALPHA, abs=1e-9)
    assert normalize_many([]) == []


def test_normalization_result_serializes():
    disk, tri = _symmetric_disk_triangle()
    res = normalize_triangle_pointed(disk, tri)
    blob = res.to_jsonable()
    assert set(blob) >= {"matrix", "alpha", "vertex_residual", "tangency_residual", "permutation", "e_report"}
    assert len(blob["matrix"]) == 3 and len(blob["matrix"][0]) == 3


@pytest.mark.parametrize("rho", [0.0, -0.3, math.nan])
def test_strip_half_width_must_be_positive(rho):
    with pytest.raises(ValueError, match="strip half-width"):
        boundary_graph(unit_disk(), [0.0, -1.0], [1.0, 0.0], rho)
    with pytest.raises(ValueError, match="strip half-width"):
        GraphStrip(rho=rho, s=0.0, b=0.0, f=np.zeros(5))


# ---------------------------------------------------------------------------
# two labelings suffice: the six labelings give only alpha and 1 - alpha

_EVEN = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _labeling_domains():
    disk = PBall(2.0)
    H = np.eye(3) + 0.2 * np.array([[0.1, -0.3, 0.2], [0.4, 0.0, -0.1], [0.2, 0.3, 0.0]])
    return {
        "disk": disk,
        "ellipse": Ellipse(semi_axes=(1.3, 0.8), rotation=0.3),
        "projective": ProjectiveImage(disk, ProjectiveMap(H)),
        "pball1.5": PBall(1.5),
        "pball4": PBall(4.0),
        "pball8": PBall(8.0),
        "smoothed_square": SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1),
        "pentagon": regular_polygon(5),
        "power-cap3": PowerCap(3.0),
    }


def _spread_triangles(domain, rng, count):
    """Valid ideal triangles with every parameter gap above 0.12 of the period."""
    out = []
    while len(out) < count:
        ts = np.sort(rng.uniform(0.0, 1.0, 3))
        if min(ts[1] - ts[0], ts[2] - ts[1], 1.0 - ts[2] + ts[0]) > 0.12:
            T = make_ideal_triangle(domain, *(ts * domain.param_period))
            if T.validity:
                out.append(T)
    return out


@pytest.mark.parametrize("name", sorted(_labeling_domains()))
def test_six_labelings_give_alpha_and_its_complement(name):
    dom = _labeling_domains()[name]
    for T in _spread_triangles(dom, np.random.default_rng(3), 3):
        V = T.vertices()
        lines = [dom.supporting_line(v) for v in V]
        alphas = {perm: _candidate(dom, V, lines, perm)["alpha"] for perm in itertools.permutations(range(3))}
        a0 = alphas[(0, 1, 2)]
        for perm, alpha in alphas.items():
            assert alpha == pytest.approx(a0 if perm in _EVEN else 1.0 - a0, abs=1e-7), perm


def _six_labeling_search(domain, T):
    """Reference: solve all six labelings and keep the first (in
    lexicographic order) whose alpha is within 1e-9 of the smallest."""
    V = T.vertices()
    lines = [domain.supporting_line(v) for v in V]
    candidates = [_candidate(domain, V, lines, perm) for perm in itertools.permutations(range(3))]
    best_alpha = min(c["alpha"] for c in candidates)
    chosen = next(c for c in candidates if c["alpha"] <= best_alpha + 1e-9)
    H = chosen["H"]
    H = H / H[np.unravel_index(np.argmax(np.abs(H)), H.shape)]
    return NormalizationResult(
        matrix=H,
        domain=chosen["image"],
        alpha=chosen["alpha"],
        vertex_residual=chosen["vertex_res"],
        tangency_residual=chosen["tangency_res"],
        permutation=chosen["perm"],
        e_report=chosen["alpha"],
    )


def test_two_labelings_match_six_labeling_search():
    rng = np.random.default_rng(5)
    cases = [(dom, T) for dom in _labeling_domains().values() for T in _spread_triangles(dom, rng, 4)]
    for p in rng.uniform(1.5, 8.0, 12):
        dom = PBall(float(p))
        cases += [(dom, T) for T in _spread_triangles(dom, rng, 3)]
    for dom, T in cases:
        got, ref = normalize_triangle_pointed(dom, T), _six_labeling_search(dom, T)
        if ref.permutation in ((0, 1, 2), (0, 2, 1)):
            assert np.array_equal(got.matrix, ref.matrix)
            assert (got.alpha, got.vertex_residual, got.tangency_residual, got.permutation) == (
                ref.alpha,
                ref.vertex_residual,
                ref.tangency_residual,
                ref.permutation,
            )
        else:
            # rounding noise among near-equal alphas can make the search
            # settle on another labeling of the same parity
            assert abs(got.alpha - ref.alpha) <= 1e-8
            assert (got.permutation in _EVEN) == (ref.permutation in _EVEN)


@pytest.mark.parametrize("exc", [ImproperImage, SingularConstraints])
def test_solve_failure_propagates_and_cli_exits_2(monkeypatch, capsys, exc):
    def failing(*args):
        raise exc("forced")

    monkeypatch.setattr(normalize_module, "_candidate", failing)
    disk, tri = _symmetric_disk_triangle()
    with pytest.raises(exc):
        normalize_triangle_pointed(disk, tri)
    assert main(["normalize", "--spec", '{"type": "pball", "p": 2}', "0", "2.094395", "4.188790"]) == 2
    assert "forced" in capsys.readouterr().err
