import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertgeom.domains import (
    _NEWTON_ITERS,
    ConvexDomain,
    Ellipse,
    Line2,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    domain_from_json,
    domain_from_spec,
    regular_polygon,
    unit_disk,
)
from hilbertgeom.errors import ImproperImage, NotOnBoundary

RNG_SEED = 1918


def _all_domain_samples():
    return [
        unit_disk(),
        PBall(4.0, center=(0.2, -0.1), scale=1.3),
        PBall(1.5),
        Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3),
        Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.2),
        PowerCap(2.0),
    ]


def test_gauge_signs():
    for dom in _all_domain_samples():
        c = dom.interior_point()
        assert dom.gauge(c[None])[0] < 0.0
        far = c + np.array([10.0 * dom.bounding_radius(), 0.0])
        assert dom.gauge(far[None])[0] > 0.0


def test_boundary_points_lie_on_boundary():
    ts = np.linspace(0.0, 1.0, 17, endpoint=False)
    for dom in _all_domain_samples():
        B = dom.boundary_points(ts * dom.param_period)
        g = dom.gauge(B)
        assert np.max(np.abs(g)) <= 1e-7 * dom.scale()


def test_disk_ray_hits_exact():
    disk = unit_disk()
    p = np.array([[0.3, 0.0]])
    u = np.array([[1.0, 0.0]])
    t = disk.ray_hits(p, u)
    assert abs(t[0] - 0.7) <= 1e-12


def test_ray_hits_near_boundary_relative_accuracy():
    # a query point 1e-10 short of the boundary still resolves the gap
    disk = unit_disk()
    gap = 1e-10
    p = np.array([[1.0 - gap, 0.0]])
    u = np.array([[1.0, 0.0]])
    t = disk.ray_hits(p, u)[0]
    assert abs(t - gap) / gap <= 1e-5


def test_ray_hits_lands_on_boundary_all_domains():
    rng = np.random.default_rng(RNG_SEED)
    for dom in _all_domain_samples():
        c = dom.interior_point()
        thetas = rng.uniform(0.0, 2.0 * np.pi, 8)
        U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        P = np.repeat(c[None], 8, axis=0)
        t = dom.ray_hits(P, U)
        hits = P + t[:, None] * U
        assert np.max(np.abs(dom.gauge(hits))) <= 1e-6 * dom.scale()


def test_supporting_line_disk():
    disk = unit_disk()
    theta = 0.7
    b = np.array([np.cos(theta), np.sin(theta)])
    line = disk.supporting_line(b)
    assert abs(line.signed_distance(b)) <= 1e-9
    # interior side is negative
    assert line.signed_distance(np.zeros(2)) < 0.0
    with pytest.raises(NotOnBoundary):
        disk.supporting_line(np.array([0.5, 0.0]))


def test_polygon_vertex_params():
    square = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    params = square.vertex_params()
    corners = square.boundary_points(params)
    assert np.allclose(corners, square.vertices, atol=1e-12)


def test_line2_through_and_coefficients():
    line = Line2.through((1.0, 0.0), (1.0, 0.0))
    assert abs(line.signed_distance(np.array([1.0, 0.5]))) <= 1e-12
    assert line.signed_distance(np.array([2.0, 0.0])) > 0.0
    same = Line2.from_coefficients(2.0, 0.0, -2.0)
    assert abs(same.signed_distance(np.array([1.0, 3.0]))) <= 1e-12


def test_projective_map_roundtrip():
    rng = np.random.default_rng(RNG_SEED)
    M = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    H = ProjectiveMap(M)
    P = rng.uniform(-0.5, 0.5, (20, 2))
    Q = H.inverse().apply_many(H.apply_many(P))
    assert np.max(np.abs(Q - P)) <= 1e-9


def test_projective_push_line_incidence():
    rng = np.random.default_rng(RNG_SEED + 1)
    M = np.eye(3) + 0.15 * rng.standard_normal((3, 3))
    H = ProjectiveMap(M)
    line = Line2.through((0.0, 1.0), (0.0, 1.0))
    pushed = H.push_line(line)
    # points on the line map onto the pushed line
    pts = np.stack([np.linspace(-1.0, 1.0, 7), np.ones(7)], axis=1)
    mapped = H.apply_many(pts)
    assert np.max(np.abs(pushed.signed_distances(mapped))) <= 1e-9


def test_projective_image_proper_and_improper():
    disk = unit_disk()
    mild = ProjectiveMap(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.05, 0.0, 1.0]]))
    img = ProjectiveImage(disk, mild)
    c = img.interior_point()
    assert img.gauge(c[None])[0] < 0.0
    # a map sending a boundary point to the line at infinity is rejected
    bad = ProjectiveMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]))
    with pytest.raises(ImproperImage):
        ProjectiveImage(disk, bad)


def test_projective_image_flattens_nesting():
    disk = unit_disk()
    A = ProjectiveMap(np.array([[1.0, 0.05, 0.0], [0.0, 1.0, 0.0], [0.02, 0.0, 1.0]]))
    B = ProjectiveMap(np.array([[1.0, 0.0, 0.1], [0.03, 1.0, 0.0], [0.0, 0.01, 1.0]]))
    nested = ProjectiveImage(ProjectiveImage(disk, A), B)
    assert nested.inner is disk


def test_domain_from_spec_roundtrip():
    specs = [
        {"type": "pball", "p": 3.0, "center": [0.1, 0.2], "scale": 0.8},
        {"type": "ellipse", "semi_axes": [1.5, 0.5]},
        {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]},
        {"type": "smoothed-polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]], "smoothing": 0.3},
        {"type": "power-cap", "alpha": 2.5},
    ]
    for spec in specs:
        dom = domain_from_spec(spec)
        c = dom.interior_point()
        assert dom.gauge(c[None])[0] < 0.0
    with pytest.raises(ValueError):
        domain_from_spec({"type": "donut"})
    with pytest.raises(ValueError):
        domain_from_spec(["not", "a", "dict"])
    dom = domain_from_json('{"type": "pball", "p": 2}')
    assert abs(dom.gauge(np.array([[0.0, 0.0]]))[0] + 1.0) <= 1e-12


def test_regular_polygon_geometry():
    hexagon = regular_polygon(6, circumradius=2.0)
    radii = np.hypot(hexagon.vertices[:, 0], hexagon.vertices[:, 1])
    assert np.allclose(radii, 2.0, atol=1e-12)
    assert len(hexagon.vertices) == 6


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=30.0),
    theta=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    radial=st.floats(min_value=0.0, max_value=0.95),
)
@example(p=1.0, theta=0.0, radial=0.875)
def test_pball_ray_boundary_property(p, theta, radial):
    dom = PBall(p)
    d = np.array([np.cos(theta + 1.0), np.sin(theta + 1.0)])
    # a fraction of the way to the boundary point in direction d: the ball is
    # star-shaped about its center, so this is strictly interior for every p
    boundary = d / (np.abs(d[0]) ** p + np.abs(d[1]) ** p) ** (1.0 / p)
    start = 0.9 * radial * boundary
    u = np.array([[np.cos(theta), np.sin(theta)]])
    t = dom.ray_hits(start[None], u)[0]
    hit = start + t * u[0]
    assert t > 0.0
    assert abs(dom.gauge(hit[None])[0]) <= 1e-6


def _reference_newton_polish(self, P, U, t, hi):
    """The all-rows Newton loop the per-row version replaced: every row steps
    until all rows have converged, for at most the same number of steps."""
    if self.gauge_grad(P) is None:
        return t
    for _ in range(_NEWTON_ITERS):
        X = P + t[:, None] * U
        g = self.gauge(X)
        slope = np.einsum("ij,ij->i", self.gauge_grad(X), U)
        ok = slope > 0.0
        t_new = np.clip(np.where(ok, t - g / np.where(ok, slope, 1.0), hi), 0.0, hi)
        if np.all(np.abs(t_new - t) <= 1e-16 * (1.0 + t)):
            return t_new
        t = t_new
    return t


def test_ray_hits_match_all_rows_newton(equivalence_domains, monkeypatch):
    rng = np.random.default_rng(RNG_SEED)
    cases = []
    for name, (dom, P, tol) in equivalence_domains.items():
        theta = rng.uniform(0.0, 2.0 * np.pi, len(P))
        U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        cases.append((name, dom, P, tol, U, dom.ray_hits(P, U)))
    monkeypatch.setattr(ConvexDomain, "_newton_polish", _reference_newton_polish)
    for name, dom, P, tol, U, t in cases:
        ref = dom.ray_hits(P, U)
        assert np.all(np.abs(t - ref) <= tol * ref), name
        assert np.max(np.abs(dom.gauge(P + t[:, None] * U))) <= 1e-10, name
