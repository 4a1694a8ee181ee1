import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertgeom.domains import (
    ConvexDomain,
    Ellipse,
    Line2,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    _UNIT_SQUARE,
    _edge_sum,
    as_points,
    domain_from_json,
    domain_from_spec,
    regular_polygon,
    unit_disk,
)
from hilbertgeom.errors import ImproperImage, NotOnBoundary
from hilbertgeom.measure import unit_ball_areas
from hilbertgeom.metric import hilbert_distances
from hilbertgeom.triangles import ideal_triangle_area, make_ideal_triangle

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
    assert np.max(np.abs(mapped @ [pushed.u, pushed.v] + pushed.w)) <= 1e-9


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


def _outward_boundary_point(dom, c, u):
    """The boundary hit from ``c`` along ``u``, moved outward by whole ulps
    until the domain's own gauge reads >= 0 there."""
    b = c + dom.ray_hits(c[None], u[None])[0] * u
    while dom.gauge(b[None])[0] < 0.0:
        b = np.nextafter(b, b + u)
    return b


@pytest.mark.parametrize(
    "dom, exterior",
    [
        (PBall(1.0), [0.473, 0.736]),  # gauge +0.088, just outside the diamond
        (PBall(4.0, center=(0.2, -0.1), scale=1.3), [1.6, 0.0]),
        pytest.param(PBall(4.0, center=(0.2, -0.1), scale=0.5), [1e308, 0.0],  # local coordinates overflow
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered in divide")),
        (PowerCap(2.0), [0.5, 0.1]),
        (SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1), [0.9, 0.5]),
        (unit_disk(), [0.8, 0.7]),
        (Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3), [0.5, 0.9]),
        (regular_polygon(4), [0.6, 0.6]),
        (ProjectiveImage(regular_polygon(4), ProjectiveMap([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])),
         [-3.0, 0.0]),
    ],
    ids=["pball1", "pball4", "pball4-far", "power-cap", "smoothed", "pball2", "ellipse", "square", "projective"],
)
def test_ray_hits_nan_for_non_interior_starts(dom, exterior):
    rng = np.random.default_rng(RNG_SEED)
    c = dom.interior_point()
    theta = rng.uniform(0.0, 2.0 * np.pi, 5)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    interior = c + 0.5 * dom.ray_hits(np.repeat(c[None], 5, axis=0), U)[:, None] * U
    boundary = _outward_boundary_point(dom, c, U[0])
    assert dom.gauge(np.array([exterior]))[0] > 0.0
    assert dom.gauge(boundary[None])[0] >= 0.0
    P = np.concatenate([interior[:2], [exterior], interior[2:4], [boundary], interior[4:]])
    V = np.concatenate([U[:2], U[:1], U[2:4], U[:1], U[4:]])
    alone = dom.ray_hits(interior, U)
    t_plus, t_minus = dom.ray_hits_both(P, V)
    for t, ref in ((dom.ray_hits(P, V), alone), (t_plus, alone), (t_minus, dom.ray_hits(interior, -U))):
        assert np.isnan(t[[2, 5]]).all()
        np.testing.assert_array_equal(np.delete(t, [2, 5]), ref)


def test_projective_ray_hits_nan_beyond_line_at_infinity():
    # the inverse map sends w = 1 - x/2 to zero at x = 2: (3, 0) pulls back
    # with a negative w, and (2, 0) with w = 0
    image = ProjectiveImage(regular_polygon(4), ProjectiveMap([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]]))
    P = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 0.0], [0.1, 0.2]])
    U = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
    t_plus, t_minus = image.ray_hits_both(P, U)
    assert np.isnan(t_plus[1:3]).all() and np.isnan(t_minus[1:3]).all()
    assert np.all(np.isfinite(t_plus[[0, 3]])) and np.all(t_plus[[0, 3]] > 0.0)


_RAY_PATHS = [
    PBall(4.0, center=(0.2, -0.1), scale=1.3),
    Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3),
    unit_disk(),
    regular_polygon(4),
    ProjectiveImage(PBall(4.0), ProjectiveMap([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])),
]


@pytest.mark.parametrize("dom", _RAY_PATHS, ids=["generic", "ellipse", "pball2", "polygon", "projective"])
def test_zero_ray_direction_raises_on_every_path(dom):
    P = np.repeat(dom.interior_point()[None], 3, axis=0)
    V = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="ray direction must be nonzero"):
        dom.ray_hits(P, V)
    with pytest.raises(ValueError, match="ray direction must be nonzero"):
        dom.ray_hits_both(P, V)


def test_polygon_ray_hits_parallel_edges_exact():
    # two edges are parallel to the ray (den == 0): they must not be hit
    square = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert square.ray_hits([[0.5, 0.5]], [[1.0, 0.0]])[0] == 0.5
    # a subnormal direction component: the masked-out -D/den overflows quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert square.ray_hits([[0.5, 0.5]], [[1.0, 5e-324]])[0] == 0.5


# The row-major polygon kernels that the edge-major ones replaced, kept as
# references: an (n, k) slack array reduced along axis 1.  Their ray cast has
# no exterior-start mask; the points they are compared on are all interior.
# Their products are elementwise sums like the kernels' (a BLAS product
# rounds a row by its place in the batch), so only the layout differs.


def _rowmajor_dots(X, N):
    return X[:, :1] * N[:, 0] + X[:, 1:] * N[:, 1]


def _rowmajor_polygon_gauge(self, P):
    D = _rowmajor_dots(as_points(P), self._edge_normals) - self._edge_offsets
    return D.max(axis=1)


def _rowmajor_polygon_boundary_normals(self, B):
    D = _rowmajor_dots(as_points(B), self._edge_normals) - self._edge_offsets
    return self._edge_normals[np.argmax(D, axis=1)]


def _rowmajor_polygon_ray_hits(self, P, V):
    P = as_points(P)
    V = as_points(V)
    norms = np.hypot(V[:, 0], V[:, 1])
    U = V / norms[:, None]
    den = _rowmajor_dots(U, self._edge_normals)
    num = self._edge_offsets - _rowmajor_dots(P, self._edge_normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(den > 1e-300, num / den, np.inf)
    t = np.where(t >= 0.0, t, np.inf)
    return t.min(axis=1)


def _rowmajor_polygon_ray_hits_both(self, P, V):
    return _rowmajor_polygon_ray_hits(self, P, V), _rowmajor_polygon_ray_hits(self, P, -as_points(V))


def _rowmajor_smoothed_gauge(self, P):
    A = (_rowmajor_dots(as_points(P), self._poly._edge_normals) - self._poly._edge_offsets) / self.smoothing
    m = A.max(axis=1)
    return self.smoothing * (m + np.log(np.exp(A - m[:, None]).sum(axis=1)))


def _rowmajor_smoothed_gauge_grad(self, P):
    A = (_rowmajor_dots(as_points(P), self._poly._edge_normals) - self._poly._edge_offsets) / self.smoothing
    W = np.exp(A - A.max(axis=1)[:, None])
    W = W / W.sum(axis=1)[:, None]
    N = self._poly._edge_normals
    return np.stack([(W * N[:, 0]).sum(axis=1), (W * N[:, 1]).sum(axis=1)], axis=1)


def _rowmajor_smoothed_boundary_normals(self, B):
    A = (_rowmajor_dots(as_points(B), self._poly._edge_normals) - self._poly._edge_offsets) / self.smoothing
    W = np.exp(A - A.max(axis=1)[:, None])
    W = W / W.sum(axis=1)[:, None]
    N = self._poly._edge_normals
    G = np.stack([(W * N[:, 0]).sum(axis=1), (W * N[:, 1]).sum(axis=1)], axis=1)
    return G / np.hypot(G[:, 0], G[:, 1])[:, None]


def _use_row_major_kernels(monkeypatch):
    monkeypatch.setattr(Polygon, "gauge", _rowmajor_polygon_gauge)
    monkeypatch.setattr(Polygon, "boundary_normals", _rowmajor_polygon_boundary_normals)
    monkeypatch.setattr(Polygon, "ray_hits_both", _rowmajor_polygon_ray_hits_both)
    monkeypatch.setattr(SmoothedPolygon, "gauge", _rowmajor_smoothed_gauge)
    monkeypatch.setattr(SmoothedPolygon, "gauge_and_grad",
                        lambda self, P: (_rowmajor_smoothed_gauge(self, P), _rowmajor_smoothed_gauge_grad(self, P)))
    monkeypatch.setattr(SmoothedPolygon, "boundary_normals", _rowmajor_smoothed_boundary_normals)


_POLYGON_FAMILY = (
    "square", "triangle", "hexagon", "pentagon", "smoothed", "smoothed0.05", "smoothed0.2", "projective-square",
)


def _edge_kernel_outputs(dom, P, U):
    t = dom.ray_hits(P, U)
    out = {"gauge": dom.gauge(P), "ray_hits": t, "boundary_normals": dom.boundary_normals(P + t[:, None] * U)}
    if isinstance(dom, SmoothedPolygon):
        out["gauge_and_grad.gauge"], out["gauge_and_grad.grad"] = dom.gauge_and_grad(P)
    return out


def test_edge_major_kernels_match_row_major(equivalence_domains, monkeypatch):
    rng = np.random.default_rng(RNG_SEED)
    cases = []
    for name in _POLYGON_FAMILY:
        dom, P, _ = equivalence_domains[name]
        theta = rng.uniform(0.0, 2.0 * np.pi, len(P))
        U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        cases.append((name, dom, P, U, _edge_kernel_outputs(dom, P, U)))
    _use_row_major_kernels(monkeypatch)
    for name, dom, P, U, new in cases:
        ref = _edge_kernel_outputs(dom, P, U)
        assert new.keys() == ref.keys(), name
        for kernel in ref:
            try:
                np.testing.assert_array_max_ulp(new[kernel], ref[kernel], maxulp=1)
            except AssertionError as exc:
                raise AssertionError(f"{name} {kernel}: {exc}") from None


@pytest.mark.parametrize(
    "dom, tol",
    [(regular_polygon(4), 1e-3), (SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1), 1e-2)],
    ids=["square", "smoothed"],
)
def test_ideal_triangle_area_unchanged_by_edge_major_kernels(dom, tol, monkeypatch):
    tri = make_ideal_triangle(dom, 0.05, 0.05 + dom.param_period / 3.0, 0.05 + 2.0 * dom.param_period / 3.0)
    new = ideal_triangle_area(dom, tri, tol=tol)
    _use_row_major_kernels(monkeypatch)
    assert ideal_triangle_area(dom, tri, tol=tol) == new


# The per-class boundary normals that the shared normalised gradient
# replaced, kept as references.


def _own_ellipse_normals(self, B):
    Z = self._local(as_points(B))
    G = (Z * self._inv_axes) @ self._rot.T
    return G / np.hypot(G[:, 0], G[:, 1])[:, None]


def _own_pball_normals(self, B):
    Z = (as_points(B) - self.center) / self.radius
    G = np.sign(Z) * np.abs(Z) ** (self.p - 1.0)
    n = np.hypot(G[:, 0], G[:, 1])
    return G / np.where(n == 0.0, 1.0, n)[:, None]


def _own_power_cap_normals(self, B):
    Q = as_points(B)
    lower = (np.abs(Q[:, 0]) ** self.alpha - Q[:, 1]) >= (Q[:, 1] - 1.0)
    gx = np.where(lower, self.alpha * np.sign(Q[:, 0]) * np.abs(Q[:, 0]) ** (self.alpha - 1.0), 0.0)
    gy = np.where(lower, -1.0, 1.0)
    G = np.stack([gx, gy], axis=1)
    return G / np.hypot(G[:, 0], G[:, 1])[:, None]


def _own_smoothed_normals(self, B):
    G = self.gauge_and_grad(B)[1]
    return G / np.hypot(G[:, 0], G[:, 1])[:, None]


@pytest.mark.parametrize(
    "dom, own",
    [
        (Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3), _own_ellipse_normals),
        (PBall(1.0), _own_pball_normals),
        (PBall(1.5), _own_pball_normals),
        (PBall(4.0, center=(0.2, -0.1), scale=1.3), _own_pball_normals),
        (PBall(20.0), _own_pball_normals),
        (PowerCap(2.0), _own_power_cap_normals),
        (PowerCap(3.5), _own_power_cap_normals),
        (SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1), _own_smoothed_normals),
    ],
    ids=["ellipse", "pball1", "pball1.5", "pball4", "pball20", "power-cap2", "power-cap3.5", "smoothed"],
)
def test_shared_boundary_normals_match_per_class_formulas(dom, own):
    ts = np.concatenate([np.random.default_rng(RNG_SEED).uniform(0.0, dom.param_period, 500),
                         np.arange(8) * dom.param_period / 8.0])
    B = dom.boundary_points(ts)
    np.testing.assert_array_max_ulp(dom.boundary_normals(B), own(dom, B), maxulp=4)


def test_shared_boundary_normals_zero_gradient_gives_zero_row():
    assert np.array_equal(PBall(4.0).boundary_normals([[0.0, 0.0]]), [[0.0, 0.0]])


# The ray casts that Newton from the outer polygon and the shared conic root
# replaced, kept as references: the generic solver (a bracket from the
# bounding radius, 12 bisection steps, then at most 10 Newton steps on all
# rows at once, clipped to [0, hi] and restarted from hi on a non-positive
# slope), and the inline conic roots of Ellipse and PBall(2).


def _reference_generic_ray_hits(self, P, V):
    P, U = self._unit_rays(P, V)
    anchor = self.interior_point()
    hi = np.hypot(P[:, 0] - anchor[0], P[:, 1] - anchor[1]) + 1.05 * self.bounding_radius() + 1e-9
    lo = np.zeros_like(hi)
    interior = self.gauge(P) < 0.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        inside = self.gauge(P + mid[:, None] * U) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(10):
        X = P + t[:, None] * U
        g = self.gauge(X)
        slope = np.einsum("ij,ij->i", self.gauge_and_grad(X)[1], U)
        ok = slope > 0.0
        t_new = np.clip(np.where(ok, t - g / np.where(ok, slope, 1.0), hi), 0.0, hi)
        converged = np.all(np.abs(t_new - t) <= 1e-16 * (1.0 + t))
        t = t_new
        if converged:
            break
    return np.where(interior, t, np.nan)


def _reference_generic_ray_hits_both(self, P, V):
    return _reference_generic_ray_hits(self, P, V), _reference_generic_ray_hits(self, P, -as_points(V))


def _reference_ellipse_ray_hits(self, P, V):
    P = as_points(P)
    V = as_points(V)
    U = V / np.hypot(V[:, 0], V[:, 1])[:, None]
    Z = self._local(P)
    W = (U @ self._rot) * self._inv_axes
    A = np.einsum("ij,ij->i", W, W)
    B = np.einsum("ij,ij->i", Z, W)
    C = np.einsum("ij,ij->i", Z, Z) - 1.0
    C = np.where(C < 0.0, C, np.nan)
    disc = np.sqrt(B * B - A * C)
    return np.where(B > 0.0, -C / (B + disc), (disc - B) / A)


def _reference_disk_ray_hits(self, P, V):
    P = as_points(P)
    V = as_points(V)
    U = V / np.hypot(V[:, 0], V[:, 1])[:, None]
    Z = (P - self.center) / self.radius
    B = np.einsum("ij,ij->i", Z, U)
    C = np.einsum("ij,ij->i", Z, Z) - 1.0
    C = np.where(C < 0.0, C, np.nan)
    disc = np.sqrt(B * B - C)
    return np.where(B > 0.0, -C / (B + disc), disc - B) * self.radius


_GENERIC_PATH = ("pball1.5", "pball4", "pball20", "smoothed", "smoothed0.05", "smoothed0.2", "power-cap", "projective")


def _ray_cases(equivalence_domains, names):
    """Per domain: the fixture points plus one exterior start, and random
    unnormalised directions."""
    rng = np.random.default_rng(RNG_SEED)
    for name in names:
        dom, P, _ = equivalence_domains[name]
        P = np.concatenate([P, dom.interior_point()[None] + [3.0 * dom.bounding_radius(), 0.0]])
        V = rng.uniform(-2.0, 2.0, (len(P), 2))
        yield name, dom, P, V


def _both_hits(dom, P, V):
    return (dom.ray_hits(P, V),) + tuple(dom.ray_hits_both(P, V))


def test_generic_ray_hits_match_bisection_reference(equivalence_domains, monkeypatch):
    # the iterates differ by design, so the two agree to the fixture's
    # round-off tolerance rather than bit for bit
    cases = [(name, dom, P, V, _both_hits(dom, P, V)) for name, dom, P, V in
             _ray_cases(equivalence_domains, _GENERIC_PATH)]
    monkeypatch.setattr(ConvexDomain, "ray_hits_both", _reference_generic_ray_hits_both)
    for name, dom, P, V, new in cases:
        tol = np.append(equivalence_domains[name][2], 0.0)
        for sign, got, ref in zip((1.0, 1.0, -1.0), new, _both_hits(dom, P, V)):
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(got), nan) and nan[-1], name
            assert np.all(np.abs(got - ref)[~nan] <= (tol * ref)[~nan]), name
            hits = P[~nan] + sign * got[~nan, None] * V[~nan] / np.hypot(V[~nan, 0], V[~nan, 1])[:, None]
            assert np.max(np.abs(dom.gauge(hits))) <= 1e-10, name


@pytest.mark.parametrize("name, reference", [("pball2", _reference_disk_ray_hits),
                                             ("ellipse", _reference_ellipse_ray_hits)])
def test_conic_ray_hits_match_inline_roots_bitwise(equivalence_domains, name, reference):
    (_, dom, P, V), = _ray_cases(equivalence_domains, [name])
    cases = [(dom, P)]
    if name == "pball2":
        # the same points on a shifted, scaled disk
        cases.append((PBall(2.0, center=(0.2, -0.1), scale=1.3), (0.2, -0.1) + 1.3 * P))
    for dom, P in cases:
        t_plus, t_minus = dom.ray_hits_both(P, V)
        assert np.isnan(t_plus[-1])
        for got, ref in ((dom.ray_hits(P, V), reference(dom, P, V)), (t_plus, reference(dom, P, V)),
                         (t_minus, reference(dom, P, -V))):
            assert np.array_equal(got, ref, equal_nan=True)


def test_ray_hits_both_equals_two_casts(equivalence_domains):
    # one solve per chord on the closed-form paths: along -V the conic root
    # and the polygon exits come out of the same terms, bit for bit
    for name, dom, P, V in _ray_cases(equivalence_domains, equivalence_domains):
        t_plus, t_minus = dom.ray_hits_both(P, V)
        assert np.isnan(t_plus[-1]) and np.isnan(t_minus[-1]), name
        assert np.array_equal(t_plus, dom.ray_hits(P, V), equal_nan=True), name
        assert np.array_equal(t_minus, dom.ray_hits(P, -V), equal_nan=True), name


def test_row_results_do_not_depend_on_batch_shape(equivalence_domains):
    # the ray, gauge and density paths sum their small products
    # elementwise (or, on the ellipse, multiply by a C-contiguous rotation),
    # so a row rounds the same way in a batch of 130 as alone
    rng = np.random.default_rng(RNG_SEED)
    cases = {name: (dom, P) for name, (dom, P, _) in equivalence_domains.items()}
    # nine edges: numpy sums a single column of eight or more pairwise
    theta = rng.uniform(0.0, 2.0 * np.pi, 42)
    cases["smoothed-nonagon"] = (SmoothedPolygon(regular_polygon(9).vertices, smoothing=0.1),
                                 rng.uniform(0.0, 0.8, (42, 1)) * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    for name, (dom, P) in cases.items():
        P = P[rng.integers(0, len(P), 130)]
        Q = P[rng.permutation(130)]
        V = rng.uniform(-2.0, 2.0, (130, 2))
        calls = {
            "gauge": lambda s: dom.gauge(P[s]),
            "ray_hits": lambda s: dom.ray_hits(P[s], V[s]),
            "ray_hits_both": lambda s: np.stack(dom.ray_hits_both(P[s], V[s])),
            "hilbert_distances": lambda s: hilbert_distances(dom, P[s], Q[s]),
            "unit_ball_areas": lambda s: unit_ball_areas(dom, P[s], n_dirs=24),
        }
        for kernel, call in calls.items():
            rows = np.concatenate([call(slice(i, i + 1)) for i in range(130)], axis=-1)
            assert np.array_equal(call(slice(None)), rows), f"{name} {kernel}"


@pytest.mark.parametrize("name", [n for n in _GENERIC_PATH if n != "projective"])
def test_generic_gauge_nonnegative_on_outer_polygon(equivalence_domains, name):
    # the precondition of Newton's monotone descent from the outer exit;
    # p-balls cast from the unit square in their own local coordinates
    dom = equivalence_domains[name][0]
    if isinstance(dom, PBall):
        dom, outer = PBall(dom.p), _UNIT_SQUARE
    else:
        outer = dom._outer
    assert np.all(dom.gauge(outer.boundary_samples(4096)) >= 0.0)
    assert np.all(dom.gauge(outer.vertices) >= 0.0)


@pytest.mark.parametrize(
    "dom",
    [PBall(1000.0), PowerCap(8.0), SmoothedPolygon(regular_polygon(3).vertices, smoothing=0.05)],
    ids=["pball1000", "power-cap8", "smoothed-triangle"],
)
def test_generic_ray_hits_near_boundary_and_tangent(dom):
    """Starts at boundary gaps from 1e-13 to 1, half of them cast in random
    directions and half within 1e-8 to 1e-1 rad of the boundary tangent."""
    n = 400
    rng = np.random.default_rng(RNG_SEED)
    c = dom.interior_point()
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    B = c + dom.ray_hits(np.repeat(c[None], n, axis=0), U)[:, None] * U
    gap = 10.0 ** rng.uniform(-13.0, 0.0, n)
    P = c + (1.0 - gap)[:, None] * (B - c)
    N = dom.boundary_normals(B)
    tangent = np.stack([-N[:, 1], N[:, 0]], axis=1) * rng.choice([-1.0, 1.0], (n, 1))
    tilt = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, -1.0, n)
    phi = np.arctan2(tangent[:, 1], tangent[:, 0]) + tilt
    V = np.where((np.arange(n) < n // 2)[:, None], rng.normal(size=(n, 2)),
                 np.stack([np.cos(phi), np.sin(phi)], axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = dom.ray_hits(P, V)
        hits = P + t[:, None] * V / np.hypot(V[:, 0], V[:, 1])[:, None]
        assert np.all(np.isfinite(t)) and np.all(t > 0.0)
        assert np.max(np.abs(dom.gauge(hits))) <= 1e-12


def _starts_at_outer_sides(dom, rng, n):
    """Starts on, or one or two ulps inside, the sides of the domain's outer
    polygon (the square about a p-ball), near the side midpoints, where the
    two boundaries come closest."""
    if isinstance(dom, PBall):
        outer = Polygon(dom.center + dom.radius * _UNIT_SQUARE.vertices)
    else:
        outer = dom._outer
    side = rng.integers(0, len(outer.vertices), n)
    a, b = outer.vertices[side], outer.vertices[(side + 1) % len(outer.vertices)]
    f = 0.5 + rng.choice([-0.5, 0.5], (n, 1)) * 10.0 ** rng.uniform(-15.0, -1.0, (n, 1))
    B = a + f * (b - a)
    ulps = rng.integers(0, 3, (n, 1))
    for k in (1, 2):
        B = np.where(ulps >= k, np.nextafter(B, dom.interior_point()), B)
    return B


@pytest.mark.parametrize(
    "dom",
    [PBall(4.0, center=(0.25 + 2.0**-53, 0.0), scale=0.75), PBall(20.0, center=(-0.3, 0.7), scale=1.7),
     PBall(1.5, center=(1e3 / 3.0, -0.1), scale=0.3),
     SmoothedPolygon(regular_polygon(5, 1.7, (0.3, -0.2), 0.37).vertices, smoothing=1e-3),
     SmoothedPolygon(regular_polygon(3).vertices, smoothing=0.02)],
    ids=["pball4-shifted", "pball20-shifted", "pball1.5-far", "smoothed-pentagon1e-3", "smoothed-triangle"],
)
def test_generic_ray_hits_from_outer_polygon_sides(dom):
    """Starts at the outer polygon's sides, cast in small batches that mix
    them with exterior starts: NaN on exactly the rows with gauge >= 0, and
    a boundary hit on every other row."""
    rng = np.random.default_rng(RNG_SEED)
    c = dom.interior_point()
    for size in (1, 2, 3, 5, 8, 40):
        P = _starts_at_outer_sides(dom, rng, 200 * size)
        P = np.where(rng.uniform(size=(len(P), 1)) < 0.3, c + rng.uniform(5.0, 9.0, P.shape), P)
        V = rng.normal(size=P.shape)
        for P_b, V_b in zip(np.split(P, 200), np.split(V, 200)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t = dom.ray_hits(P_b, V_b)
            interior = dom.gauge(P_b) < 0.0
            assert np.array_equal(np.isnan(t), ~interior)
            hits = P_b[interior] + t[interior, None] * V_b[interior] / np.hypot(*V_b[interior].T)[:, None]
            assert np.all(t[interior] >= 0.0)
            assert np.max(np.abs(dom.gauge(hits)), initial=0.0) <= 1e-12


def test_pball_ray_hits_from_start_on_rounded_square_side():
    # c_x + r rounds to 1, so (1, 0) lies on the world square c +- r, while
    # its local coordinate (1 - c_x) / r rounds to just below 1: interior
    dom = PBall(4.0, center=(0.25 + 2.0**-53, 0.0), scale=0.75)
    P = np.repeat([[1.0, 0.0]], 16, axis=0)
    assert dom.center[0] + dom.radius == 1.0 and dom.gauge1(P[0]) < 0.0
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    t = dom.ray_hits(P, np.stack([np.cos(ang), np.sin(ang)], axis=1))
    assert np.all(np.isfinite(t)) and np.all(t >= 0.0)


# The generic chord as it was before the gauge and its gradient came from
# one call, kept as a reference: separate gauge and gradient evaluations
# (the gradients inlined per class), an einsum slope and boolean-mask
# compaction.  The refactor must not move a single bit.


def _separate_gauge_grad(self, X):
    if isinstance(self, PBall):
        Z = (as_points(X) - self.center) / self.radius
        return (self.p / self.radius) * np.sign(Z) * np.abs(Z) ** (self.p - 1.0)
    if isinstance(self, SmoothedPolygon):
        A = self._poly._slacks(X) / self.smoothing
        W = np.exp(A - A.max(axis=0))
        W /= _edge_sum(W)
        return _edge_sum(W[:, None, :] * self._poly._edge_normals[:, :, None]).T
    Q = as_points(X)
    lower = (np.abs(Q[:, 0]) ** self.alpha - Q[:, 1]) >= (Q[:, 1] - 1.0)
    gx = np.where(lower, self.alpha * np.sign(Q[:, 0]) * np.abs(Q[:, 0]) ** (self.alpha - 1.0), 0.0)
    return np.stack([gx, np.where(lower, -1.0, 1.0)], axis=1)


def _separate_newton_hits(self, P, U, rows, t_r):
    t = np.full(len(P), np.nan)
    P_r, U_r = P[rows], U[rows]
    for _ in range(64):
        X = P_r + t_r[:, None] * U_r
        slope = np.einsum("ij,ij->i", _separate_gauge_grad(self, X), U_r)
        t_new = t_r - self.gauge(X) / slope
        t[rows] = t_new
        moving = t_r - t_new > 1e-16 * (1.0 + t_r)
        if not moving.any():
            break
        rows, t_r, P_r, U_r = rows[moving], t_new[moving], P_r[moving], U_r[moving]
    return np.maximum(t, 0.0)


def _separate_ray_hits_both(self, P, V):
    P, U = self._unit_rays(P, V)
    rows = np.flatnonzero(self.gauge(P) < 0.0)
    out_plus, out_minus = self._outer_hits(P, U)
    return (_separate_newton_hits(self, P, U, rows, out_plus[rows]),
            _separate_newton_hits(self, P, -U, rows, out_minus[rows]))


def test_generic_chord_bit_identical_to_separate_gauge_and_gradient(equivalence_domains, monkeypatch):
    rng = np.random.default_rng(RNG_SEED)
    cases = []
    for name, dom, P, V in _ray_cases(equivalence_domains, _GENERIC_PATH):
        exterior = len(P) - 1
        batches = [[0], [exterior]] + [np.append(rng.integers(0, len(P), n - 1), exterior) for n in (7, 130, 5000)]
        for idx in batches:
            new = _both_hits(dom, P[idx], V[idx])
            assert np.isnan(new[0][-1]) == (idx[-1] == exterior), name
            cases.append((f"{name} n={len(idx)}", dom, P[idx], V[idx], new))
    monkeypatch.setattr(ConvexDomain, "ray_hits_both", _separate_ray_hits_both)
    for label, dom, P, V, new in cases:
        for got, want in zip(new, _both_hits(dom, P, V)):
            assert np.array_equal(got, want, equal_nan=True), label


@pytest.mark.parametrize(
    "dom",
    [Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3), PBall(1.0), PBall(1.5), PBall(2.0),
     PBall(4.0, center=(0.2, -0.1), scale=1.3), PBall(20.0),
     SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1),
     SmoothedPolygon(regular_polygon(9).vertices, smoothing=0.05), PowerCap(2.0), PowerCap(8.0)],
    ids=["ellipse", "pball1", "pball1.5", "pball2", "pball4", "pball20", "smoothed", "smoothed-nonagon",
         "power-cap2", "power-cap8"],
)
def test_gauge_and_grad_gauge_equals_gauge(dom):
    rng = np.random.default_rng(RNG_SEED)
    P = dom.interior_point() + rng.uniform(-1.2, 1.2, (300, 2)) * dom.bounding_radius()
    g, G = dom.gauge_and_grad(P)
    assert G.shape == (300, 2)
    assert np.array_equal(g, dom.gauge(P))
    for i in range(len(P)):
        g_i, G_i = dom.gauge_and_grad(P[i:i + 1])
        assert np.array_equal(g_i, dom.gauge(P[i:i + 1]))
        assert np.array_equal(g_i, g[i:i + 1]) and np.array_equal(G_i, G[i:i + 1])


_SQUARE = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]


@pytest.mark.parametrize(
    "make",
    [lambda x: PBall(x), lambda x: PBall(4.0, scale=x), lambda x: Ellipse(semi_axes=(x, 1.0)),
     lambda x: Ellipse(semi_axes=(1.0, x)), lambda x: Ellipse(rotation=x),
     lambda x: SmoothedPolygon(_SQUARE, smoothing=x), lambda x: PowerCap(x)],
    ids=["pball-p", "pball-scale", "ellipse-a", "ellipse-b", "ellipse-rotation", "smoothing", "power-cap-alpha"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_parameters(make, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            make(value)
