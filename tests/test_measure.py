import math
import resource
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom._malloc import pin_malloc_thresholds
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
from hilbertgeom.errors import PointNotInterior, RegionOutsideDomain
from hilbertgeom.measure import (
    _CELL_NODES,
    _CELL_POINTS,
    _CELL_WEIGHTS,
    _RADON_WEIGHTS,
    DENSITY_CLIP,
    _PROBE_DIRS,
    QuadratureEstimate,
    _ball_frames,
    _ball_level,
    _cell_nodes,
    _cell_values,
    _fan_cells,
    _gauss_legendre,
    _harmonic_halfwidth,
    _tri_areas,
    ball_area,
    chord_parameter_at_distance,
    densities,
    density,
    region_area,
    unit_ball_area,
    unit_ball_areas,
)


def test_klein_density_closed_form():
    disk = unit_disk()
    for r in (0.0, 0.5, 0.99):
        exact = (1.0 - r * r) ** -1.5
        assert density(disk, (r, 0.0)) == pytest.approx(exact, rel=1e-12)


def test_density_requires_interior_point():
    with pytest.raises(PointNotInterior):
        density(unit_disk(), (1.0, 0.0))


def test_density_monotone_under_inclusion():
    # shrinking the domain grows the density pointwise
    small = PBall(2.0, scale=0.8)
    big = unit_disk()
    P = np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]])
    assert np.all(densities(small, P) > densities(big, P))


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([1.5, 2.0, 4.0, 9.0]),
    x=st.floats(min_value=-0.6, max_value=0.6),
    y=st.floats(min_value=-0.6, max_value=0.6),
)
def test_density_positive_finite(p, x, y):
    dom = PBall(p)
    h = density(dom, (x, y))
    assert np.isfinite(h)
    assert h > 0.0


def test_unit_ball_area_disk_center():
    # Finsler unit ball at the disk center is the Euclidean unit disk
    assert unit_ball_area(unit_disk(), (0.0, 0.0)) == pytest.approx(math.pi, rel=1e-12)


def _points_with_gaps(domain, n, seed):
    """n interior points: half at random fractions of the way from the anchor
    to the boundary, half with boundary gaps from 1e-6 to 1 of that way."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    c = domain.interior_point()
    reach = domain.ray_hits(np.repeat(c[None], n, axis=0), U)
    frac = np.concatenate([rng.random(n // 2), 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, n - n // 2)])
    return c + (frac * reach)[:, None] * U


_EXACT_POLYGONS = {
    "triangle": regular_polygon(3),
    "square": regular_polygon(4),
    "quadrilateral": Polygon([[0.0, -1.0], [1.2, 0.1], [0.1, 0.9], [-0.7, 0.2]]),
    "heptagon": regular_polygon(7, phase=0.3),
    "16-gon": regular_polygon(16),
    # (1, 0) is a straight angle: two edges with one normal and one offset
    "straight-angle": Polygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
}
_EXACT_CONICS = {
    "disk": unit_disk(),
    "scaled-disk": PBall(2.0, center=(0.3, -0.2), scale=1.7),
    "ellipse": Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3),
}

# the classes without a closed-form unit ball
_RAY_CLASSES = {
    "pball4": PBall(4.0),
    "smoothed": SmoothedPolygon(regular_polygon(4).vertices, 0.1),
    "power-cap": PowerCap(2.0),
    "projective-disk": ProjectiveImage(unit_disk(), ProjectiveMap([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0],
                                                                   [0.2, 0.0, 1.0]])),
}


@pytest.mark.parametrize("name", list(_EXACT_POLYGONS))
def test_polygon_unit_balls_match_the_ray_quadrature(name):
    # a polygon's ball is a polygon: the trapezoid rule converges to it at
    # second order through the kinks, to 7.8e-6 at 1024 directions and
    # 5.7e-7 at 4096
    dom = _EXACT_POLYGONS[name]
    P = _points_with_gaps(dom, 40, 7)
    exact = dom._unit_ball_areas_exact(P)
    assert np.all(np.abs(exact - unit_ball_areas(dom, P, n_dirs=4096)) <= 1e-6 * exact)


@pytest.mark.parametrize("name", list(_EXACT_CONICS))
def test_conic_unit_balls_match_the_ray_quadrature(name):
    # the adapted angle integrates a conic's elliptical ball to rounding
    dom = _EXACT_CONICS[name]
    P = _points_with_gaps(dom, 40, 8)
    exact = dom._unit_ball_areas_exact(P)
    assert np.all(np.abs(exact - unit_ball_areas(dom, P, n_dirs=64)) <= 1e-9 * exact)


@pytest.mark.parametrize("dom", list(_RAY_CLASSES.values()), ids=list(_RAY_CLASSES))
def test_other_classes_take_densities_from_rays(dom):
    P = 0.3 * np.array([[0.1, 0.2], [-0.3, 0.1]]) + dom.interior_point()
    assert dom._unit_ball_areas_exact(P) is None
    assert np.array_equal(densities(dom, P, n_dirs=24), math.pi / unit_ball_areas(dom, P, n_dirs=24))


@pytest.mark.parametrize("name", ["square", "heptagon", "16-gon", "disk", "ellipse"])
def test_exact_densities_do_not_depend_on_the_batch(name):
    # 2000 rows span two _BALL_ROWS chunks; each row alone gives the same bits
    dom = {**_EXACT_POLYGONS, **_EXACT_CONICS}[name]
    P = _points_with_gaps(dom, 2000, 9)
    whole = densities(dom, P)
    assert np.array_equal(whole, np.concatenate([densities(dom, p[None]) for p in P]))


@pytest.mark.parametrize("dom", [regular_polygon(4), unit_disk(), Ellipse(semi_axes=(1.3, 0.8), rotation=0.3),
                                 PBall(4.0), SmoothedPolygon(regular_polygon(4).vertices, 0.1)],
                         ids=["square", "disk", "ellipse", "pball4", "smoothed"])
def test_points_not_interior_get_nan(dom):
    # outside, on the boundary (the first point along a ray from the anchor
    # with gauge >= 0) and far off; the interior rows keep their values
    c = dom.interior_point()
    B = dom.boundary_points(np.array([0.0]))[0]
    while dom.gauge1(B) < 0.0:
        B = np.nextafter(B, B + (B - c))
    P = np.array([c + 1.5 * (B - c), B, c + 0.5 * (B - c), c + [40.0, -30.0], c])
    h = densities(dom, P, n_dirs=24, validate=False)
    assert np.all(np.isnan(h[[0, 1, 3]]))
    assert np.array_equal(h[[2, 4]], densities(dom, P[[2, 4]], n_dirs=24))
    with pytest.raises(PointNotInterior):
        densities(dom, P, n_dirs=24)
    with pytest.raises(PointNotInterior):
        unit_ball_areas(dom, P, n_dirs=24)


@pytest.mark.parametrize("dom", [regular_polygon(4), PBall(4.0)], ids=["closed", "rays"])
@pytest.mark.parametrize("f", [densities, unit_ball_areas], ids=["densities", "unit_ball_areas"])
@pytest.mark.parametrize("n_dirs", [24.5, 24.0, True, 8])
def test_bad_direction_counts_raise(dom, f, n_dirs):
    # a float count would be rounded or truncated silently, and fewer than
    # 16 directions cannot resolve a unit ball
    with pytest.raises(ValueError):
        f(dom, [[0.1, 0.2]], n_dirs=n_dirs)


_DIRECTION_COUNT_ENTRIES = {
    "region_area": lambda n: region_area(unit_disk(), [[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]], n_dirs=n),
    "empty-region_area": lambda n: region_area(unit_disk(), [], n_dirs=n),
}


@pytest.mark.parametrize("entry, n_dirs", [
    ("region_area", 24.5), ("region_area", 24.0), ("region_area", 8),
    ("empty-region_area", 24.5), ("empty-region_area", 8),
])
def test_bad_direction_counts_raise_on_entry(entry, n_dirs):
    # checked before any ray is cast: an empty region returned 0 whatever
    # the count
    with pytest.raises(ValueError, match="n_dirs|directions"):
        _DIRECTION_COUNT_ENTRIES[entry](n_dirs)


@pytest.mark.parametrize("region", [[[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]], []], ids=["triangle", "empty"])
@pytest.mark.parametrize("field, value", [("max_depth", 2.5), ("max_depth", 0), ("max_depth", -3), ("max_depth", True),
                                          ("max_points", 0), ("max_points", True), ("max_points", 2.5)])
def test_region_area_rejects_bad_limits_on_entry(region, field, value):
    # a depth cap of 2.5 refined to depth 3, and a cap or budget below 1
    # returned the fan estimate, far from tol, as converged
    with pytest.raises(ValueError, match=field):
        region_area(unit_disk(), region, tol=1e-9, **{field: value})


@pytest.mark.parametrize("inner, tol", [(unit_disk(), 1e-9), (regular_polygon(4), 1e-5)], ids=["disk", "square"])
def test_projective_unit_balls_scale_by_the_jacobian(inner, tol):
    # H maps the ball at x onto the ball at H(x), so areas scale by
    # |det DH(x)| = |det M| / |w(x)|^3; the image stays on rays, which at
    # 2048 directions agree to 6.4e-11 on the disk (rounding, largest at the
    # gaps of 1e-6) and 2.9e-6 on the square
    M = np.array([[1.0, 0.2, 0.1], [-0.1, 0.9, 0.0], [0.3, -0.2, 1.0]])
    image = ProjectiveImage(inner, ProjectiveMap(M))
    X = _points_with_gaps(inner, 40, 10)
    w = X @ M[2, :2] + M[2, 2]
    expected = inner._unit_ball_areas_exact(X) * abs(np.linalg.det(M)) / np.abs(w) ** 3
    got = unit_ball_areas(image, image.map.apply_many(X), n_dirs=2048)
    assert np.all(np.abs(got - expected) <= tol * expected)


def test_klein_ball_areas_closed_form():
    # the first level's own estimate accepts every disk ball
    disk = unit_disk()
    for q, R in (((0.0, 0.0), 0.5), ((0.0, 0.0), 1.0), ((0.0, 0.0), 2.0), ((0.3, -0.2), 3.5)):
        est = ball_area(disk, q, R)
        exact = 4.0 * math.pi * math.sinh(R / 2.0) ** 2
        assert not est.diverged
        assert est.depth == 0
        assert est.value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert type(est.value) is float and type(est.error_bound) is float


def test_ball_area_isometry_invariant():
    # hyperbolic balls have the same area wherever they sit
    disk = unit_disk()
    a = ball_area(disk, (0.0, 0.0), 1.0).value
    b = ball_area(disk, (0.5, 0.0), 1.0).value
    c = ball_area(disk, (0.0, -0.7), 1.0).value
    assert b == pytest.approx(a, rel=1e-9)
    assert c == pytest.approx(a, rel=1e-9)


def test_ball_area_pball_sane():
    est = ball_area(PBall(4.0), (0.1, 0.0), 2.0)
    assert not est.diverged
    assert type(est.value) is float and type(est.error_bound) is float
    assert np.isfinite(est.value)
    assert est.value > 0.0


@pytest.mark.parametrize("dom, q, R", [(PBall(4.0), (0.1, 0.0), 2.5),
                                       (SmoothedPolygon(regular_polygon(4).vertices, 0.1), (0.05, -0.1), 2.5),
                                       (unit_disk(), (0.4, -0.3), 3.0)],
                         ids=["pball4", "smoothed", "disk-off-centre"])
def test_ball_level_estimate_covers_its_error(dom, q, R):
    # the first level (48, 12) and the level after it, each against the level
    # with twice the angular and twice the radial nodes of the second
    q = np.array(q)
    reference, _ = _ball_level(dom, q, R, 384, 48)
    levels = [_ball_level(dom, q, R, 48, 12), _ball_level(dom, q, R, 96, 24)]
    for value, error in levels:
        assert abs(value - reference) <= error
    # ball_area returns the first of them whose estimate meets tol: the
    # smoothed square's first level reads 0.052 on a value of 28.28
    depth = next(k for k, (value, error) in enumerate(levels) if error <= 1e-3 * value)
    assert ball_area(dom, q, R) == QuadratureEstimate(*levels[depth], depth, False)


def test_ball_area_tight_tol_refines_until_its_estimate_meets_it():
    dom, q, R, tol = PBall(4.0), np.array([0.1, 0.0]), 1.0, 1e-7
    coarse, coarse_error = _ball_level(dom, q, R, 48, 12)
    assert coarse_error > tol * coarse
    est = ball_area(dom, q, R, tol=tol)
    assert est.depth >= 1 and not est.diverged
    assert est.error_bound <= tol * est.value
    assert abs(est.value - coarse) <= coarse_error


def test_ball_area_stops_once_its_estimate_stops_falling():
    # the estimates of levels 0-2 read 5.7e-5, 2.0e-7 and 6.6e-7 relative:
    # level 1 is 7e-7 off the deeper levels, the density's own angular error,
    # which its estimate leaves out, so level 2 stops short of tol and the cap
    dom, q, R, tol = PBall(4.0), np.array([0.0, 0.0]), 1.0, 1e-7
    est = ball_area(dom, q, R, tol=tol)
    assert est.depth == 2 and not est.diverged
    assert est.error_bound > tol * est.value
    assert est.error_bound >= _ball_level(dom, q, R, 96, 24)[1]


def test_disk_balls_at_the_defaults_meet_the_klein_closed_form():
    # 300 balls with R in [0.2, 6] about centres within 0.9 of the origin
    disk = unit_disk()
    rng = np.random.default_rng(30)
    for _ in range(300):
        R = float(rng.uniform(0.2, 6.0))
        rad, ang = 0.9 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        est = ball_area(disk, (rad * math.cos(ang), rad * math.sin(ang)), R)
        exact = 4.0 * math.pi * math.sinh(R / 2.0) ** 2
        assert est.depth == 0 and not est.diverged
        assert abs(est.value - exact) <= 1e-10 * exact
        assert abs(est.value - exact) <= est.error_bound


@pytest.mark.parametrize("q, R", [((-0.23440152938854455, -0.011249917707279573), 2.6637447837362007),
                                  ((0.011367683163137134, 0.0264539053459929), 3.1908918075854933)],
                         ids=["seed1-pass1", "seed9173-pass1"])
def test_pball_workload_balls_are_accepted_at_the_first_level(q, R):
    # the PBall(4) balls of the ball-area benchmark's seeds 1 and 9173, pass 1,
    # whose first levels are 1.4e-5 off the reference
    dom, q = PBall(4.0), np.array(q)
    est = ball_area(dom, q, R)
    assert est.depth == 0 and not est.diverged
    assert abs(est.value - _ball_level(dom, q, R, 384, 48)[0]) <= est.error_bound


@pytest.mark.parametrize("n", [6, 12, 24])
def test_gauss_legendre_rules_are_cached_read_only(n):
    x, w = _gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    again = _gauss_legendre(n)
    assert again[0] is x and again[1] is w


def _cell_rule(T, f, weights):
    """The rule of ``weights`` on the first ``len(weights)`` cell nodes of T."""
    X = _cell_nodes(T[None])
    return _tri_areas(T[None])[0] * float(f(X[:, 0], X[:, 1])[:len(weights)] @ weights)


def _collapsed_gauss(T, f):
    # Gauss-Legendre in (u, v) on the square mapped onto T by s = u,
    # t = (1 - u) v: exact for polynomials of degree up to 14
    x, w = np.polynomial.legendre.leggauss(8)
    U, V = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    W = 0.25 * np.outer(w, w) * (1.0 - U)
    S, Tt = U, (1.0 - U) * V
    X = T[0][0] + S * (T[1][0] - T[0][0]) + Tt * (T[2][0] - T[0][0])
    Y = T[0][1] + S * (T[1][1] - T[0][1]) + Tt * (T[2][1] - T[0][1])
    cross = (T[1][0] - T[0][0]) * (T[2][1] - T[0][1]) - (T[1][1] - T[0][1]) * (T[2][0] - T[0][0])
    return abs(cross) * float(np.sum(W * f(X, Y)))


@pytest.mark.parametrize("weights, degree", [(_CELL_WEIGHTS, 8), (_RADON_WEIGHTS, 5)], ids=["19-point", "radon"])
def test_cell_rules_are_exact_to_their_degree(weights, degree):
    T = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 2))
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            def f(x, y):
                return x ** a * y ** b
            assert _cell_rule(T, f, weights) == pytest.approx(_collapsed_gauss(T, f), rel=1e-13, abs=1e-15), (a, b)
    for a, b in ((degree + 1, 0), (degree - 2, 3)):
        def f(x, y):
            return x ** a * y ** b
        exact = _collapsed_gauss(T, f)
        assert abs(_cell_rule(T, f, weights) - exact) > 1e-6 * abs(exact), (a, b)


def test_cell_rule_embeds_radons_rule():
    # every weight positive and every node interior; the first 7 nodes and
    # their weights are Radon's rule in closed form (Stroud T2:5-1)
    assert np.all(_CELL_WEIGHTS > 0.0) and math.fsum(_CELL_WEIGHTS) == pytest.approx(1.0, abs=1e-15)
    assert np.all(_CELL_NODES >= 0.029) and np.allclose(_CELL_NODES.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert len({tuple(v) for v in _CELL_NODES}) == 19
    r = math.sqrt(15.0)
    radon = [[1.0 / 3.0] * 3] + [np.roll([a, a, 1.0 - 2.0 * a], k) for a in ((6.0 - r) / 21.0, (6.0 + r) / 21.0)
                                 for k in range(3)]
    np.testing.assert_array_equal(_CELL_NODES[:7], radon)
    weights = [9.0 / 40.0] + [(155.0 - r) / 1200.0] * 3 + [(155.0 + r) / 1200.0] * 3
    np.testing.assert_array_equal(_RADON_WEIGHTS, weights)


# the degrees (i, j) of the symmetric moments e2^i e3^j of barycentric
# coordinates up to degree 8: a fully symmetric rule is exact to degree 8
# when it is exact on these ten
_SYMMETRIC_DEGREES = [(i, j) for j in range(3) for i in range(5) if 2 * i + 3 * j <= 8]


def _exact_symmetric_moment(i, j):
    """The mean of e2^i e3^j over a triangle, as a fraction: e2^i expands
    into multinomial terms (l1 l2)^k1 (l2 l3)^k2 (l3 l1)^k3, and the mean of
    l1^p l2^q l3^r is 2 p! q! r! / (p + q + r + 2)!."""
    f = math.factorial
    total = Fraction(0)
    for k1 in range(i + 1):
        for k2 in range(i + 1 - k1):
            k3 = i - k1 - k2
            p, q, r = k1 + k3 + j, k1 + k2 + j, k2 + k3 + j
            total += Fraction(2 * f(i) * f(p) * f(q) * f(r), f(k1) * f(k2) * f(k3) * f(p + q + r + 2))
    return total


def _moment_residuals(x):
    """Relative residuals of the ten symmetric moment equations for the
    parameters x = (w0, w1, w2, a3, w3, a4, w4, a5, b5, w5) of a rule with
    the centroid, Radon's two (a, a, 1 - 2a) orbits, two more at a3 and a4
    and the (a5, b5, 1 - a5 - b5) orbit, in the precision of x."""
    w0, w1, w2, a3, w3, a4, w4, a5, b5, w5 = x
    one = np.ones_like(w0)
    r = np.sqrt(15.0 * one)
    ends = [(a, a, one - 2.0 * a) for a in ((6.0 - r) / 21.0, (6.0 + r) / 21.0, a3, a4)]
    L = np.array([(one / 3.0,) * 3] + ends + [(a5, b5, one - a5 - b5)])
    W = np.array([w0, 3.0 * w1, 3.0 * w2, 3.0 * w3, 3.0 * w4, 6.0 * w5])
    e2 = L[:, 0] * L[:, 1] + L[:, 1] * L[:, 2] + L[:, 2] * L[:, 0]
    e3 = L[:, 0] * L[:, 1] * L[:, 2]
    exact = [_exact_symmetric_moment(i, j) for i, j in _SYMMETRIC_DEGREES]
    return np.array([np.sum(W * e2 ** i * e3 ** j) / (one * m.numerator / m.denominator) - one
                     for (i, j), m in zip(_SYMMETRIC_DEGREES, exact)])


def test_cell_rule_parameters_solve_the_moment_equations():
    # Newton on the ten moment equations in extended precision, from the
    # pinned parameters rounded to 10 digits, lands on them again; the last
    # orbit has a5 = a3 and b5 = a4, which the rule derives
    W, N = _CELL_WEIGHTS, _CELL_NODES
    pinned = np.array([W[0], W[1], W[4], N[7, 0], W[7], N[10, 0], W[10], N[13, 0], N[13, 1], W[13]])
    assert (N[13, 0], N[13, 1]) == (N[7, 0], N[10, 0])
    x = np.round(pinned, 10).astype(np.longdouble)
    for _ in range(6):
        r = _moment_residuals(x)
        J = np.empty((10, 10))
        for k in range(10):
            dx = np.zeros(10, dtype=np.longdouble)
            dx[k] = 1e-8
            J[:, k] = (_moment_residuals(x + dx) - _moment_residuals(x - dx)) / 2e-8
        x = x - np.linalg.solve(J, r.astype(float))
    assert np.max(np.abs(_moment_residuals(x))) <= 100.0 * np.finfo(np.longdouble).eps
    # on x86 extended precision leaves each parameter within rounding of its
    # pinned double (7e-18); where long double is double, the solve's
    # conditioning (6.5e3) costs up to 3e-14
    tol = max(1e-15, np.finfo(np.longdouble).eps * np.linalg.cond(J))
    np.testing.assert_allclose(x.astype(float), pinned, rtol=0.0, atol=tol)
    assert abs(x[7] - x[3]) <= tol and abs(x[8] - x[5]) <= tol


def test_cell_values_are_row_wise():
    # each cell's value and error are the same bit for bit alone and in a
    # batch of 1200 cells
    rng = np.random.default_rng(8)
    tri = rng.normal(size=(1200, 3, 2)) * np.exp(rng.uniform(-8.0, 2.0, (1200, 1, 1)))
    h = np.exp(rng.uniform(-5.0, 20.0, (1200 * _CELL_POINTS)))
    value, err = _cell_values(tri, h)
    assert np.all(err > 0.0)
    for i in range(len(tri)):
        alone = _cell_values(tri[i:i + 1], h[i * _CELL_POINTS:(i + 1) * _CELL_POINTS])
        assert (alone[0][0], alone[1][0]) == (value[i], err[i])
    middle = _cell_values(tri[300:901], h[300 * _CELL_POINTS:901 * _CELL_POINTS])
    np.testing.assert_array_equal(middle[0], value[300:901])
    np.testing.assert_array_equal(middle[1], err[300:901])


def _convex_polygon(rng, n, collinear):
    """A convex n-gon inside the unit disk, one vertex per sector of an
    ellipse; with ``collinear``, an (n - 1)-gon with a point inserted on one
    edge."""
    k = n - 1 if collinear else n
    angles = (np.arange(k) + rng.uniform(0.1, 0.9, k)) * (2.0 * np.pi / k)
    V = np.stack([0.6 * np.cos(angles), 0.3 * np.sin(angles)], axis=1)
    if collinear:
        i = rng.integers(k)
        V = np.insert(V, i + 1, V[i] + rng.uniform(0.2, 0.8) * (V[(i + 1) % k] - V[i]), axis=0)
    return V + rng.uniform(-0.2, 0.2, 2)


# three vertices with one on the edge of the other two are no polygon
@pytest.mark.parametrize("n, collinear", [(n, c) for n in range(3, 9) for c in (False, True) if n > 3 or not c])
def test_fan_cells_triangulate_an_n_gon_in_n_minus_2_cells(n, collinear):
    disk = unit_disk()
    rng = np.random.default_rng(100 * n + collinear)
    for _ in range(20):
        V = _convex_polygon(rng, n, collinear)
        cells, reg = _fan_cells(disk, V, [n])
        # one collinear vertex makes at most one fan cell degenerate
        assert n - 2 - collinear <= len(cells) <= n - 2
        assert np.all(reg == 0)
        assert np.all((cells[:, :, None, :] == V[None, None, :, :]).all(axis=-1).any(axis=-1))
        shoelace = 0.5 * abs(np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1]))
        assert abs(_tri_areas(cells).sum() - shoelace) <= 1e-14 * shoelace
        if n == 4 and not collinear:
            # both cells hold the ends of the shorter diagonal
            i = int(np.hypot(*(V[1] - V[3])) < np.hypot(*(V[0] - V[2])))
            for cell in cells:
                for end in (V[i], V[i + 2]):
                    assert (cell == end).all(axis=1).any()


def test_fan_cells_of_regions_below_three_vertices_are_empty():
    disk = unit_disk()
    T = np.array([[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]])
    for V in (np.empty((0, 2)), T[:1], T[:2]):
        cells, reg = _fan_cells(disk, V, [len(V)])
        assert cells.shape == (0, 3, 2) and reg.shape == (0,)
    cells, reg = _fan_cells(disk, np.concatenate([T[:1], T[:2], T]), [0, 1, 2, 3])
    assert len(cells) == 1 and reg.tolist() == [3]
    assert {tuple(v) for v in cells[0]} == {tuple(v) for v in T}


def test_region_area_additive_and_orientation_free():
    disk = unit_disk()
    T = np.array([[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]])
    whole = region_area(disk, T, tol=1e-4)
    mid = 0.5 * (T + np.roll(T, -1, axis=0))
    parts = [
        np.array([T[0], mid[0], mid[2]]),
        np.array([T[1], mid[1], mid[0]]),
        np.array([T[2], mid[2], mid[1]]),
        mid,
    ]
    total = sum(region_area(disk, p, tol=1e-4).value for p in parts)
    assert total == pytest.approx(whole.value, rel=1e-5)
    reversed_est = region_area(disk, T[::-1], tol=1e-4)
    assert reversed_est.value == pytest.approx(whole.value, rel=1e-9)


def test_region_area_error_bound_tracks_tolerance():
    disk = unit_disk()
    T = np.array([[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]])
    loose = region_area(disk, T, tol=1e-2)
    tight = region_area(disk, T, tol=1e-4)
    assert abs(tight.value - loose.value) <= max(loose.error_bound, 1e-12)


def test_region_area_rejects_outside_vertices():
    disk = unit_disk()
    with pytest.raises(RegionOutsideDomain):
        region_area(disk, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.5]]))


def test_region_area_monotone_under_inclusion():
    # the second pair takes rays inside and the closed form outside
    T = np.array([[0.0, -0.2], [0.3, 0.15], [-0.25, 0.2]])
    for small, big in ((PBall(2.0, scale=0.9), unit_disk()),
                       (PBall(4.0, scale=0.9), regular_polygon(4, circumradius=1.5, phase=math.pi / 4))):
        assert region_area(big, T).value <= region_area(small, T).value


@pytest.mark.parametrize("region", [[], np.empty(0), np.empty((0, 2)), [[0.1, 0.2]], [[0.1, 0.2], [0.3, -0.1]]],
                         ids=["list", "flat", "rows", "one-vertex", "two-vertex"])
def test_empty_and_degenerate_regions_have_zero_measure(region):
    assert region_area(unit_disk(), region) == QuadratureEstimate(0.0, 0.0, 0, False)


@pytest.mark.parametrize("region", [[[2.0, 0.0]], [[0.1, 0.2], [3.0, 0.1]]], ids=["one-vertex", "two-vertex"])
def test_degenerate_regions_outside_the_domain_raise(region):
    with pytest.raises(RegionOutsideDomain):
        region_area(unit_disk(), region)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_region_area_rejects_tol_not_positive(tol):
    T = np.array([[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]])
    with pytest.raises(ValueError, match="tol"):
        region_area(unit_disk(), T, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_ball_area_rejects_tol_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        ball_area(unit_disk(), (0.0, 0.0), 1.0, tol=tol)


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
def test_ball_area_rejects_bad_radius(R):
    with pytest.raises(ValueError, match="radius"):
        ball_area(unit_disk(), (0.0, 0.0), R)


def _lone_cast_frames(domain, P):
    """_ball_frames with each of the eight probe directions cast on its own."""
    T = np.stack([domain.ray_hits(P, np.repeat(d[None], len(P), axis=0)) for d in _PROBE_DIRS], axis=1)
    k = np.argmin(T, axis=1)
    nin = -domain.boundary_normals(P + T[np.arange(len(P)), k][:, None] * _PROBE_DIRS[k])
    tau = np.stack([nin[:, 1], -nin[:, 0]], axis=1)
    a = _harmonic_halfwidth(*domain.ray_hits_both(P, tau))
    b = _harmonic_halfwidth(*domain.ray_hits_both(P, nin))
    return tau, nin, a, b


def test_probe_chords_equal_eight_lone_casts(equivalence_domains):
    # the probes are four chords: the last four directions are the first
    # four negated exactly, so each chord's -V half is a lone cast
    assert np.array_equal(_PROBE_DIRS[4:], -_PROBE_DIRS[:4])
    for name, (dom, P, _) in equivalence_domains.items():
        for got, ref in zip(_ball_frames(dom, P), _lone_cast_frames(dom, P)):
            assert np.array_equal(got, ref), name


def test_density_within_rounding_of_the_boundary_takes_no_warning():
    # interior by its gauge, yet F**2 overflows in the directions along the
    # edge: they add 0 to the area, with no RuntimeWarning
    dom = SmoothedPolygon(regular_polygon(4).vertices, 0.1)
    B = dom.boundary_points([0.0])
    assert dom.gauge(B)[0] < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        area = unit_ball_areas(dom, B)[0]
        h = densities(dom, B)[0]
    assert 0.0 <= area < 1e-20
    assert h == min(math.pi / area, DENSITY_CLIP)


def test_cell_nodes_equal_the_einsum():
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1.0, 1e3):
        T = scale * rng.normal(size=(500, 3, 2)) + rng.normal(size=2)
        ref = np.einsum("kv,nvd->nkd", _CELL_NODES, T).reshape(-1, 2)
        np.testing.assert_array_equal(_cell_nodes(T), ref)


@pytest.mark.parametrize("dom", [unit_disk(), PBall(4.0), SmoothedPolygon(regular_polygon(4).vertices, 0.1)],
                         ids=["disk", "pball4", "smoothed"])
def test_unit_ball_areas_independent_of_chunking(dom):
    # one call of 3000 points runs in internal chunks; any split of the
    # points into separate calls gives the same areas bit for bit
    rng = np.random.default_rng(5)
    r = 0.6 * np.sqrt(rng.random(3000))
    theta = rng.uniform(0.0, 2.0 * np.pi, 3000)
    P = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    whole = unit_ball_areas(dom, P, n_dirs=24)
    pieces = np.split(P, [1, 1000, 2024, 2999])
    np.testing.assert_array_equal(whole, np.concatenate([unit_ball_areas(dom, Q, n_dirs=24) for Q in pieces]))


def test_quadrature_estimate_roundtrip():
    est = QuadratureEstimate(value=1.5, error_bound=0.01, depth=3, diverged=False)
    assert QuadratureEstimate(**est.to_jsonable()) == est


def _reference_unit_ball_areas(domain, P, n_dirs, weights=None):
    """The full-circle sum the half-circle version replaced: every adapted
    direction of the circle is cast on its own.  ``weights`` over the
    ``n_dirs`` angles default to the trapezoid rule's 2 pi / n_dirs."""
    m = len(P)
    tau, nin, a, b = _ball_frames(domain, P)
    psi = np.arange(n_dirs) * (2.0 * np.pi / n_dirs)
    U = (
        (a[:, None] * np.cos(psi)[None, :])[:, :, None] * tau[:, None, :]
        + (b[:, None] * np.sin(psi)[None, :])[:, :, None] * nin[:, None, :]
    ).reshape(m * n_dirs, 2)
    tp, tm = domain.ray_hits_both(np.repeat(P, n_dirs, axis=0), U)
    F = 0.5 * np.hypot(U[:, 0], U[:, 1]) * (1.0 / tp + 1.0 / tm)
    integrand = (a * b)[:, None] / F.reshape(m, n_dirs) ** 2
    return 0.5 * integrand @ (np.full(n_dirs, 2.0 * np.pi / n_dirs) if weights is None else weights)


@pytest.mark.parametrize("n_dirs", [18, 24, 64])
def test_unit_ball_areas_match_full_circle_sum(equivalence_domains, n_dirs):
    for name, (dom, P, tol) in equivalence_domains.items():
        got = unit_ball_areas(dom, P, n_dirs=n_dirs)
        ref = _reference_unit_ball_areas(dom, P, n_dirs)
        assert np.all(np.abs(got - ref) <= tol * ref), name


# unit_ball_areas(dom, _points_with_gaps(dom, 32, 0), n_dirs=512) on each of
# _RAY_CLASSES: within 2.3e-5 of the 1024-direction values on the power cap,
# 1.9e-6 on the smoothed square, 5.6e-7 on PBall(4) and 2.6e-13 on the
# projective disk
_UNIT_BALL_AREAS_512 = {
    "pball4": [
        3.582103265748162, 1.4235402430039465, 2.3664087401845784, 3.2350788569249995, 2.4714607274908005,
        0.3246856801717557, 0.13216996957039404, 3.081425497860555, 2.136975842095989, 3.131092597780656,
        1.9297670166899892, 3.154865114287327, 2.74678520620752, 0.47169952862491504, 3.4499565909720085,
        1.7368080252737377, 4.229634885740717e-08, 0.3990675702757247, 0.16554268863206645, 1.439274918215277e-06,
        0.8720343716921236, 2.442290624268996e-08, 1.0411701258720923e-05, 1.7625131749282721e-07,
        8.320583425872166e-05, 0.1099744217054922, 1.4325888171541453e-05, 1.2492588941536758e-07,
        5.334000498981728e-05, 4.901979736593446e-07, 8.374264295087178e-08, 0.0012522961230321498,
    ],
    "smoothed": [
        1.8860025731708083, 0.5321783941320538, 1.1397691713965477, 1.5779784283230118, 1.299080804807157,
        0.27649642584189105, 0.16418980202992747, 1.4822693134051623, 1.0303809096700554, 1.6377901481943655,
        1.039629708944274, 1.500343342312288, 1.5481135438026923, 0.17669201147847435, 1.738929445494493,
        0.9847258357865513, 2.1566413595656413e-07, 0.17181994866427971, 0.08526367795343348, 2.717262647729629e-06,
        0.32382392839878227, 1.3596749956369365e-07, 2.119416737570068e-05, 7.343024526868359e-07,
        0.0003721440294777488, 0.1497142753450713, 3.434729164744566e-07, 1.1381038651259119e-08,
        6.0787602099117416e-05, 1.8804934530103119e-06, 8.41873582636496e-08, 0.004057446523224996,
    ],
    "power-cap": [
        1.1270176794659603, 0.7030388483793802, 0.8088172884462997, 1.08103426702181, 0.6873786734973334,
        0.12546949765159293, 0.05576552731538965, 0.850445110084712, 0.718462495227735, 1.010390553023851,
        0.5222784052064755, 1.049822220323793, 0.8580360648498802, 0.17717106055035417, 1.0137078574359804,
        0.8583526841110982, 1.7149855622365983e-08, 0.13060601621348, 0.15033968712009377, 8.451173014924979e-06,
        0.3181062855902237, 5.022855975338791e-06, 2.77418585448556e-06, 6.473432587743499e-08,
        3.747471351054796e-05, 0.12484449909257238, 7.343880102994215e-07, 1.6333414462129454e-08,
        1.0878666790744018e-05, 1.7348601308445757e-07, 1.6158393638368033e-08, 0.005872969477854764,
    ],
    "projective-disk": [
        3.207423554806626, 1.1037502043229812, 1.6209490117844192, 2.3873669830687883, 1.9263916604687645,
        0.2394489647160569, 0.18174419152764662, 2.5700894565027093, 2.2051893939208322, 2.3683554409546947,
        1.478397500862479, 2.295522370726615, 2.2075971672654826, 0.23093522159356963, 2.9108429814788974,
        1.383680148132869, 4.1712395930797584e-08, 0.348680735959923, 0.11657628656522172, 1.7034095640777217e-06,
        0.46854171193089444, 2.4750385955101878e-08, 1.0688651492577717e-05, 2.3807961976862045e-07,
        0.00012659117091969087, 0.1592028360040063, 8.048467525290666e-07, 1.9901340607727846e-08,
        4.281335366285966e-05, 6.427556171285681e-07, 6.38128293272193e-08, 0.0019173674350508138,
    ],
}


def _simpson_weights(n_dirs):
    w = np.tile([2.0 / 3.0, 4.0 / 3.0], n_dirs // 2)
    return w * (2.0 * np.pi / n_dirs)


@pytest.mark.parametrize("n_dirs", [24, 32])
@pytest.mark.parametrize("name", list(_RAY_CLASSES))
def test_trapezoid_unit_balls_are_no_worse_than_simpson(name, n_dirs):
    # the polar integrand is smooth and periodic in psi, where the trapezoid
    # rule converges geometrically; the points reach 1e-6 of the boundary
    dom = _RAY_CLASSES[name]
    P = _points_with_gaps(dom, 32, 0)
    ref = np.array(_UNIT_BALL_AREAS_512[name])
    trapezoid = np.abs(unit_ball_areas(dom, P, n_dirs=n_dirs) / ref - 1.0)
    simpson = np.abs(_reference_unit_ball_areas(dom, P, n_dirs, _simpson_weights(n_dirs)) / ref - 1.0)
    assert np.median(trapezoid) <= np.median(simpson)


def test_pball_ball_area_is_within_1e_4_of_256_density_directions():
    # the reference is ball_area(PBall(4.0), (0.1, 0.0), 2.5) with
    # measure._BALL_DENSITY_DIRS set to 256, also at depth 0; at 512 it
    # moves by 5.4e-9
    est = ball_area(PBall(4.0), (0.1, 0.0), 2.5)
    assert est.depth == 0 and not est.diverged
    assert abs(est.value - 30.361208762104354) <= 1e-4 * 30.361208762104354


def _chord_profile(t_plus, t_minus, t):
    return 0.5 * np.log((t_minus + t) / t_minus * (t_plus / np.maximum(t_plus - t, 1e-300)))


def test_chord_inverse_matches_bisection_and_round_trips():
    rng = np.random.default_rng(11)
    n = 2000
    t_plus = 10.0 ** rng.uniform(-6.0, math.log10(2.0), n)
    t_minus = 10.0 ** rng.uniform(-6.0, math.log10(2.0), n)
    rho = rng.uniform(0.01, 8.0, n)
    t = chord_parameter_at_distance(t_plus, t_minus, rho)
    assert np.all((t > 0.0) & (t < t_plus))
    # the 80-step bisection it replaced is exact to the rounding of its bracket
    lo, hi = np.zeros(n), t_plus * (1.0 - 1e-15)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _chord_profile(t_plus, t_minus, mid) < rho
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    eps = np.finfo(float).eps
    assert np.all(np.abs(t - 0.5 * (lo + hi)) <= 4.0 * eps * t_plus)
    # d(t) = rho up to the conditioning of the profile at t
    slope = 0.5 * (1.0 / (t_minus + t) + 1.0 / (t_plus - t))
    assert np.all(np.abs(_chord_profile(t_plus, t_minus, t) - rho) <= 32.0 * eps * (rho + t * slope))
    # far out the point stays interior instead of rounding onto the boundary
    assert chord_parameter_at_distance(1.0, 1.0, 40.0) < 1.0


def test_repeated_unit_ball_areas_reuse_heap_pages():
    # with glibc's default thresholds the same call faults about 3 700
    # fresh pages in every time: its 0.25-0.5 MB ray arrays are mapped
    # and unmapped, or the freed heap top is trimmed
    if not pin_malloc_thresholds():
        pytest.skip("malloc thresholds are pinned on glibc only")
    disk = PBall(2.0)
    P = 0.9 * (np.random.default_rng(0).random((4096, 2)) - 0.5)
    for _ in range(2):
        unit_ball_areas(disk, P, n_dirs=64)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    unit_ball_areas(disk, P, n_dirs=64)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256
