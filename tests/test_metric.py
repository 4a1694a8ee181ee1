import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import metric
from hilbertgeom.domains import (
    Ellipse,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    as_point,
    regular_polygon,
    unit_disk,
)
from hilbertgeom.errors import PointNotInterior
from hilbertgeom.metric import (
    FourPointConfig,
    ThinTriangleConfig,
    boundary_biased_points,
    delta_four_point,
    delta_four_point_grid,
    delta_thin,
    finsler_norm,
    gromov_product,
    hilbert_distance,
    hilbert_distances,
    point_to_segment_distance,
    point_to_segment_distances,
    reevaluate_witness,
    triangle_thinness,
    window_candidates,
)

# frozen estimator outputs for the default seeds
DISK_FOUR_POINT_2000_SEED0 = 0.6698247508818951
DISK_THIN_24_SEED0 = 0.8601061283554778
SQUARE_GRID_FOUR_POINT = 3.0279100549988267

DELTA_H2 = math.log(1.0 + math.sqrt(2.0))


def test_klein_radial_distances():
    disk = unit_disk()
    for r in (0.1, 0.5, 0.9):
        d = hilbert_distance(disk, (0.0, 0.0), (r, 0.0))
        assert abs(d - math.atanh(r)) <= 1e-12


def test_distance_basic_properties():
    disk = unit_disk()
    assert hilbert_distance(disk, (0.2, 0.1), (0.2, 0.1)) == 0.0
    d1 = hilbert_distance(disk, (0.2, 0.1), (-0.4, 0.3))
    d2 = hilbert_distance(disk, (-0.4, 0.3), (0.2, 0.1))
    assert abs(d1 - d2) <= 1e-12
    with pytest.raises(PointNotInterior):
        hilbert_distance(disk, (1.5, 0.0), (0.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.sampled_from([2.0, 3.0, 7.0]),
)
def test_triangle_inequality_property(seed, p):
    rng = np.random.default_rng(seed)
    dom = PBall(p)
    pts = []
    while len(pts) < 3:
        cand = rng.uniform(-1.0, 1.0, 2)
        if dom.gauge(cand[None])[0] < -1e-3:
            pts.append(cand)
    a, b, c = pts
    dab = hilbert_distance(dom, a, b)
    dbc = hilbert_distance(dom, b, c)
    dac = hilbert_distance(dom, a, c)
    assert dac <= dab + dbc + 1e-9


def test_projective_invariance_of_distance():
    disk = unit_disk()
    H = ProjectiveMap(np.array([[1.0, 0.12, 0.0], [0.05, 1.0, 0.02], [0.08, -0.03, 1.0]]))
    image = ProjectiveImage(disk, H)
    rng = np.random.default_rng(7)
    P = rng.uniform(-0.6, 0.6, (12, 2))
    Q = rng.uniform(-0.6, 0.6, (12, 2))
    d0 = hilbert_distances(disk, P, Q)
    d1 = hilbert_distances(image, H.apply_many(P), H.apply_many(Q))
    assert np.max(np.abs(d1 - d0) / np.maximum(d0, 1e-12)) <= 1e-9


def test_finsler_norm_klein_values():
    disk = unit_disk()
    v = (0.0, 1.0)
    assert abs(finsler_norm(disk, (0.0, 0.0), (1.0, 0.0)) - 1.0) <= 1e-12
    r = 0.6
    expected = 1.0 / (1.0 - r * r)
    assert abs(finsler_norm(disk, (r, 0.0), (1.0, 0.0)) - expected) <= 1e-12
    # positive homogeneity
    f1 = finsler_norm(disk, (0.3, 0.2), v)
    f3 = finsler_norm(disk, (0.3, 0.2), (0.0, 3.0))
    assert abs(f3 - 3.0 * f1) <= 1e-12


def test_finsler_norm_is_metric_derivative():
    dom = PBall(4.0)
    p = np.array([0.3, -0.2])
    v = np.array([0.8, 0.6])
    eps = 1e-5
    d = hilbert_distance(dom, p, p + eps * v)
    f = finsler_norm(dom, p, v)
    assert abs(d / (eps * f) - 1.0) <= 1e-3


def test_gromov_product_identities():
    disk = unit_disk()
    x, y, w = (0.4, 0.0), (-0.3, 0.2), (0.0, -0.5)
    gxy = gromov_product(disk, x, y, w)
    gyx = gromov_product(disk, y, x, w)
    assert abs(gxy - gyx) <= 1e-12
    assert gxy >= 0.0
    assert gromov_product(disk, x, x, w) == pytest.approx(hilbert_distance(disk, w, x), abs=1e-12)


def test_point_to_segment_distance():
    disk = unit_disk()
    a, b = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    on_segment = np.array([0.1, 0.0])
    assert point_to_segment_distance(disk, on_segment, a, b) <= 1e-9
    off = np.array([0.0, 0.4])
    d_seg = point_to_segment_distance(disk, off, a, b)
    d_ends = min(hilbert_distance(disk, off, a), hilbert_distance(disk, off, b))
    assert d_seg <= d_ends + 1e-12
    assert d_seg > 0.0


def test_triangle_thinness_collinear_is_zero():
    disk = unit_disk()
    value, witness = triangle_thinness(disk, (-0.5, 0.0), (0.0, 0.0), (0.5, 0.0))
    assert value == 0.0
    assert witness["degenerate"] is True


def test_delta_four_point_disk():
    est = delta_four_point(unit_disk(), FourPointConfig(budget=2000, seed=0))
    assert est.delta_hat == pytest.approx(DISK_FOUR_POINT_2000_SEED0, rel=1e-12)
    # sampled four-point delta of the Klein disk stays under the log(2) bound
    assert 0.4 <= est.delta_hat <= math.log(2.0) + 1e-9
    assert reevaluate_witness(unit_disk(), est.witness) == pytest.approx(est.delta_hat, rel=1e-12)


def test_delta_thin_disk():
    est = delta_thin(unit_disk(), ThinTriangleConfig(budget=24, seed=0))
    assert est.delta_hat == pytest.approx(DISK_THIN_24_SEED0, rel=1e-12)
    assert 0.5 <= est.delta_hat <= DELTA_H2 + 1e-9
    assert reevaluate_witness(unit_disk(), est.witness) == pytest.approx(est.delta_hat, rel=1e-12)


def test_square_four_point_grows_past_hyperbolic_range():
    # deliberate candidates fanned into two adjacent corners expose the flat
    # faces; random sampling at this budget rarely finds them
    square = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    pts = window_candidates(square, [(0.23, 0.27), (0.48, 0.52)], approach=1e-6)
    est = delta_four_point_grid(square, pts)
    assert est.delta_hat == pytest.approx(SQUARE_GRID_FOUR_POINT, rel=1e-9)
    assert est.delta_hat > 3.0


@pytest.mark.parametrize(
    "field, make",
    [
        ("budget", lambda: FourPointConfig(budget=2.5)),
        ("budget", lambda: FourPointConfig(budget=0)),
        ("budget", lambda: ThinTriangleConfig(budget=True)),
        ("budget", lambda: ThinTriangleConfig(budget=-1)),
        ("side_points", lambda: ThinTriangleConfig(side_points=0)),
        ("side_points", lambda: ThinTriangleConfig(side_points=-1)),
        ("side_points", lambda: ThinTriangleConfig(side_points=8.0)),
        ("side_points", lambda: triangle_thinness(unit_disk(), (-0.5, 0.0), (0.5, 0.0), (0.0, 0.5), side_points=0)),
        ("side_points", lambda: triangle_thinness(unit_disk(), (-0.5, 0.0), (0.5, 0.0), (0.0, 0.5), side_points=-1)),
    ],
)
def test_estimator_counts_must_be_positive_integers(field, make):
    with pytest.raises(ValueError, match=field):
        make()


def test_delta_estimates_serialize():
    est = delta_four_point(unit_disk(), FourPointConfig(budget=50, seed=4))
    blob = est.to_jsonable()
    assert set(blob) >= {"delta_hat", "witness", "samples_used"}
    assert blob["samples_used"] == 50


# The per-triangle thin-triangle path that the batched one replaced, kept as
# a reference: one point_to_segment_distances call per triangle and a
# strict-> loop over the triangles.


def _reference_triangle_thinness(domain, a, b, c, side_points=8):
    a, b, c = as_point(a), as_point(b), as_point(c)
    sc = domain.scale()
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if abs(cross) <= 1e-13 * sc * sc:
        return 0.0, {"kind": "thin-triangle", "vertices": [a.tolist(), b.tolist(), c.tolist()],
                     "side": 0, "point": a.tolist(), "degenerate": True}
    V = np.stack([a, b, c])
    fr = (np.arange(side_points) + 0.5) / side_points
    P_list = [V[(i + 1) % 3] + fr[:, None] * (V[(i + 2) % 3] - V[(i + 1) % 3]) for i in range(3)]
    P_rows, A_rows, B_rows = [], [], []
    for i in range(3):
        for j in ((i + 1) % 3, (i + 2) % 3):
            P_rows.append(P_list[i])
            A_rows.append(np.repeat(V[i][None, :], side_points, axis=0))
            B_rows.append(np.repeat(V[j][None, :], side_points, axis=0))
    D = point_to_segment_distances(
        domain, np.concatenate(P_rows), np.concatenate(A_rows), np.concatenate(B_rows), validate=False
    )
    per_point = D.reshape(3, 2, side_points).min(axis=1)
    side_idx, pt_idx = np.unravel_index(int(np.argmax(per_point)), per_point.shape)
    witness = {
        "kind": "thin-triangle",
        "vertices": [a.tolist(), b.tolist(), c.tolist()],
        "side": int(side_idx),
        "point": P_list[side_idx][pt_idx].tolist(),
    }
    return float(per_point[side_idx, pt_idx]), witness


def _reference_delta_thin(domain, config):
    rng = np.random.default_rng(config.seed)
    tris = boundary_biased_points(domain, (config.budget, 3), rng, approach=config.approach)
    best = -1.0
    best_witness = None
    for i in range(config.budget):
        value, witness = _reference_triangle_thinness(domain, *tris[i], side_points=config.side_points)
        if value > best:
            best = value
            best_witness = witness
    return {"delta_hat": float(max(best, 0.0)), "witness": best_witness, "samples_used": config.budget}


_THIN_DOMAINS = {
    "disk": unit_disk(),
    "pball1.5": PBall(1.5),
    "pball4": PBall(4.0),
    "pball8": PBall(8.0),
    "square": regular_polygon(4),
    "smoothed": SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1),
    "projective": ProjectiveImage(unit_disk(), ProjectiveMap([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])),
}


@pytest.mark.parametrize("name", sorted(_THIN_DOMAINS))
def test_delta_thin_matches_per_triangle_loop(name):
    dom = _THIN_DOMAINS[name]
    for budget in (1, 4, 16):
        config = ThinTriangleConfig(budget=budget, seed=0)
        assert delta_thin(dom, config).to_jsonable() == _reference_delta_thin(dom, config), budget


def test_thinness_batch_sets_collinear_triangles_aside():
    dom = PBall(4.0)
    tris = boundary_biased_points(dom, (2, 3), np.random.default_rng(5))
    line = np.array([[-0.5, 0.1], [0.0, 0.1], [0.5, 0.1]])
    batch = np.stack([line, tris[0], line[::-1], tris[1]])
    values, witnesses = metric._thinness_many(dom, batch, 8)
    for t, value, witness in zip(batch, values, witnesses):
        assert (value, witness) == _reference_triangle_thinness(dom, *t)
    assert witnesses[0]["degenerate"] and witnesses[2]["degenerate"]
    assert values[0] == values[2] == 0.0 and min(values[1], values[3]) > 0.0
    assert triangle_thinness(dom, *batch[1]) == (values[1], witnesses[1])


def _segment_rows(dom, n, seed):
    T = boundary_biased_points(dom, (n, 3), np.random.default_rng(seed))
    return 0.5 * (T[:, 0] + T[:, 1]), T[:, 1], T[:, 2]


_ROW_WISE_DOMAINS = {
    "disk": unit_disk(),
    "pball4": PBall(4.0),
    "square": regular_polygon(4),
    "pball1.5": PBall(1.5),
    "smoothed": SmoothedPolygon(regular_polygon(4).vertices, smoothing=0.1),
    "projective": ProjectiveImage(
        unit_disk(),
        ProjectiveMap(np.eye(3) + 0.2 * np.array([[0.1, -0.3, 0.2], [0.4, 0.0, -0.1], [0.2, 0.3, 0.0]])),
    ),
    "ellipse": Ellipse(semi_axes=(1.3, 0.8), rotation=0.3),
    "powercap4": PowerCap(4.0),
}


# every kernel under the ray casts is elementwise, so a row gets the same bits
# however it is batched
@pytest.mark.parametrize("name", list(_ROW_WISE_DOMAINS))
def test_segment_distances_are_row_wise(name):
    dom = _ROW_WISE_DOMAINS[name]
    P, A, B = _segment_rows(dom, 130, 3)
    batched = point_to_segment_distances(dom, P, A, B, validate=False)
    single = [point_to_segment_distances(dom, P[i:i + 1], A[i:i + 1], B[i:i + 1])[0] for i in range(130)]
    np.testing.assert_array_equal(batched, single)


def _klein_distances(P, Q):
    # sinh^2 d = ((p.w)^2 + (1 - |p|^2)|w|^2) / ((1 - |p|^2)(1 - |q|^2)), w = q - p:
    # a sum of positive terms, so it keeps its digits near the boundary
    W = Q - P
    gp, gq = 1.0 - np.einsum("ij,ij->i", P, P), 1.0 - np.einsum("ij,ij->i", Q, Q)
    pw = np.einsum("ij,ij->i", P, W)
    return np.arcsinh(np.sqrt((pw * pw + gp * np.einsum("ij,ij->i", W, W)) / (gp * gq)))


def _klein_segment_distances(P, A, B):
    """Closed-form disk distance from P to [A, B] on the hyperboloid.

    The lifts (x, 1) of A and B span a plane with Euclidean normal c; its
    Minkowski normal is n = (c0, c1, -c2), and sinh d = |<X_P, n>| for the unit
    lift X_P and unit n.  <(p, 1), n> = (p, 1).c = (B - A) x (P - A), and
    <n, n> = |w|^2 (1 - |a|^2) + (a.w)^2 with w = B - A.  When the foot of the
    perpendicular falls outside [A, B], the nearer end is the minimum.
    """
    W = B - A
    ga = 1.0 - np.einsum("ij,ij->i", A, A)
    gp = 1.0 - np.einsum("ij,ij->i", P, P)
    aw = np.einsum("ij,ij->i", A, W)
    ww = np.einsum("ij,ij->i", W, W)
    nn = ww * ga + aw * aw
    area = W[:, 0] * (P[:, 1] - A[:, 1]) - W[:, 1] * (P[:, 0] - A[:, 0])
    perp = np.arcsinh(np.abs(area) / np.sqrt(gp * nn))
    c = np.stack([A[:, 1] - B[:, 1], B[:, 0] - A[:, 0], A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]], axis=1)
    foot = np.concatenate([P, np.ones((len(P), 1))], axis=1) - (area / nn)[:, None] * (c * [1.0, 1.0, -1.0])
    t = np.einsum("ij,ij->i", foot[:, :2] / foot[:, 2:] - A, W) / ww
    at_end = (t < 0.0) | (t > 1.0)
    ends = np.minimum(_klein_distances(P, A), _klein_distances(P, B))
    return np.where(at_end, ends, perp), at_end


def test_segment_distances_match_klein_closed_form():
    disk = unit_disk()
    T = boundary_biased_points(disk, (4000, 3), np.random.default_rng(7))
    P, A, B = T[:, 0], T[:, 1], T[:, 2]
    exact, at_end = _klein_segment_distances(P, A, B)
    assert 0.15 < at_end.mean() < 0.35  # the exact ends carry about a quarter of the rows
    np.testing.assert_allclose(point_to_segment_distances(disk, P, A, B), exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["square", "smoothed", "pball1.5", "pball4", "powercap4"])
def test_segment_search_finds_the_basin(name):
    # no grid point of the segment lies below the search's minimum
    dom = _ROW_WISE_DOMAINS[name]
    T = boundary_biased_points(dom, (300, 3), np.random.default_rng(11))
    P, A, B = T[:, 0], T[:, 1], T[:, 2]
    D = point_to_segment_distances(dom, P, A, B)
    s = np.linspace(0.0, 1.0, 4097)[:, None]
    for i in range(len(P)):
        grid = hilbert_distances(dom, np.repeat(P[i:i + 1], len(s), axis=0), A[i] + s * (B[i] - A[i]))
        assert D[i] <= (1.0 + 1e-12) * grid.min(), i


def test_reevaluate_thin_witness_matches_one_row_calls():
    dom = PBall(4.0)
    est = delta_thin(dom, ThinTriangleConfig(budget=4, seed=2))
    V = np.asarray(est.witness["vertices"])
    i = est.witness["side"]
    p = np.asarray(est.witness["point"])
    ones = [point_to_segment_distance(dom, p, V[i], V[j]) for j in ((i + 1) % 3, (i + 2) % 3)]
    assert reevaluate_witness(dom, est.witness) == min(ones) == est.delta_hat
