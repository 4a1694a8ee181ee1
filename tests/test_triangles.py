import math

import numpy as np
import pytest

from hilbertgeom.domains import (
    Ellipse,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    as_points,
    regular_polygon,
    unit_disk,
)
from hilbertgeom.errors import DegenerateVertices, InvalidTriangle, NotOnBoundary, RegionOutsideDomain
from hilbertgeom import measure, triangles
from hilbertgeom.measure import (
    _CELL_NODES,
    _CELL_WEIGHTS,
    _RADON_WEIGHTS,
    QuadratureEstimate,
    _split4,
    _tri_areas,
    densities,
    region_area,
)
from hilbertgeom.triangles import (
    PIECE_DIRS,
    PIECE_MAX_DEPTH,
    PIECE_MAX_POINTS,
    CornerLadder,
    SupAreaResult,
    TriangleSamplerConfig,
    _ladder_piece,
    _sample_triples,
    ideal_triangle_area,
    ideal_triangle_area_detail,
    ideal_triangle_from_points,
    make_ideal_triangle,
    sup_area_search,
)

# frozen quadrature outputs for the default settings (19-point cells checked
# by their embedded 7-point rule, on fans about an end of each piece's
# shortest diagonal, closed-form densities on the disk and the square), each
# read from the call its test makes
DISK_SYMMETRIC_AREA = 3.141536338230218
SQUARE_EDGE_TRIPLE_AREA = 1.6152345522214346
DISK_SUP_BUDGET2_SEED0 = 3.1415468352349074

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _symmetric_disk_triangle(offset=0.0):
    disk = unit_disk()
    period = disk.param_period
    return disk, make_ideal_triangle(disk, offset, offset + period / 3.0, offset + 2.0 * period / 3.0)


def test_make_ideal_triangle_vertices_on_boundary():
    disk, tri = _symmetric_disk_triangle()
    assert tri.validity
    V = tri.vertices()
    assert np.max(np.abs(disk.gauge(V))) <= 1e-9


def test_make_ideal_triangle_rejects_degenerate_params():
    disk = unit_disk()
    with pytest.raises(DegenerateVertices):
        make_ideal_triangle(disk, 0.1, 0.1, 2.0)
    with pytest.raises(DegenerateVertices):
        # antipodal pair plus a coincident copy is collinear
        make_ideal_triangle(disk, 0.0, math.pi, 2.0 * math.pi)


def test_ideal_triangle_from_interior_points_raises():
    with pytest.raises(NotOnBoundary):
        ideal_triangle_from_points(unit_disk(), [[0.5, 0.0], [-0.25, 0.4], [-0.25, -0.4]])
    with pytest.raises(NotOnBoundary):
        ideal_triangle_from_points(unit_disk(), [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0 + 1e-6]])


def test_square_corner_triple_is_invalid():
    square = Polygon(SQUARE)
    tri = make_ideal_triangle(square, 0.0, 0.25, 0.5)
    assert not tri.validity
    assert tri.invalid_reason == "side in boundary"
    with pytest.raises(InvalidTriangle):
        ideal_triangle_area(square, tri)


def test_square_edge_midpoint_triple_converges():
    square = Polygon(SQUARE)
    tri = make_ideal_triangle(square, 0.125, 0.375, 0.625)
    assert tri.validity
    est = ideal_triangle_area(square, tri)
    assert not est.diverged
    assert est.value == pytest.approx(SQUARE_EDGE_TRIPLE_AREA, rel=1e-9)


# square triangle areas from a deep run: PIECE_MAX_POINTS 60 000, tol 1e-5,
# 16 ladder rungs (the second half of the test below); a deeper run
# (240 000 points, depth 12, tol 1e-7, 20 rungs) reads 1.6152345817 and
# 2.6407197857, 5.9e-10 and 2.2e-7 from these
SQUARE_DEEP_AREAS = {(0.125, 0.375, 0.625): 1.6152345823079008, (0.05, 0.38, 0.71): 2.640720008363106}


@pytest.mark.parametrize("ts", list(SQUARE_DEEP_AREAS))
def test_square_error_bound_covers_its_error(monkeypatch, ts):
    # with densities from 24 ray-cast directions, off by up to 4.2% per
    # point, the default estimates missed these by about 5 error bounds
    square = Polygon(SQUARE)
    tri = make_ideal_triangle(square, *ts)
    est = ideal_triangle_area(square, tri)
    assert abs(est.value - SQUARE_DEEP_AREAS[ts]) <= est.error_bound
    monkeypatch.setattr(triangles, "PIECE_MAX_POINTS", 60000)
    monkeypatch.setattr(triangles, "LADDER_DEPTH", 16)
    deep = ideal_triangle_area(square, tri, tol=1e-5)
    assert abs(deep.value - SQUARE_DEEP_AREAS[ts]) <= 1e-9 * deep.value
    # the depth is read at call time: 16 cuts make 15 trapezoids per ladder
    _, ladders = ideal_triangle_area_detail(square, tri, tol=1e-5)
    assert [len(lad.increments) for lad in ladders] == [15, 15, 15]


def test_corner_decomposition_partitions_area():
    # the medial triangle and the three corner triangles it cuts off
    disk, tri = _symmetric_disk_triangle()
    V = tri.vertices()
    mid = 0.5 * (V + np.roll(V, -1, axis=0))
    whole = region_area(disk, V, tol=1e-2)
    pieces = [region_area(disk, mid, tol=1e-2)]
    pieces += [region_area(disk, [V[i], mid[i], mid[i - 1]], tol=1e-2) for i in range(3)]
    total = sum(p.value for p in pieces)
    assert total == pytest.approx(whole.value, rel=2e-2)


def test_disk_ideal_triangle_area_is_pi():
    disk, tri = _symmetric_disk_triangle()
    est = ideal_triangle_area(disk, tri)
    assert not est.diverged
    assert est.value == pytest.approx(DISK_SYMMETRIC_AREA, rel=1e-9)
    assert est.value == pytest.approx(math.pi, rel=1e-2)


def test_disk_ideal_triangle_rotation_invariant():
    _, tri0 = _symmetric_disk_triangle()
    disk, tri1 = _symmetric_disk_triangle(offset=0.31)
    e0 = ideal_triangle_area(disk, tri0)
    e1 = ideal_triangle_area(disk, tri1)
    assert e1.value == pytest.approx(e0.value, rel=1e-6)


def test_disk_corner_ladders_symmetric():
    disk, tri = _symmetric_disk_triangle()
    _, ladders = ideal_triangle_area_detail(disk, tri)
    sums = [lad.partial + lad.tail for lad in ladders]
    assert max(sums) - min(sums) <= 1e-6
    assert all(not lad.diverged for lad in ladders)


def test_ideal_triangle_serializes():
    _, tri = _symmetric_disk_triangle()
    blob = tri.to_jsonable()
    assert blob["validity"] is True
    assert len(blob["a"]) == 2


def test_sup_area_search_disk():
    # every ideal triangle of the Klein disk has area pi, so the search
    # should land there no matter which triples it draws
    res = sup_area_search(unit_disk(), TriangleSamplerConfig(budget=2, seed=0))
    assert res.samples_used == 2
    assert len(res.divergent) == 0
    assert res.max_value == pytest.approx(DISK_SUP_BUDGET2_SEED0, rel=1e-9)
    assert res.max_value == pytest.approx(math.pi, rel=5e-3)


@pytest.mark.parametrize("budget", [True, 2.5, 0])
def test_sampler_budget_must_be_a_positive_integer(budget):
    # checked at construction: a bool or float budget would otherwise reach numpy
    with pytest.raises(ValueError, match="budget"):
        TriangleSamplerConfig(budget=budget)


def test_sup_area_result_max_value_includes_divergent():
    conv = QuadratureEstimate(value=2.0, error_bound=0.1, depth=3, diverged=False)
    div = QuadratureEstimate(value=9.0, error_bound=1.0, depth=3, diverged=True)
    res = SupAreaResult(best_triangle=None, best_estimate=conv, divergent=((None, div),), samples_used=4)
    assert res.max_value == 9.0


def test_sup_area_search_without_a_valid_triple_raises(monkeypatch):
    # a search whose triples all fail reported a silent sup_area of 0
    square = Polygon(SQUARE)
    monkeypatch.setattr(triangles, "_sample_triples", lambda domain, config: [(0.1, 0.1, 0.1)])
    with pytest.raises(InvalidTriangle, match="no sampled triple"):
        sup_area_search(square)


# The sequential quadrature that the lock-step refinement of all 34 pieces
# replaced, kept as the reference: one region_area call per piece, each with
# its own density batches, and a ladder loop over them.


def _reference_region_area(domain, region, tol, max_depth, max_points, n_dirs):
    V = as_points(region)
    cell_points = len(_CELL_WEIGHTS)

    def rule(T):
        # the 19-point value and its distance to Radon's rule on the first 7 nodes
        h = densities(domain, np.einsum("kv,nvd->nkd", _CELL_NODES, T).reshape(-1, 2), n_dirs=n_dirs, validate=False)
        H = h.reshape(-1, cell_points)
        value = _tri_areas(T) * np.einsum("ij,j->i", H, _CELL_WEIGHTS)
        radon = _tri_areas(T) * np.einsum("ij,j->i", H[:, :len(_RADON_WEIGHTS)], _RADON_WEIGHTS)
        return value, np.abs(value - radon)

    tris, _ = measure._fan_cells(domain, V, [len(V)])
    value, err = rule(tris)
    n = len(tris)
    cells = {"tri": tris, "depth": np.zeros(n, dtype=int), "id": np.arange(n), "value": value, "err": err}
    next_id = n
    total_prev = None
    total = float(value.sum())
    # every density point is charged: the fan cells, then the 4 children of
    # each refined cell
    budget_left = max_points - cell_points * n
    refine_points = 4 * cell_points
    budget_exhausted = False
    while True:
        settled = cells["err"] <= tol * np.maximum(cells["value"], 0.0) + 1e-15 * max(1.0, abs(total))
        active = ~settled & ~(cells["depth"] >= max_depth)
        if not np.any(active) or budget_left <= 0:
            budget_exhausted = budget_left <= 0 and bool(np.any(active))
            break
        idx = np.flatnonzero(active)
        idx = idx[np.lexsort((cells["id"][idx], -cells["err"][idx]))]
        if refine_points * len(idx) > budget_left:
            idx = idx[: budget_left // refine_points]
            if len(idx) == 0:
                budget_exhausted = True
                break
        budget_left -= refine_points * len(idx)
        child_tris = _split4(cells["tri"][idx]).reshape(-1, 3, 2)
        cvalue, cerr = rule(child_tris)
        keep = np.ones(len(cells["tri"]), dtype=bool)
        keep[idx] = False
        new = {"tri": child_tris, "depth": np.repeat(cells["depth"][idx] + 1, 4),
               "id": next_id + np.arange(len(child_tris)), "value": cvalue, "err": cerr}
        next_id += len(child_tris)
        cells = {k: np.concatenate([cells[k][keep], new[k]]) for k in cells}
        total_prev = total
        total = float(cells["value"].sum())

    value = float(cells["value"].sum())
    settled = cells["err"] <= tol * np.maximum(cells["value"], 0.0) + 1e-15 * max(1.0, abs(value))
    diverged = False
    if np.any(~settled) and (np.any(cells["depth"][~settled] >= max_depth) or budget_exhausted):
        diverged = total_prev is None or total > total_prev * (1.0 + tol)
    return QuadratureEstimate(value=value, error_bound=float(cells["err"].sum()),
                              depth=int(cells["depth"].max()), diverged=diverged)


def _reference_run_ladder(domain, V, i, tol, depth, piece_kwargs):
    fractions = 0.5 ** np.arange(1, depth + 1)
    increments = []
    err = 0.0
    for k in range(len(fractions) - 1):
        est = _reference_region_area(domain, _ladder_piece(V, i, fractions[k], fractions[k + 1]), tol, **piece_kwargs)
        increments.append(est.value)
        err += est.error_bound
    mu = np.asarray(increments)
    partial = float(mu.sum())
    diverged = bool(mu[-1] >= mu[-2] / 1.05 and mu[-2] >= mu[-3] / 1.05)
    r_hat = mu[-1] / mu[-2] if mu[-2] > 0 else 1.0
    r_prev = mu[-2] / mu[-3] if mu[-3] > 0 else 1.0
    if r_hat >= 0.98:
        diverged = True
    if diverged:
        return CornerLadder(partial=partial, tail=0.0, increments=tuple(increments), diverged=True, error=err)
    tail = float(mu[-1] * r_hat / (1.0 - r_hat))
    tail_alt = float(mu[-1] * r_prev / (1.0 - r_prev)) if r_prev < 1.0 else 2.0 * tail
    err += abs(tail - tail_alt) + mu[-1] * r_hat ** 2
    return CornerLadder(partial=partial, tail=tail, increments=tuple(increments), diverged=False, error=err)


def _reference_area_detail(domain, T, tol=1e-3, ladder_depth=12, max_depth=9, max_points=6000, n_dirs=PIECE_DIRS):
    kw = {"max_depth": max_depth, "max_points": max_points, "n_dirs": n_dirs}
    V = T.vertices()
    medial = _reference_region_area(domain, 0.5 * (V + np.roll(V, -1, axis=0)), tol, **kw)
    return medial, tuple(_reference_run_ladder(domain, V, i, tol, ladder_depth, kw) for i in range(3))


_SQUARE4 = regular_polygon(4)
_CORNERS = _SQUARE4.vertex_params()[:3]


@pytest.mark.parametrize(
    "dom, ts, diverged",
    [
        (unit_disk(), (0.2, 2.3, 4.3), False),
        (Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3), (0.2, 2.3, 4.3), False),
        (PBall(1.5), (0.2, 2.3, 4.3), False),
        (PBall(4.0), (0.3, 2.4, 4.4), False),
        (PowerCap(2.0), (-2.0, -0.9, 1.5), False),
        (ProjectiveImage(unit_disk(), ProjectiveMap([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])),
         (0.2, 2.3, 4.3), False),
        (_SQUARE4, _sample_triples(_SQUARE4, TriangleSamplerConfig(budget=1, seed=0))[0], False),
        (SmoothedPolygon(_SQUARE4.vertices, smoothing=0.1), (0.3, 2.4, 4.4), False),
        (_SQUARE4, _CORNERS + 1e-6, True),
        (_SQUARE4, _CORNERS - 1e-6, True),
    ],
    ids=["disk", "ellipse", "pball1.5", "pball4", "power-cap", "projective-disk", "stratified-square",
         "smoothed", "square-corner+", "square-corner-"],
)
def test_lock_step_pieces_match_sequential_region_areas(dom, ts, diverged):
    tri = make_ideal_triangle(dom, *ts)
    medial, ladders = ideal_triangle_area_detail(dom, tri)
    reference = _reference_area_detail(dom, tri)
    if diverged:
        # refinement stops once a ladder's divergence has settled, so the
        # pieces keep earlier totals; each ladder's verdict is the same
        assert [lad.diverged for lad in ladders] == [lad.diverged for lad in reference[1]]
    else:
        assert (medial, ladders) == reference
    assert any(lad.diverged for lad in ladders) == diverged


def _counting_densities(monkeypatch):
    rows = []
    real = measure.densities

    def counting(domain, P, **kw):
        rows.append(len(P))
        return real(domain, P, **kw)

    monkeypatch.setattr(measure, "densities", counting)
    return rows


@pytest.mark.parametrize("rung", [0, 5, 10])
def test_capped_piece_stays_within_its_point_budget(monkeypatch, rung):
    tri = make_ideal_triangle(_SQUARE4, *(_CORNERS + 1e-6))
    piece = _ladder_piece(tri.vertices(), 0, 0.5 ** (rung + 1), 0.5 ** (rung + 2))
    rows = _counting_densities(monkeypatch)
    est = region_area(_SQUARE4, piece, tol=1e-3, max_depth=PIECE_MAX_DEPTH, max_points=PIECE_MAX_POINTS,
                      n_dirs=PIECE_DIRS)
    points = sum(rows)
    # the budget stopped refinement: less than one more refined cell was left
    assert PIECE_MAX_POINTS - 4 * len(_CELL_WEIGHTS) < points <= PIECE_MAX_POINTS
    assert est.diverged


def test_batch_equals_each_region_alone(monkeypatch):
    tri = make_ideal_triangle(_SQUARE4, *(_CORNERS + 1e-6))
    capped = _ladder_piece(tri.vertices(), 0, 0.5 ** 6, 0.5 ** 7)
    # a vertex on an edge: the cell at it never settles, down to the depth cap
    deep = np.array([[0.5, 0.5], [0.2, 0.1], [0.1, 0.2]])
    hexagon = 0.3 * np.stack([np.cos(np.arange(6) * np.pi / 3.0), np.sin(np.arange(6) * np.pi / 3.0)], axis=1)
    regions = [np.empty((0, 2)), [[0.1, 0.2]], [[0.1, 0.2], [0.3, -0.1]],
               [[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]], hexagon, capped, deep]
    settings = (1e-3, PIECE_MAX_DEPTH, PIECE_MAX_POINTS, PIECE_DIRS)
    rows = _counting_densities(monkeypatch)
    alone, alone_rows = [], []
    for r in regions:
        alone.append(region_area(_SQUARE4, r, *settings))
        alone_rows.append(rows[:])
        rows.clear()
    V = np.concatenate([np.reshape(r, (-1, 2)) for r in regions])
    counts = [np.size(r) // 2 for r in regions]
    assert measure._region_areas(_SQUARE4, V, counts, *settings) == alone
    assert alone[:3] == [QuadratureEstimate(0.0, 0.0, 0, False)] * 3
    assert alone[5].diverged and alone[5].depth < PIECE_MAX_DEPTH
    assert sum(alone_rows[5]) > PIECE_MAX_POINTS - 4 * len(_CELL_WEIGHTS)
    assert alone[6].depth == PIECE_MAX_DEPTH
    # the batch evaluates the same points in as many calls as its longest region
    assert sum(rows) == sum(map(sum, alone_rows))
    assert len(rows) == max(map(len, alone_rows))


def test_batch_raises_what_its_first_bad_region_raises():
    convex = [[0.0, -0.3], [0.4, 0.2], [-0.35, 0.25]]
    nonconvex = [[0.0, 0.0], [0.5, 0.0], [0.1, 0.1], [0.0, 0.5]]
    outside = [[0.0, 0.0], [2.0, 0.0], [0.0, 0.5]]
    settings = (1e-3, PIECE_MAX_DEPTH, PIECE_MAX_POINTS, PIECE_DIRS)
    with pytest.raises(ValueError, match="convex") as alone:
        region_area(unit_disk(), nonconvex, *settings)
    with pytest.raises(ValueError, match="convex") as batch:
        measure._region_areas(unit_disk(), np.concatenate([convex, nonconvex, outside]), [3, 4, 3], *settings)
    assert type(batch.value) is type(alone.value)
    with pytest.raises(RegionOutsideDomain):
        measure._region_areas(unit_disk(), np.concatenate([convex, outside, nonconvex]), [3, 3, 4], *settings)


# per-ladder verdicts of the corner-offset square triangles when every piece
# refines to its budget, computed with the stop disabled in a copy of the
# code (10 density batches, 196 973 points, partial 115.1787854... at +1e-6)
CORNER_LADDER_VERDICTS = {1e-6: [True, False, False], -1e-6: [False, False, True]}
# density points of the fan cells and of the two rounds of refinement
# before the corner ladder's verdict settles, counted by the test below
CORNER_STOP_POINTS = 19893


@pytest.mark.parametrize("offset", list(CORNER_LADDER_VERDICTS), ids=["square-corner+", "square-corner-"])
def test_corner_triangle_stops_once_its_divergence_settles(monkeypatch, offset):
    tri = make_ideal_triangle(_SQUARE4, *(_CORNERS + offset))
    rows = _counting_densities(monkeypatch)
    _, ladders = ideal_triangle_area_detail(_SQUARE4, tri)
    assert len(rows) <= 3
    assert sum(rows) <= CORNER_STOP_POINTS
    assert [lad.diverged for lad in ladders] == CORNER_LADDER_VERDICTS[offset]
    est = ideal_triangle_area(_SQUARE4, tri)
    assert est.diverged
    # criterion 5 needs the square's partial above 10 times the disk's pi
    assert est.value > 10.0 * math.pi


def test_settled_disk_triangle_takes_one_density_batch(monkeypatch):
    # all 34 pieces settle on their fan cells (1 + 33 * 2), so the fan
    # cells, 19 points each, are the only batch
    rows = _counting_densities(monkeypatch)
    ideal_triangle_area_detail(unit_disk(), make_ideal_triangle(unit_disk(), 0.2, 2.3, 4.3))
    assert rows == [(1 + 33 * 2) * len(_CELL_WEIGHTS)] == [1273]


@pytest.mark.parametrize(
    "dom, ts, vertex, beta",
    [
        (unit_disk(), (0.3, 2.4, 4.3), None, 2.0),
        # the quartic's flat point (1, 0); its other vertices are round
        (PBall(4.0), (0.0, 2.2, 4.2), 0, 4.0),
    ],
    ids=["disk", "pball4-flat-point"],
)
def test_ladder_decay_measures_the_boundary_exponent(dom, ts, vertex, beta):
    # a boundary locally |x|^beta gives increments decaying by 2^-(1 - 1/beta)
    _, ladders = ideal_triangle_area_detail(dom, make_ideal_triangle(dom, *ts))
    for lad in ladders if vertex is None else ladders[vertex:vertex + 1]:
        assert lad.decay_ratio == lad.increments[-1] / lad.increments[-2]
        assert lad.boundary_exponent == pytest.approx(beta, rel=1e-2)
        assert lad.decay_ratio == pytest.approx(2.0 ** -(1.0 - 1.0 / beta), rel=1e-2)


def test_ladder_exponent_is_nan_without_a_positive_ratio():
    for increments in ((1.0, 0.5, 0.0), (1.0, 0.0, 0.0), (1.0, 0.5, -0.1)):
        lad = CornerLadder(partial=0.0, tail=0.0, increments=increments, diverged=False, error=0.0)
        assert math.isnan(lad.boundary_exponent)
    corner = CornerLadder(partial=0.0, tail=0.0, increments=(1.0, 1.0, 1.0), diverged=True, error=0.0)
    assert corner.decay_ratio == 1.0 and corner.boundary_exponent == 1.0
