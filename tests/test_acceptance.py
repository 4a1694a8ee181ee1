"""Acceptance gate: one test per criterion, run with pytest -v for a
pass/fail line each.  Budgets and seeds are fixed so every run measures the
same configuration."""

import math
import time

import numpy as np

from hilbertgeom.cli import SWEEP_HEADER, main
from hilbertgeom.domains import (
    Ellipse,
    PBall,
    Polygon,
    ProjectiveImage,
    ProjectiveMap,
    unit_disk,
)
from hilbertgeom.errors import ImproperImage
from hilbertgeom.measure import ball_area, density
from hilbertgeom.metric import hilbert_distance, hilbert_distances
from hilbertgeom.normalize import boundary_graph, graph_alpha_fit, normalize_triangle_pointed
from hilbertgeom.regularity import (
    SampledFunction,
    boundary_regularity_report,
    chain_constants,
    derivative_holder_check,
    holder_bound_check,
)
from hilbertgeom.suites import (
    run_ball_growth_suite,
    run_comparison_suite,
    run_finite_area_suite,
    run_graph_suite,
)
from hilbertgeom.triangles import (
    TriangleSamplerConfig,
    ideal_triangle_area,
    ideal_triangle_from_points,
    make_ideal_triangle,
    sup_area_search,
)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
TARGETS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_criterion_1_klein_golden_values():
    start = time.perf_counter()
    disk = unit_disk()
    for r in (0.1, 0.5, 0.9):
        assert abs(hilbert_distance(disk, (0.0, 0.0), (r, 0.0)) - math.atanh(r)) <= 1e-9
    exact_density = 0.75**-1.5
    assert abs(density(disk, (0.5, 0.0)) - exact_density) / exact_density <= 1e-4
    exact_ball = 4.0 * math.pi * math.sinh(0.5) ** 2
    est = ball_area(disk, (0.0, 0.0), 1.0)
    assert abs(est.value - exact_ball) / exact_ball <= 1e-2
    period = disk.param_period
    triples = [
        (0.0, 1.0 / 3.0, 2.0 / 3.0),
        (0.1, 0.45, 0.8),
        (0.05, 0.3, 0.6),
        (0.2, 0.5, 0.75),
        (0.15, 0.55, 0.82),
    ]
    for ts in triples:
        tri = make_ideal_triangle(disk, *(t * period for t in ts))
        area = ideal_triangle_area(disk, tri)
        assert not area.diverged
        assert abs(area.value - math.pi) <= 0.01 * math.pi
    elapsed = time.perf_counter() - start
    print(f"criterion 1: goldens ok in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_2_power_cap_finite_area():
    report = run_finite_area_suite()
    for check in report.checks:
        print(f"criterion 2: {check.detail}")
    assert report.passed


def test_criterion_3_comparison_500_pairs():
    report = run_comparison_suite(pairs=500, seed=0)
    for check in report.checks:
        print(f"criterion 3: {check.detail}")
    assert report.passed


def test_criterion_4_projective_invariance():
    disk = unit_disk()
    rng = np.random.default_rng(2024)
    period = disk.param_period
    base_tri = make_ideal_triangle(disk, 0.0, period / 3.0, 2.0 * period / 3.0)
    base_area = ideal_triangle_area(disk, base_tri).value
    accepted = 0
    tried = 0
    worst_dist = 0.0
    worst_area = 0.0
    area_checked = 0
    while accepted < 200 and tried < 2000:
        tried += 1
        M = np.eye(3) + 0.2 * rng.uniform(-1.0, 1.0, (3, 3))
        H = ProjectiveMap(M)
        try:
            image = ProjectiveImage(disk, H)
        except ImproperImage:
            continue
        accepted += 1
        P = rng.uniform(-0.6, 0.6, (5, 2))
        Q = rng.uniform(-0.6, 0.6, (5, 2))
        d0 = hilbert_distances(disk, P, Q)
        d1 = hilbert_distances(image, H.apply_many(P), H.apply_many(Q))
        drift = float(np.max(np.abs(d1 - d0) / np.maximum(d0, 1e-12)))
        worst_dist = max(worst_dist, drift)
        if area_checked < 6:
            mapped = ideal_triangle_from_points(image, H.apply_many(base_tri.vertices()))
            assert mapped.validity
            mapped_area = ideal_triangle_area(image, mapped).value
            worst_area = max(worst_area, abs(mapped_area - base_area) / base_area)
            area_checked += 1
    print(
        f"criterion 4: {accepted} maps, worst distance drift={worst_dist:.2e}, "
        f"worst area drift={worst_area:.2%} over {area_checked} maps"
    )
    assert accepted == 200
    assert worst_dist <= 1e-6
    assert area_checked == 6
    assert worst_area <= 0.02


def test_criterion_5_dichotomy_sweep(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--family", "pball", "--grid", "2", "3", "4", "6", "10", "20",
         "--budget", "16", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    thin = [float(r[2]) for r in rows]
    sup = [float(r[4]) for r in rows]
    diverged = [int(r[5]) for r in rows]
    assert all(b > a for a, b in zip(thin, thin[1:])), f"delta_thin not increasing: {thin}"
    assert all(b > a for a, b in zip(sup, sup[1:])), f"sup_area not increasing: {sup}"
    assert diverged[0] == 0  # the disk never flags
    square = sup_area_search(Polygon(SQUARE), TriangleSamplerConfig(budget=4, seed=0))
    assert len(square.divergent) >= 1
    assert square.max_value > 10.0 * sup[0]
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: thin={thin}, sup={sup}, square partial={square.max_value:.1f} "
        f"({len(square.divergent)} diverged) in {elapsed:.0f}s"
    )
    assert elapsed < 900.0


def test_criterion_6_ball_growth():
    report = run_ball_growth_suite()
    for check in report.checks:
        print(f"criterion 6: {check.detail}")
    assert report.passed


def test_criterion_7_regularity_chain():
    # exact formula identities
    for H, a in ((1.0, 1.0), (2.5, 1.0), (4.0, 0.4)):
        H2, alpha = chain_constants(H, a)
        assert H2 == (4.0 * H * (H + 1.0)) ** ((1.0 + a) / a)
        assert alpha == 1.0 + math.log1p(1.0 / H2) / math.log(2.0)
    # function corpus with measured constants
    corpus = [
        SampledFunction.from_callable(lambda t: t * t, a=1.0, derivative=lambda t: 2.0 * t),
        SampledFunction.from_callable(
            lambda t: abs(t) ** 1.2, a=1.0, derivative=lambda t: 1.2 * abs(t) ** 0.2 * np.sign(t)
        ),
        SampledFunction.from_callable(
            lambda t: abs(t) ** 1.5, a=1.0, derivative=lambda t: 1.5 * abs(t) ** 0.5 * np.sign(t)
        ),
    ]
    worst = math.inf
    for f in corpus:
        rep = holder_bound_check(f)
        der = derivative_holder_check(f)
        worst = min(worst, rep.bound_margin, der.margin)
        assert rep.bound_margin >= -1e-9
        assert der.passed
    # boundary graphs of disk, ellipse and p-balls
    domains = [
        (unit_disk(), [0.0, -1.0]),
        (Ellipse(semi_axes=(1.3, 0.8)), [0.0, -0.8]),
        (PBall(1.5), [0.0, -1.0]),
        (PBall(4.0), [0.0, -1.0]),
    ]
    for dom, pt in domains:
        rep = boundary_regularity_report(dom, pt)
        assert rep.bound_margin >= -1e-9
        assert not rep.non_strictly_convex
        worst = min(worst, rep.bound_margin)
    fit2 = graph_alpha_fit(boundary_graph(unit_disk(), [0.0, -1.0], 0.5))
    fit4 = graph_alpha_fit(boundary_graph(PBall(4.0), [0.0, -1.0], 0.5))
    print(
        f"criterion 7: worst margin={worst:.3e}, alpha_hat circle={fit2.alpha_hat:.4f}, "
        f"quartic={fit4.alpha_hat:.4f}"
    )
    assert abs(fit2.alpha_hat - 2.0) <= 0.05
    assert abs(fit4.alpha_hat - 4.0) <= 0.1


def test_criterion_8_graph_extraction():
    report = run_graph_suite()
    for check in report.checks:
        print(f"criterion 8: {check.detail}")
    assert report.passed


def test_criterion_9_normalization_100_pairs():
    rng = np.random.default_rng(99)
    worst_resid = 0.0
    worst_iso = 0.0
    worst_idem = 0.0
    alphas = []
    for k in range(100):
        kind = k % 3
        if kind == 0:
            dom = unit_disk()
        elif kind == 1:
            dom = Ellipse(semi_axes=(1.0 + rng.uniform(0.0, 0.6), 0.6 + rng.uniform(0.0, 0.3)))
        else:
            dom = PBall(rng.uniform(1.5, 8.0))
        period = dom.param_period
        while True:
            ts = np.sort(rng.uniform(0.0, 1.0, 3))
            gaps = np.array([ts[1] - ts[0], ts[2] - ts[1], 1.0 - ts[2] + ts[0]])
            if np.min(gaps) > 0.12:
                break
        tri = make_ideal_triangle(dom, *(ts * period))
        if not tri.validity:
            continue
        res = normalize_triangle_pointed(dom, tri)
        worst_resid = max(worst_resid, res.vertex_residual, res.tangency_residual)
        alphas.append(res.alpha)
        assert 0.0 < res.alpha <= 0.5 + 1e-12
        # isometry of the normalizing map
        H = ProjectiveMap(res.matrix)
        pts = []
        while len(pts) < 4:
            cand = rng.uniform(-dom.bounding_radius(), dom.bounding_radius(), 2)
            if dom.gauge(cand[None])[0] < -0.05:
                pts.append(cand)
        P = np.array(pts[:2])
        Q = np.array(pts[2:])
        d0 = hilbert_distances(dom, P, Q)
        d1 = hilbert_distances(res.domain, H.apply_many(P), H.apply_many(Q))
        worst_iso = max(worst_iso, float(np.max(np.abs(d1 - d0) / np.maximum(d0, 1e-12))))
        # idempotence: normalizing the normal form is the identity
        target_tri = ideal_triangle_from_points(res.domain, TARGETS)
        res2 = normalize_triangle_pointed(res.domain, target_tri)
        M = np.asarray(res2.matrix)
        M = M / M[np.unravel_index(np.argmax(np.abs(M)), M.shape)]
        worst_idem = max(worst_idem, float(np.max(np.abs(M - np.eye(3)))))
    print(
        f"criterion 9: {len(alphas)} normalizations, worst residual={worst_resid:.2e}, "
        f"worst isometry drift={worst_iso:.2e}, worst idempotence gap={worst_idem:.2e}, "
        f"alpha range=[{min(alphas):.4f}, {max(alphas):.4f}]"
    )
    assert len(alphas) == 100
    assert worst_resid < 1e-8
    assert worst_iso <= 1e-6
    assert worst_idem <= 1e-6
