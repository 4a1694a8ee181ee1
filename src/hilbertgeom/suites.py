"""Verification suites: numbered inequality checks runnable from the CLI.

Each suite bundles a handful of quantitative checks around one statement
family (metric comparison for nested domains, finiteness of ideal-corner
areas over power caps, boundary-graph extraction, the Hölder constant
chain, volume growth of metric balls).  Suites return structured reports;
the CLI renders one pass/fail line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, Ellipse, PBall, Polygon, PowerCap, unit_disk
from .errors import InsufficientSignal
from .measure import ball_area, chord_parameter_at_distance, region_area
from .metric import finsler_norms, hilbert_distances
from .normalize import boundary_graph, graph_alpha_fit
from .regularity import (
    SampledFunction,
    boundary_regularity_report,
    chain_constants,
    derivative_holder_check,
    holder_bound_check,
    qsc_constant,
)

_BALL_GROWTH_RADII = tuple(range(2, 9))
_PACK_DISTANCES = (1.0, 3.0, 5.0, 7.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            out.append(f"{'PASS' if c.passed else 'FAIL'} {self.suite}/{c.name}: {c.detail}")
        return out


# ---------------------------------------------------------------------------
# comparison: nested domains shrink the metric and the measure


def _sample_interior(domain: ConvexDomain, rng, margin: float = 0.25) -> np.ndarray:
    anchor = domain.interior_point()
    R = domain.bounding_radius()
    for _ in range(400):
        p = anchor + rng.uniform(-R, R, 2)
        if domain.gauge(p[None])[0] < -margin:
            return p
    return anchor.copy()


def _nested_pair(rng, flavor: int):
    """A nested (inner, outer) pair: moving to the outer domain can only
    shrink Finsler norms, distances, and region measures."""
    if flavor % 2 == 0:
        c = rng.uniform(-0.3, 0.3, 2)
        r1 = 0.5 + 0.5 * rng.random()
        grow = 1.05 + rng.random()
        slack = r1 * (grow - 1.0)
        shift = rng.uniform(-0.4, 0.4, 2) * slack
        inner = PBall(2.0, center=c, scale=r1)
        outer = PBall(2.0, center=c + shift, scale=r1 * grow)
    else:
        p = 1.5 + 5.0 * rng.random()
        c = rng.uniform(-0.3, 0.3, 2)
        r1 = 0.5 + 0.5 * rng.random()
        pad = 1.0 + 0.05 + 0.5 * rng.random()
        half = r1 * pad
        inner = PBall(p, center=c, scale=r1)
        outer = Polygon(
            [
                [c[0] - half, c[1] - half],
                [c[0] + half, c[1] - half],
                [c[0] + half, c[1] + half],
                [c[0] - half, c[1] + half],
            ]
        )
    return inner, outer


def run_comparison_suite(pairs: int = 150, seed: int = 0) -> SuiteReport:
    if pairs < 1:
        raise ValueError("comparison suite needs at least one pair")
    rng = np.random.default_rng(seed)
    norm_bad = dist_bad = meas_bad = 0
    worst_norm = worst_dist = worst_meas = 0.0
    for k in range(pairs):
        inner, outer = _nested_pair(rng, k)
        p = _sample_interior(inner, rng, margin=0.3)
        q = _sample_interior(inner, rng, margin=0.1)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([math.cos(theta), math.sin(theta)])

        f_in = finsler_norms(inner, p[None], v[None])[0]
        f_out = finsler_norms(outer, p[None], v[None])[0]
        worst_norm = max(worst_norm, f_out - f_in)
        if f_out > f_in + 1e-9:
            norm_bad += 1

        d_in = hilbert_distances(inner, p[None], q[None])[0]
        d_out = hilbert_distances(outer, p[None], q[None])[0]
        worst_dist = max(worst_dist, d_out - d_in)
        if d_out > d_in + 1e-9:
            dist_bad += 1

        rad = 0.12 * inner.bounding_radius()
        phis = theta + np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        T = p[None, :] + rad * dirs
        while np.any(inner.gauge(T) >= -1e-6):
            rad *= 0.5
            T = p[None, :] + rad * dirs
        mu_in = region_area(inner, T).value
        mu_out = region_area(outer, T).value
        if mu_in > 0:
            worst_meas = max(worst_meas, mu_out / mu_in - 1.0)
        if mu_out > mu_in * (1.0 + 1e-3):
            meas_bad += 1

    checks = (
        CheckResult(
            "finsler-monotone", norm_bad == 0,
            f"{pairs} pairs, violations={norm_bad}, worst excess={worst_norm:.2e}",
        ),
        CheckResult(
            "distance-monotone", dist_bad == 0,
            f"{pairs} pairs, violations={dist_bad}, worst excess={worst_dist:.2e}",
        ),
        CheckResult(
            "measure-monotone", meas_bad == 0,
            f"{pairs} pairs, violations={meas_bad}, worst ratio excess={worst_meas:.2e}",
        ),
    )
    return SuiteReport("comparison", checks)


# ---------------------------------------------------------------------------
# finite-area: corner triangles over power caps have finite area


def power_cap_corner_bound(alpha: float, lam: float, tau: float) -> float:
    """Analytic area bound for the triangle {lam*x < y < tau, x > 0} inside
    the cap {|x|^alpha < y < 1}: a density majorant integrates in closed form.
    """
    Lam = (
        alpha
        * lam ** (-1.0 / alpha)
        / (
            (1.0 - tau ** (alpha - 1.0) * lam ** (-alpha))
            * (1.0 - tau ** (2.0 - 2.0 / alpha) * lam ** (-2.0))
        )
    )
    integral = (tau / lam) ** (1.0 - 1.0 / alpha) * alpha / (alpha - 1.0)
    return math.pi / (4.0 * (1.0 - tau)) * Lam * integral


def _finite_area_case(alpha: float, lam: float, tau: float, tol: float) -> CheckResult:
    dom = PowerCap(alpha)
    T = np.array([[0.0, 0.0], [tau / lam, tau], [0.0, tau]])
    # the cusp vertex sits on the boundary, so the refinement never settles
    # inside tol and the quadrature may report diverged; convergence is
    # certified by comparing two depth caps instead
    coarse = region_area(dom, T, tol=tol, max_depth=14, max_points=240000)
    fine = region_area(dom, T, tol=tol, max_depth=16, max_points=240000)
    bound = power_cap_corner_bound(alpha, lam, tau)
    drift = abs(fine.value - coarse.value) / max(fine.value, 1e-300)
    ok = drift < 0.01 and fine.value <= bound
    detail = (
        f"alpha={alpha} lam={lam} tau={tau}: area={fine.value:.4f} <= bound={bound:.3f}, "
        f"depth drift={drift:.2%}"
    )
    return CheckResult(f"cap-alpha-{alpha}", ok, detail)


def run_finite_area_suite(tol: float = 1e-3) -> SuiteReport:
    checks = (
        _finite_area_case(2.0, 1.0, 2.0 / 3.0, tol),
        _finite_area_case(1.5, 1.0, 0.5, tol),
    )
    return SuiteReport("finite-area", checks)


# ---------------------------------------------------------------------------
# graph: boundary graph extraction against closed forms


def run_graph_suite() -> SuiteReport:
    checks = []
    disk = unit_disk()
    strip = boundary_graph(disk, [0.0, -1.0], [1.0, 0.0], 0.5)
    x = strip.x
    err_disk = float(np.max(np.abs(strip.f - (1.0 - np.sqrt(1.0 - x * x)))))
    checks.append(CheckResult("disk-analytic", err_disk <= 1e-9, f"max err={err_disk:.2e}"))

    p4 = PBall(4.0)
    strip4 = boundary_graph(p4, [0.0, -1.0], [1.0, 0.0], 0.5)
    err_p4 = float(np.max(np.abs(strip4.f - (1.0 - (1.0 - strip4.x**4) ** 0.25))))
    checks.append(CheckResult("p4-analytic", err_p4 <= 1e-9, f"max err={err_p4:.2e}"))

    mids = strip.f[:-2] + strip.f[2:] - 2.0 * strip.f[1:-1]
    defect = float(np.min(mids))
    checks.append(CheckResult("convexity", defect >= -1e-12, f"worst midpoint defect={defect:.2e}"))

    center = strip.f[(len(strip.f) - 1) // 2]
    checks.append(CheckResult("tangency-zero", center <= 1e-12, f"f(0)={center:.2e}"))

    n3 = (len(strip.f) - 1) // 3
    pos = min(strip.f[n3], strip.f[-1 - n3], strip4.f[n3], strip4.f[-1 - n3])
    checks.append(CheckResult("endpoint-positive", pos > 0.0, f"min f(±rho/3)={pos:.2e}"))

    square = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    strip_sq = boundary_graph(square, [0.5, 0.0], [1.0, 0.0], 0.3)
    try:
        graph_alpha_fit(strip_sq)
        flat_ok, note = False, "flat graph unexpectedly fit"
    except InsufficientSignal:
        flat_ok, note = True, "flat edge raises InsufficientSignal"
    checks.append(CheckResult("flat-edge-signal", flat_ok, note))
    return SuiteReport("graph", checks)


# ---------------------------------------------------------------------------
# regularity: constant chain identities and bound margins


def run_regularity_suite() -> SuiteReport:
    checks = []
    ident_ok = True
    for H, a in ((1.0, 1.0), (2.5, 1.0), (4.0, 0.4)):
        H2, alpha = chain_constants(H, a)
        H2_direct = (4.0 * H * (H + 1.0)) ** ((1.0 + a) / a)
        alpha_direct = 1.0 + math.log1p(1.0 / H2_direct) / math.log(2.0)
        if H2 != H2_direct or alpha != alpha_direct or not alpha > 1.0:
            ident_ok = False
    checks.append(CheckResult("chain-identities", ident_ok, "H2 and alpha formulas reproduce exactly"))

    corpus = [
        ("x^2", SampledFunction.from_callable(lambda t: t * t, a=1.0, derivative=lambda t: 2 * t)),
        (
            "|x|^1.2",
            SampledFunction.from_callable(
                lambda t: abs(t) ** 1.2, a=1.0, derivative=lambda t: 1.2 * abs(t) ** 0.2 * np.sign(t)
            ),
        ),
        (
            "|x|^1.5",
            SampledFunction.from_callable(
                lambda t: abs(t) ** 1.5, a=1.0, derivative=lambda t: 1.5 * abs(t) ** 0.5 * np.sign(t)
            ),
        ),
    ]
    worst = math.inf
    ok = True
    for label, f in corpus:
        H = qsc_constant(f)
        rep = holder_bound_check(f, H=H)
        der = derivative_holder_check(f)
        worst = min(worst, rep.bound_margin, der.margin)
        if rep.bound_margin < -1e-9 or not der.passed:
            ok = False
    checks.append(CheckResult("function-corpus", ok, f"3 functions, worst margin={worst:.3e}"))

    domains = [
        ("disk", unit_disk(), [0.0, -1.0]),
        ("ellipse", Ellipse(semi_axes=(1.3, 0.8)), [0.0, -0.8]),
        ("pball-1.5", PBall(1.5), [0.0, -1.0]),
        ("pball-4", PBall(4.0), [0.0, -1.0]),
    ]
    dom_ok = True
    worst_dom = math.inf
    for label, dom, pt in domains:
        rep = boundary_regularity_report(dom, pt)
        worst_dom = min(worst_dom, rep.bound_margin)
        if rep.bound_margin < -1e-9 or rep.non_strictly_convex:
            dom_ok = False
    checks.append(CheckResult("boundary-corpus", dom_ok, f"4 domains, worst margin={worst_dom:.3e}"))

    fit_disk = graph_alpha_fit(boundary_graph(unit_disk(), [0.0, -1.0], [1.0, 0.0], 0.5))
    fit_p4 = graph_alpha_fit(boundary_graph(PBall(4.0), [0.0, -1.0], [1.0, 0.0], 0.5))
    fits_ok = abs(fit_disk.alpha_hat - 2.0) <= 0.05 and abs(fit_p4.alpha_hat - 4.0) <= 0.1
    checks.append(
        CheckResult(
            "contact-exponents", fits_ok,
            f"circle alpha={fit_disk.alpha_hat:.4f} (2±0.05), quartic alpha={fit_p4.alpha_hat:.4f} (4±0.1)",
        )
    )
    return SuiteReport("regularity", checks)


# ---------------------------------------------------------------------------
# ball-growth: balls grow at least linearly in the radius


def point_at_distance(domain: ConvexDomain, q, direction, dist: float) -> np.ndarray:
    """Point at Hilbert distance ``dist`` from ``q`` along a chord direction."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.hypot(u[0], u[1])
    t_plus, t_minus = domain.ray_hits_both(q[None], u[None])
    return q + chord_parameter_at_distance(t_plus[0], t_minus[0], dist) * u


def run_ball_growth_suite(tol: float = 1e-3) -> SuiteReport:
    checks = []
    direction = np.array([1.0, 0.0])
    for label, dom in (("disk", unit_disk()), ("pball-4", PBall(4.0))):
        q = dom.interior_point()
        centers = [point_at_distance(dom, q, direction, d) for d in _PACK_DISTANCES]
        v1 = min(ball_area(dom, c, 1.0, tol=tol).value for c in centers)
        ok = True
        worst = math.inf
        for R in _BALL_GROWTH_RADII:
            big = ball_area(dom, q, float(R), tol=tol)
            need = (R / 2.0 - 1.0) * v1
            slack = big.value - need
            worst = min(worst, slack)
            if big.value < need or big.diverged:
                ok = False
        checks.append(
            CheckResult(
                f"growth-{label}", ok,
                f"V1={v1:.4f}, radii {_BALL_GROWTH_RADII[0]}..{_BALL_GROWTH_RADII[-1]}, "
                f"worst slack={worst:.3f}",
            )
        )
    return SuiteReport("ball-growth", checks)


# ---------------------------------------------------------------------------
# registry

# name -> runner taking (budget, seed, tol); budget None means the default
SUITES = {
    "comparison": lambda budget, seed, tol: run_comparison_suite(150 if budget is None else budget, seed),
    "finite-area": lambda budget, seed, tol: run_finite_area_suite(tol),
    "graph": lambda budget, seed, tol: run_graph_suite(),
    "regularity": lambda budget, seed, tol: run_regularity_suite(),
    "ball-growth": lambda budget, seed, tol: run_ball_growth_suite(tol),
}

# accepted spellings for suites named after the numbered statements they check
SUITE_ALIASES = {
    "lemma-a1": "comparison",
    "lemma-a3": "graph",
    "lemma-a4": "finite-area",
    "lemma-a5": "regularity",
    "lemma-a6": "regularity",
    "lemma-a7": "regularity",
    "lemma-1.4": "ball-growth",
    "lemma-14": "ball-growth",
}


def run_suite(name: str, budget: int | None = None, seed: int = 0, tol: float = 1e-3) -> SuiteReport:
    key = name.strip().lower()
    key = SUITE_ALIASES.get(key, key)
    if key not in SUITES:
        raise KeyError(f"unknown suite: {name}")
    return SUITES[key](budget, seed, tol)
