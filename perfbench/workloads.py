"""The three benchmark workloads.

A workload is built once from the seed (its domains) and then hands out
passes: pass ``k`` is a fixed list of operations whose inputs come from the
seed and ``k`` alone, so a run and its replay see the same inputs, and every
pass of a workload has the same kinds of operation in the same numbers.
Every operation is one public hilbertgeom call plus a check of its output;
the check returns the relative error against the workload's closed-form
oracle (or ``None`` when the operation has none) and raises ``CheckFailed``
when the output is wrong.

The library functions are looked up on the ``hilbertgeom`` module at call
time, so the tracer's shims see every call.

On a 2.1 GHz Xeon core one pass of ``ideal-area`` takes about 33 s, so a
35 s run is one pass; the other two workloads take 12-13 s a pass, three to
a run (``PASS_SECONDS``; run.py runs a fixed number of passes, not a number
that depends on the host's speed).  Within a pass the kinds are counted so
that the median and the tail (ten samples beyond it) fall inside one block
of same-kind operations, not on the edge between two kinds of different
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hilbertgeom as hg

TOL = 1e-3  # ideal_triangle_area and ball_area tolerance
CONIC_TOL = 0.01  # criterion 1: conic areas within 1% of their closed form
WITNESS_TOL = 1e-9  # reevaluate_witness reproduces delta_hat (DeltaEstimate docs)
RESIDUAL_TOL = 1e-8  # criterion 9: vertex and tangency residuals
ALPHA_TOL = 1e-9  # conics normalize to alpha = 1/2
THIN_BUDGET = 4  # delta_thin budget B; delta_four_point gets 40 B, as the CLI sweep does
CORNER_OFFSET = 1e-6  # TriangleSamplerConfig.corner_offset default
HYPERBOLIC_THIN_BOUND = math.log1p(math.sqrt(2.0))  # thin-triangle constant of the hyperbolic plane


class CheckFailed(Exception):
    """An operation returned a wrong output."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]


def interleave(ops: list) -> list:
    """Spread each family of operations (the kind up to its first dot)
    evenly over the pass: the i-th of n runs at about i/n of the way through.
    The cheap, numerous kinds that set the median and the tail then sample
    the whole pass, not a few seconds of it, so a short slowdown of the host
    moves them less."""
    family = [op.kind.split(".")[0] for op in ops]
    index, total = [], {}
    for f in family:
        index.append(total.get(f, 0))
        total[f] = index[-1] + 1
    order = sorted(range(len(ops)), key=lambda j: (index[j] + 0.5) / total[family[j]])
    return [ops[j] for j in order]


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact) if exact else abs(value)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _conics() -> dict:
    """The disk, an ellipse and a projective image of the disk: conics, so
    every ideal triangle has area pi and normal-form alpha 1/2."""
    disk = hg.PBall(2.0)
    H = np.eye(3) + 0.2 * np.array([[0.1, -0.3, 0.2], [0.4, 0.0, -0.1], [0.2, 0.3, 0.0]])
    return {
        "disk": disk,
        "ellipse": hg.Ellipse(semi_axes=(1.3, 0.8), rotation=0.3),
        "projective": hg.ProjectiveImage(disk, hg.ProjectiveMap(H)),
    }


def _near_equilateral(domain, rng: np.random.Generator) -> hg.IdealTriangle:
    """Valid ideal triangle with parameter gaps of a third of the period,
    each jittered by up to a tenth of that, and the first vertex anywhere in
    the first tenth of the period: stratified triples as ``sup_area_search``
    draws them, with a narrower spread so that the quadrature effort, and so
    the time, of one kind of operation is nearly the same across seeds."""
    while True:
        u = rng.random(4)
        ts = [(0.1 * u[0] + (i + 0.2 * (u[i + 1] - 0.5)) / 3.0) % 1.0 * domain.param_period for i in range(3)]
        T = hg.make_ideal_triangle(domain, *ts)
        if T.validity:
            return T


def _spread_triangle(domain, rng: np.random.Generator) -> hg.IdealTriangle:
    """Valid ideal triangle with every parameter gap above 0.12 of the
    period, as criterion 9 draws them."""
    while True:
        ts = np.sort(rng.uniform(0.0, 1.0, 3))
        gaps = np.array([ts[1] - ts[0], ts[2] - ts[1], 1.0 - ts[2] + ts[0]])
        if np.min(gaps) > 0.12:
            T = hg.make_ideal_triangle(domain, *(ts * domain.param_period))
            if T.validity:
                return T


# ---------------------------------------------------------------------------
# ideal-area


def _area_op(kind: str, domain, T, check) -> Op:
    return Op(kind, lambda: hg.ideal_triangle_area(domain, T, tol=TOL), check)


def _disk_area(est):
    _require(not est.diverged, "disk ideal triangle diverged")
    err = rel_err(est.value, math.pi)
    _require(err <= CONIC_TOL, f"disk ideal triangle area {est.value!r} is not within 1% of pi")
    return err


def _round_area(est):
    _require(not est.diverged, "round-domain ideal triangle diverged")
    _require(math.isfinite(est.value) and est.value > 0.0, f"bad area {est.value!r}")


def _square_area(est):
    _require(math.isfinite(est.value) and est.value > 0.0, f"bad area {est.value!r}")


def _corner_area(est):
    _require(est.diverged, "corner-offset square triangle did not diverge")


DISK_TRIANGLES = 16
SQUARE_TRIANGLES = 4
SMOOTHING = 0.1  # the middle of the CLI sweep's smoothing grid (0, 0.05, 0.1, 0.2)


def ideal_area(seed: int) -> Callable[[int], list]:
    """One pass: 24 ideal_triangle_area calls on domains of the CLI sweep,
    about 33 s.  Sorted by time the kinds form blocks: 16 disks, PBall(2)
    (0.22 s); 4 stratified squares, regular_polygon(4) (0.45-0.9 s); the 2
    corner-offset squares that sup_area_search builds, corners 0, 1, 2
    shifted by +1e-6 and by -1e-6 (3 s); 1 PBall(4) (4-6 s); 1 square
    smoothed at 0.1 (15-16 s).  The counts are chosen for the statistics,
    not taken from the sweep's traffic (README.md): the median and the tail
    (the eleventh-largest latency) both fall among the disks, while
    ``ops_per_s`` sums every kind's time."""
    disk, pball = hg.PBall(2.0), hg.PBall(4.0)
    square = hg.regular_polygon(4)
    smoothed = hg.SmoothedPolygon(square.vertices, SMOOTHING)
    corners = square.vertex_params()[[0, 1, 2]]
    corner_Ts = [hg.make_ideal_triangle(square, *(corners + off)) for off in (CORNER_OFFSET, -CORNER_OFFSET)]

    def passes(k: int) -> list:
        r = np.random.default_rng([seed, k])
        ops = [_area_op("disk", disk, _near_equilateral(disk, r), _disk_area) for _ in range(DISK_TRIANGLES)]
        ops += [_area_op("square", square, _near_equilateral(square, r), _square_area) for _ in range(SQUARE_TRIANGLES)]
        ops += [_area_op("square_corner", square, T, _corner_area) for T in corner_Ts]
        ops.append(_area_op("pball4", pball, _near_equilateral(pball, r), _round_area))
        ops.append(_area_op("smoothed_square", smoothed, _near_equilateral(smoothed, r), _round_area))
        return interleave(ops)

    return passes


# ---------------------------------------------------------------------------
# ball-area


def _ball_check(R: float, disk: bool):
    """The disk is the hyperbolic plane, whose balls have area
    4 pi sinh^2(R/2)."""

    def check(est):
        _require(not est.diverged, "ball area diverged")
        _require(math.isfinite(est.value) and est.value > 0.0, f"bad ball area {est.value!r}")
        if not disk:
            return None
        err = rel_err(est.value, 4.0 * math.pi * math.sinh(0.5 * R) ** 2)
        _require(err <= CONIC_TOL, f"disk ball area {est.value!r} is not within 1% of 4 pi sinh^2(R/2)")
        return err

    return check


DISK_BALLS = 10


def ball(seed: int) -> Callable[[int], list]:
    """One pass: one PBall(4) ball (7.4 s) and ten disk balls (0.5 s each),
    about 12 s; R uniform in [2, 4], centres uniform in the disk of radius
    0.3.  The median and the tail fall among the disk balls."""
    disk, pball = hg.PBall(2.0), hg.PBall(4.0)

    def passes(k: int) -> list:
        r = np.random.default_rng([seed, k])
        ops = []
        for name, dom in [("pball4", pball)] + [("disk", disk)] * DISK_BALLS:
            R = float(r.uniform(2.0, 4.0))
            rad, ang = 0.3 * math.sqrt(r.random()), 2.0 * math.pi * r.random()
            q = np.array([rad * math.cos(ang), rad * math.sin(ang)])
            ops.append(Op(name, lambda d=dom, q=q, R=R: hg.ball_area(d, q, R, tol=TOL), _ball_check(R, dom is disk)))
        return interleave(ops)

    return passes


# ---------------------------------------------------------------------------
# hyperbolicity-normal-form: delta estimates


def _klein_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Closed-form Hilbert distance of the unit disk (the Klein model)."""
    num = 1.0 - np.einsum("ij,ij->i", P, Q)
    den = np.sqrt((1.0 - np.einsum("ij,ij->i", P, P)) * (1.0 - np.einsum("ij,ij->i", Q, Q)))
    return np.arccosh(np.maximum(num / den, 1.0))


def _klein_four_point(points) -> float:
    x, y, z, w = np.asarray(points, dtype=float)
    d = _klein_distances(np.array([x, y, x, x, y, z]), np.array([w, w, y, z, z, w]))
    dxw, dyw, dxy, dxz, dyz, dzw = d
    xy_w, yz_w, xz_w = 0.5 * (dxw + dyw - dxy), 0.5 * (dyw + dzw - dyz), 0.5 * (dxw + dzw - dxz)
    return max(min(xy_w, yz_w) - xz_w, 0.0)


def _delta_check(name: str, domain):
    """The disk and its projective image are both the hyperbolic plane (the
    Hilbert metric is projectively invariant), so both have thin delta at
    most ln(1+sqrt 2); on the unit disk itself the Klein distance gives the
    four-point delta in closed form."""
    hyperbolic = name in ("disk", "projective")

    def check(est):
        again = hg.reevaluate_witness(domain, est.witness)
        _require(abs(again - est.delta_hat) <= WITNESS_TOL, f"witness re-evaluates to {again!r}, not {est.delta_hat!r}")
        err = rel_err(again, est.delta_hat)
        if hyperbolic and est.witness["kind"] == "thin-triangle":
            _require(est.delta_hat <= HYPERBOLIC_THIN_BOUND + WITNESS_TOL, f"{name} thin delta {est.delta_hat!r} exceeds ln(1+sqrt 2)")
        if name == "disk" and est.witness["kind"] == "four-point":
            klein = _klein_four_point(est.witness["points"])
            _require(abs(est.delta_hat - klein) <= WITNESS_TOL, f"disk four-point delta {est.delta_hat!r} is not the Klein {klein!r}")
            err = max(err, rel_err(est.delta_hat, klein))
        return err

    return check


THIN_PS = (1.5, 2.5, 3.0, 4.0, 6.0, 8.0)
FOUR_POINT_DOMAINS = ("disk", "pball4")


def _delta_ops(domains: dict, r: np.random.Generator) -> list:
    """delta_thin(budget=4) on every domain, delta_four_point(budget=160) on
    the disk and PBall(4)."""
    ops = []
    for name, dom in domains.items():
        cfg = hg.ThinTriangleConfig(budget=THIN_BUDGET, seed=int(r.integers(2**31)))
        ops.append(Op(f"thin.{name}", lambda d=dom, c=cfg: hg.delta_thin(d, c), _delta_check(name, dom)))
    for name in FOUR_POINT_DOMAINS:
        dom = domains[name]
        cfg = hg.FourPointConfig(budget=40 * THIN_BUDGET, seed=int(r.integers(2**31)))
        ops.append(Op(f"four_point.{name}", lambda d=dom, c=cfg: hg.delta_four_point(d, c), _delta_check(name, dom)))
    return ops


# ---------------------------------------------------------------------------
# hyperbolicity-normal-form: normal forms and regularity


def _normal_check(conic: bool):
    def check(res):
        _require(0.0 < res.alpha <= 0.5 + ALPHA_TOL, f"alpha {res.alpha!r} outside (0, 1/2]")
        _require(max(res.vertex_residual, res.tangency_residual) < RESIDUAL_TOL, "normalization residual above 1e-8")
        if not conic:
            return None
        _require(abs(res.alpha - 0.5) <= ALPHA_TOL, f"conic alpha {res.alpha!r} is not 1/2")
        return rel_err(res.alpha, 0.5)

    return check


def _regularity_check(rep):
    _require(not rep.non_strictly_convex, "round boundary reported as not strictly convex")
    _require(rep.bound_margin >= -1e-9, f"Holder bound margin {rep.bound_margin!r} is negative")


def _normal_ops(conics: dict, r: np.random.Generator) -> list:
    """Ten normalize_triangle_pointed calls (twice the three conics and two
    PBall(p), p in [1.5, 8]) and two boundary_regularity_report calls (the
    ellipse and a PBall(p), p in [1.5, 4])."""
    ops = []
    for _ in range(2):
        for name, dom in conics.items():
            T = _spread_triangle(dom, r)
            ops.append(Op(f"normalize.{name}", lambda d=dom, T=T: hg.normalize_triangle_pointed(d, T), _normal_check(True)))
        for _ in range(2):
            dom = hg.PBall(float(r.uniform(1.5, 8.0)))
            T = _spread_triangle(dom, r)
            ops.append(Op("normalize.pball", lambda d=dom, T=T: hg.normalize_triangle_pointed(d, T), _normal_check(False)))
    # p stays at most 4, the range criterion 7 checks: for p >= 4.5 the
    # report finds no curvature near the axis points and calls them flat
    for name, dom in (("ellipse", conics["ellipse"]), ("pball", hg.PBall(float(r.uniform(1.5, 4.0))))):
        point = dom.boundary_points([r.random() * dom.param_period])[0]
        ops.append(Op(f"regularity.{name}", lambda d=dom, p=point: hg.boundary_regularity_report(d, p), _regularity_check))
    return ops


def hyperbolicity_normal_form(seed: int) -> Callable[[int], list]:
    """One pass: two rounds of the twelve delta estimates (about 10.5 s)
    and, spread among them, ten rounds of the normal-form calls (100
    normalizations of 3 ms and 20 regularity reports of 35 ms, about 1 s).  The median falls among the
    normalizations; the tail, with three passes to a run, inside the block
    of p-ball delta_thin calls (0.5 s each, within 10% of one another)."""
    conics = _conics()
    square = hg.regular_polygon(4)
    domains = {"disk": conics["disk"], "projective": conics["projective"], "square": square}
    domains.update((f"pball{p:g}", hg.PBall(p)) for p in THIN_PS)
    domains["smoothed_square"] = hg.SmoothedPolygon(square.vertices, SMOOTHING)

    def passes(k: int) -> list:
        r = np.random.default_rng([seed, k])
        ops = _delta_ops(domains, r) + _delta_ops(domains, r)
        for _ in range(10):
            ops += _normal_ops(conics, r)
        return interleave(ops)

    return passes


WORKLOADS = {"ideal-area": ideal_area, "ball-area": ball, "hyperbolicity-normal-form": hyperbolicity_normal_form}
# seconds one pass takes on the host the benchmark was sized on; run.py
# runs round(--seconds / this) passes
PASS_SECONDS = {"ideal-area": 33.0, "ball-area": 12.5, "hyperbolicity-normal-form": 12.5}
