"""Hilbert measure: unit-ball areas, density, and adaptive region quadrature.

The Hilbert measure has density h(p) = pi / Vol(B(p)) against Lebesgue
measure, where B(p) is the unit ball of the Finsler norm at p (the constant
is omega_2 = pi, the planar specialization).  Near the boundary B(p)
degenerates into a sliver whose aspect ratio blows up, so naive uniform-angle
quadrature of the polar area integral stalls; every angular integral here is
therefore taken in an adapted elliptical angle.  The substitution is exact
whenever the unit ball is an ellipse (so ellipse domains give machine
accuracy at any direction count) and costs one Jacobian factor otherwise.

Region integrals sum the density over an adaptively refined triangulation.
Refinement order is a deterministic priority queue keyed by (error, cell id),
so results are reproducible; cells that keep growing at the depth cap flag
the estimate as diverged, in which case the value is a lower bound only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, as_point, as_points
from .errors import PointNotInterior, RegionOutsideDomain

OMEGA_2 = math.pi
DENSITY_CLIP = 1e30
_TINY = 1e-300
_PROBE_COUNT = 8
_PROBE_DIRS = np.stack(
    [np.cos(np.arange(_PROBE_COUNT) * 2.0 * np.pi / _PROBE_COUNT),
     np.sin(np.arange(_PROBE_COUNT) * 2.0 * np.pi / _PROBE_COUNT)],
    axis=1,
)


@dataclass(frozen=True)
class QuadratureEstimate:
    """Adaptive quadrature result.

    When ``diverged`` is set the refinement kept growing at the depth cap and
    ``value`` is only a lower bound for the integral.
    """

    value: float
    error_bound: float
    depth: int
    diverged: bool

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "error_bound": self.error_bound,
            "depth": self.depth,
            "diverged": self.diverged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @staticmethod
    def from_jsonable(d: dict) -> "QuadratureEstimate":
        return QuadratureEstimate(
            value=float(d["value"]),
            error_bound=float(d["error_bound"]),
            depth=int(d["depth"]),
            diverged=bool(d["diverged"]),
        )


def _harmonic_halfwidth(t_plus: np.ndarray, t_minus: np.ndarray) -> np.ndarray:
    return 2.0 * t_plus * t_minus / np.maximum(t_plus + t_minus, _TINY)


def ball_frames(domain: ConvexDomain, P, warp: bool = True):
    """Adapted frame per point: tangential axis, inward axis, half-widths.

    The inward axis points away from the (approximately) nearest boundary
    point, found by probing eight directions; half-widths are the unit-ball
    radii along the two axes.  With ``warp=False`` the frame is the standard
    basis with unit half-widths, which reduces every consumer to plain
    uniform-angle quadrature (used for grid-matched comparisons).
    """
    P = as_points(P)
    m = len(P)
    if not warp:
        tau = np.tile(np.array([1.0, 0.0]), (m, 1))
        nin = np.tile(np.array([0.0, 1.0]), (m, 1))
        ones = np.ones(m)
        return tau, nin, ones, ones
    Pr = np.repeat(P, _PROBE_COUNT, axis=0)
    Ur = np.tile(_PROBE_DIRS, (m, 1))
    T = domain.ray_hits(Pr, Ur).reshape(m, _PROBE_COUNT)
    k = np.argmin(T, axis=1)
    t_near = T[np.arange(m), k]
    hits = P + t_near[:, None] * _PROBE_DIRS[k]
    N = domain.boundary_normals(hits)
    nin = -N
    tau = np.stack([nin[:, 1], -nin[:, 0]], axis=1)
    tp, tm = domain.ray_hits_both(P, tau)
    a = _harmonic_halfwidth(tp, tm)
    tp, tm = domain.ray_hits_both(P, nin)
    b = _harmonic_halfwidth(tp, tm)
    return tau, nin, a, b


def _simpson_weights(n_dirs: int) -> np.ndarray:
    w = np.empty(n_dirs)
    w[0::2] = 2.0 / 3.0
    w[1::2] = 4.0 / 3.0
    return w * (2.0 * np.pi / n_dirs)


def unit_ball_areas(
    domain: ConvexDomain,
    P,
    n_dirs: int = 96,
    warp: bool = True,
    validate: bool = True,
) -> np.ndarray:
    """Areas of the Finsler unit balls at the given interior points.

    Composite Simpson on the polar area integral (1/2) * integral of r^2
    over the angle, taken in the adapted elliptical angle.  In the adapted
    parameterization the integrand is a*b / F(p, u(psi))^2 with u the
    unnormalized warped direction, constant whenever the ball is the frame
    ellipse itself.

    The Finsler ball is centrally symmetric: u(psi + pi) = -u(psi), and the
    integrand there is the same value with the two chord hits swapped.  So
    only the first half-circle of directions is cast (each chord once, both
    hits from ``ray_hits_both``), and each node carries the Simpson weights
    of both psi and psi + pi.
    """
    P = as_points(P)
    if n_dirs < 16:
        raise ValueError("need at least 16 directions")
    if n_dirs % 2:
        n_dirs += 1
    if validate and np.any(domain.gauge(P) >= 0.0):
        raise PointNotInterior("point not interior")
    m = len(P)
    half = n_dirs // 2
    tau, nin, a, b = ball_frames(domain, P, warp=warp)
    psi = np.arange(half) * (2.0 * np.pi / n_dirs)
    cs, sn = np.cos(psi), np.sin(psi)
    # warped directions u[i, k] = a_i cos(psi_k) tau_i + b_i sin(psi_k) n_i
    U = (
        (a[:, None] * cs[None, :])[:, :, None] * tau[:, None, :]
        + (b[:, None] * sn[None, :])[:, :, None] * nin[:, None, :]
    ).reshape(m * half, 2)
    Pr = np.repeat(P, half, axis=0)
    tp, tm = domain.ray_hits_both(Pr, U)
    speed = np.hypot(U[:, 0], U[:, 1])
    F = 0.5 * speed * (1.0 / np.maximum(tp, _TINY) + 1.0 / np.maximum(tm, _TINY))
    integrand = ((a * b)[:, None] / np.maximum(F, _TINY).reshape(m, half) ** 2)
    w = _simpson_weights(n_dirs)
    return 0.5 * integrand @ (w[:half] + w[half:])


def unit_ball_area(domain: ConvexDomain, p, n_dirs: int = 96, warp: bool = True) -> float:
    return float(unit_ball_areas(domain, as_point(p)[None, :], n_dirs=n_dirs, warp=warp)[0])


def densities(
    domain: ConvexDomain,
    P,
    n_dirs: int = 96,
    warp: bool = True,
    validate: bool = True,
) -> np.ndarray:
    """Hilbert measure density pi / Vol(B(p)) per point, clipped at 1e30."""
    areas = unit_ball_areas(domain, P, n_dirs=n_dirs, warp=warp, validate=validate)
    with np.errstate(divide="ignore", over="ignore"):
        h = OMEGA_2 / np.maximum(areas, 0.0)
    return np.minimum(h, DENSITY_CLIP)


def density(domain: ConvexDomain, p, n_dirs: int = 96) -> float:
    return float(densities(domain, as_point(p)[None, :], n_dirs=n_dirs)[0])


# ---------------------------------------------------------------------------
# adaptive region quadrature


def _tri_areas(T: np.ndarray) -> np.ndarray:
    """Areas of triangles given as (n, 3, 2)."""
    u = T[:, 1] - T[:, 0]
    v = T[:, 2] - T[:, 0]
    return 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _split4(T: np.ndarray) -> np.ndarray:
    """Midpoint subdivision of each (3, 2) triangle into 4; returns (n, 4, 3, 2)."""
    A, B, C = T[:, 0], T[:, 1], T[:, 2]
    AB, BC, CA = 0.5 * (A + B), 0.5 * (B + C), 0.5 * (C + A)
    out = np.empty((len(T), 4, 3, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 0, 2] = A, AB, CA
    out[:, 1, 0], out[:, 1, 1], out[:, 1, 2] = AB, B, BC
    out[:, 2, 0], out[:, 2, 1], out[:, 2, 2] = CA, BC, C
    out[:, 3, 0], out[:, 3, 1], out[:, 3, 2] = AB, BC, CA
    return out


def _validate_region(domain: ConvexDomain, V: np.ndarray) -> None:
    sc = domain.scale()
    if np.any(domain.gauge(V) > 1e-7 * sc):
        raise RegionOutsideDomain("region vertex outside the closed domain")
    if len(V) >= 3:
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * np.roll(E, -1, axis=0)[:, 1] - E[:, 1] * np.roll(E, -1, axis=0)[:, 0]
        s = float(np.max(np.hypot(E[:, 0], E[:, 1]))) ** 2
        if np.any(cross > 1e-9 * s) and np.any(cross < -1e-9 * s):
            raise ValueError("region polygon must be convex")


def region_area(
    domain: ConvexDomain,
    region,
    tol: float = 1e-3,
    max_depth: int = 14,
    max_cells: int = 20000,
    n_dirs: int = 64,
    warp: bool = True,
    uniform_depth: int = None,
) -> QuadratureEstimate:
    """Hilbert measure of a convex polygonal region inside the domain.

    Fan-triangulates the region, then refines cells by midpoint subdivision
    until the local Richardson error (coarse cell value against the sum of
    its four children) drops below ``tol`` times the cell value.  Cells are
    processed through a deterministic priority queue keyed by descending
    error then cell id.  At the depth cap, a still-growing total (successive
    sweep totals ratio above 1 + tol) marks the estimate as diverged.

    ``uniform_depth`` bypasses adaptivity and refines every cell to a fixed
    depth; combined with ``warp=False`` this yields grids that match across
    domains, which the nested-domain comparisons require.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    V = as_points(region) if not (isinstance(region, np.ndarray) and region.size == 0) else np.empty((0, 2))
    if len(V) < 3:
        return QuadratureEstimate(0.0, 0.0, 0, False)
    _validate_region(domain, V)

    def h_at(points: np.ndarray) -> np.ndarray:
        return densities(domain, points, n_dirs=n_dirs, warp=warp, validate=False)

    centroid = V.mean(axis=0)
    n0 = len(V)
    tris = np.stack(
        [np.repeat(centroid[None, :], n0, axis=0), V, np.roll(V, -1, axis=0)], axis=1
    )
    tris = tris[_tri_areas(tris) > 1e-16 * (1.0 + domain.scale()) ** 2]
    if len(tris) == 0:
        return QuadratureEstimate(0.0, 0.0, 0, False)

    def prepare(T: np.ndarray, iself: np.ndarray = None):
        """Evaluate cells: own value (if missing) and 4 children values."""
        if iself is None:
            iself = _tri_areas(T) * h_at(T.mean(axis=1))
        kids = _split4(T)
        flat = kids.reshape(-1, 3, 2)
        kid_vals = (_tri_areas(flat) * h_at(flat.mean(axis=1))).reshape(-1, 4)
        ifine = kid_vals.sum(axis=1)
        err = np.abs(ifine - iself)
        return iself, ifine, err, kid_vals, kids

    iself, ifine, err, kid_vals, kids = prepare(tris)
    n = len(tris)
    depth = np.zeros(n, dtype=int)
    ids = np.arange(n)
    cells = {
        "tri": tris, "depth": depth, "id": ids,
        "iself": iself, "ifine": ifine, "err": err,
        "kid_vals": kid_vals, "kids": kids,
    }
    next_id = n
    total_prev = None
    total = float(ifine.sum())
    budget_left = max_cells - n
    cap = max_depth if uniform_depth is None else min(uniform_depth, max_depth)
    budget_exhausted = False

    while True:
        if uniform_depth is None:
            settled = cells["err"] <= tol * np.maximum(cells["ifine"], 0.0) + 1e-15 * max(1.0, abs(total))
        else:
            settled = np.zeros(len(cells["tri"]), dtype=bool)
        at_cap = cells["depth"] >= cap
        active = ~settled & ~at_cap
        if not np.any(active) or budget_left <= 0:
            budget_exhausted = budget_left <= 0 and bool(np.any(active))
            break
        idx = np.flatnonzero(active)
        order = np.lexsort((cells["id"][idx], -cells["err"][idx]))
        idx = idx[order]
        if 4 * len(idx) > budget_left:
            idx = idx[: budget_left // 4]
            if len(idx) == 0:
                budget_exhausted = True
                break
        budget_left -= 4 * len(idx)

        child_tris = cells["kids"][idx].reshape(-1, 3, 2)
        child_iself = cells["kid_vals"][idx].reshape(-1)
        ciself, cifine, cerr, ckid_vals, ckids = prepare(child_tris, iself=child_iself)
        child_depth = np.repeat(cells["depth"][idx] + 1, 4)
        child_ids = next_id + np.arange(len(child_tris))
        next_id += len(child_tris)

        keep = np.ones(len(cells["tri"]), dtype=bool)
        keep[idx] = False
        cells = {
            "tri": np.concatenate([cells["tri"][keep], child_tris]),
            "depth": np.concatenate([cells["depth"][keep], child_depth]),
            "id": np.concatenate([cells["id"][keep], child_ids]),
            "iself": np.concatenate([cells["iself"][keep], ciself]),
            "ifine": np.concatenate([cells["ifine"][keep], cifine]),
            "err": np.concatenate([cells["err"][keep], cerr]),
            "kid_vals": np.concatenate([cells["kid_vals"][keep], ckid_vals]),
            "kids": np.concatenate([cells["kids"][keep], ckids]),
        }
        total_prev = total
        total = float(cells["ifine"].sum())

    value = float(cells["ifine"].sum())
    error_bound = float(cells["err"].sum())
    max_depth_reached = int(cells["depth"].max())
    diverged = False
    if uniform_depth is None:
        settled = cells["err"] <= tol * np.maximum(cells["ifine"], 0.0) + 1e-15 * max(1.0, abs(value))
        unsettled_remain = bool(np.any(~settled))
        if unsettled_remain and (np.any(cells["depth"][~settled] >= cap) or budget_exhausted):
            if total_prev is not None and total > total_prev * (1.0 + tol):
                diverged = True
    return QuadratureEstimate(value=value, error_bound=error_bound, depth=max_depth_reached, diverged=diverged)


# ---------------------------------------------------------------------------
# metric balls


def chord_parameter_at_distance(t_plus, t_minus, rho):
    """Chord parameter t at Hilbert distance ``rho`` from the chord's point.

    On a chord with boundary hits t_plus ahead and t_minus behind, the
    distance profile

        d(t) = 1/2 ln( (t_minus + t)/t_minus * t_plus/(t_plus - t) )

    increases from 0 to infinity on [0, t_plus), and its exact inverse

        t(rho) = t_minus t_plus (1 - e^{-2 rho}) / (t_minus + e^{-2 rho} t_plus)

    has no cancellation and no overflow for any rho >= 0.  Arguments
    broadcast; t is capped at t_plus (1 - 1e-15), so the point stays interior
    where rounding would put it on the boundary.
    """
    e = np.exp(-2.0 * rho)
    t = t_minus * t_plus * -np.expm1(-2.0 * rho) / (t_minus + e * t_plus)
    return np.minimum(t, t_plus * (1.0 - 1e-15))


def _frame_chords(domain: ConvexDomain, q: np.ndarray, n: int):
    """Unit directions about q at n adapted-frame angles psi, their chord
    hits, and the elliptical-angle Jacobian d(theta)/d(psi)."""
    tau, nin, a, b = ball_frames(domain, q[None, :], warp=True)
    psi = np.arange(n) * (2.0 * np.pi / n)
    cs, sn = np.cos(psi), np.sin(psi)
    U = (a[0] * cs)[:, None] * tau[0][None, :] + (b[0] * sn)[:, None] * nin[0][None, :]
    U = U / np.hypot(U[:, 0], U[:, 1])[:, None]
    tp, tm = domain.ray_hits_both(np.repeat(q[None, :], n, axis=0), U)
    jac = (a[0] * b[0]) / (a[0] ** 2 * cs ** 2 + b[0] ** 2 * sn ** 2)
    return U, tp, tm, jac


def ball_boundary_polygon(domain: ConvexDomain, q, R: float, n_dirs: int = 192) -> np.ndarray:
    """Vertices of the inscribed polygon of the metric ball of radius R at q.

    Directions come from the adapted frame; along each chord the radius is
    the closed-form inverse of the distance profile
    (:func:`chord_parameter_at_distance`).
    """
    q = as_point(q)
    if not domain.contains(q):
        raise PointNotInterior("point not interior")
    if R <= 0:
        raise ValueError("radius must be positive")
    U, tp, tm, _ = _frame_chords(domain, q, n_dirs)
    t = chord_parameter_at_distance(tp, tm, R)
    return q + t[:, None] * U


def _ball_level(domain: ConvexDomain, q: np.ndarray, R: float, n_psi: int, n_r: int,
                density_dirs: int = 64) -> float:
    """One tensor-quadrature level of the ball-area integral.

    Polar coordinates about q: angular nodes from the adapted frame with
    periodic Simpson weights, radial shells at Gauss-Legendre Hilbert radii
    rho in (0, R).  Shell positions t invert the distance profile of each
    chord in closed form, and the radial Jacobian is the reciprocal slope
    dt/drho = 2 / (1/(t_minus + t) + 1/(t_plus - t)).
    """
    U, tp, tm, jac = _frame_chords(domain, q, n_psi)

    rho, w_r = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * R * (rho + 1.0)
    w_r = 0.5 * R * w_r

    TP = tp[:, None]
    TM = tm[:, None]
    T = chord_parameter_at_distance(TP, TM, rho[None, :])
    dtdrho = 2.0 / (1.0 / (TM + T) + 1.0 / np.maximum(TP - T, _TINY))
    X = (q[None, None, :] + T[:, :, None] * U[:, None, :]).reshape(-1, 2)
    areas = unit_ball_areas(domain, X, n_dirs=density_dirs, warp=True, validate=False)
    h = OMEGA_2 / np.maximum(areas, _TINY)
    integrand = (h.reshape(n_psi, n_r)) * T * dtdrho
    w_psi = _simpson_weights(n_psi) * jac
    return float(w_psi @ integrand @ w_r)


def ball_area(
    domain: ConvexDomain,
    q,
    R: float,
    tol: float = 1e-3,
    n_dirs: int = 192,
    n_radial: int = 24,
    max_depth: int = 4,
) -> QuadratureEstimate:
    """Hilbert measure of the metric ball of radius R centered at q.

    Integrates the density over polar shells about q; every shell is located
    by the closed-form inverse of the Hilbert distance along its chord.  Both
    node counts double per refinement level until successive totals agree to
    ``tol`` (relative) or the level cap is reached.
    """
    q = as_point(q)
    if not domain.contains(q):
        raise PointNotInterior("point not interior")
    if R <= 0:
        raise ValueError("radius must be positive")
    value_prev = None
    value = None
    depth = 0
    for level in range(max_depth + 1):
        value_prev = value
        value = _ball_level(domain, q, R, n_dirs * 2 ** level, n_radial * 2 ** level)
        depth = level
        if value_prev is not None and abs(value - value_prev) <= tol * abs(value):
            return QuadratureEstimate(value=value, error_bound=abs(value - value_prev),
                                      depth=depth, diverged=False)
    growing = value_prev is not None and value > value_prev * (1.0 + tol)
    return QuadratureEstimate(value=value, error_bound=abs(value - value_prev),
                              depth=depth, diverged=bool(growing))
