"""Hilbert measure: unit-ball areas, density, and adaptive region quadrature.

The Hilbert measure has density h(p) = pi / Vol(B(p)) against Lebesgue
measure, where B(p) is the unit ball of the Finsler norm at p (the constant
is omega_2 = pi, the planar specialization).  On polygons, ellipses and the
disk, :func:`densities` takes Vol(B(p)) in closed form: the ball is a
centrally symmetric polygon, or the Klein model's ellipse.  Every other class
integrates it over ray-cast directions, as :func:`unit_ball_areas` does on
all of them.  Near the boundary B(p) degenerates into a sliver whose aspect
ratio blows up, so naive uniform-angle quadrature of the polar area integral
stalls; every such angular integral is therefore taken by the trapezoid rule
in an adapted elliptical angle, where the integrand is periodic.  The
substitution is exact whenever the unit ball is an ellipse (so ellipse
domains give machine accuracy at any direction count) and costs one Jacobian
factor otherwise.  At the 32 directions per density point of a metric ball,
a PBall(4) ball's area is within 6e-5 of its value at 256 directions.

Region integrals sum the density over an adaptively refined triangulation.
Each cell is valued by Radon's 7-point rule, exact for polynomials of degree
5 (Stroud T2:5-1), so the local error falls as h^6 where the density is
smooth.  Each round refines the unsettled cells in order of descending
error, ties in creation order, so results are reproducible; cells that keep
growing at the depth cap or the point budget flag the estimate as diverged,
in which case the value is a lower bound only.
Many regions are refined as one flat array of cells, region-major, with one
density batch per round for every region still refining (the pieces of an
ideal triangle are); densities are computed row by row and each region's
sums run over its own cells, so a region's estimate is the same alone or
batched, unless the caller stops the rounds early, as an ideal triangle does
once a corner ladder's divergence has settled.
Metric balls are integrated in polar shells about their centre
(:func:`ball_area`), each level checked by error estimates from its own nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, as_point, as_points
from .errors import PointNotInterior, RegionOutsideDomain
from .metric import _require_count

OMEGA_2 = math.pi
DENSITY_CLIP = 1e30
_TINY = 1e-300
# most points per unit-ball batch: each point casts about n_dirs rays (or,
# in closed form on a k-gon, takes k^2 products), and larger batches only
# grow the arrays without computing faster
_BALL_ROWS = 1024
# unit-ball directions per density point of a metric-ball level: PBall(4) balls
# (R in [2.5, 3.2] about points within 0.3 of 0) drift by 6e-5 from 256 directions
_BALL_DENSITY_DIRS = 32
# rounding allowed per term of a metric-ball level, times its conditioning:
# disk balls, which both rules integrate to rounding, differ from the level
# with twice the nodes of each rule by at most 1.4 ulps per term so scaled
# (R in [0.2, 6], 30 balls on the disk and an ellipse)
_BALL_ROUNDING = 16.0 * np.finfo(float).eps
# eight probe directions k * pi/4: four chords, the second four directions
# the exact negations of the first
_PROBE_CHORDS = np.stack([np.cos(np.arange(4) * np.pi / 4.0), np.sin(np.arange(4) * np.pi / 4.0)], axis=1)
_PROBE_DIRS = np.concatenate([_PROBE_CHORDS, -_PROBE_CHORDS])
# Radon's 7-point rule on a triangle, exact to degree 5 (Stroud T2:5-1):
# barycentric nodes, the centroid and the three permutations of
# (a, a, 1 - 2a) for each a = (6 -+ sqrt 15)/21, with weights summing to 1
_CELL_NODES = np.array([[1.0 / 3.0] * 3] + [
    np.roll([a, a, 1.0 - 2.0 * a], k) for a in ((6.0 - math.sqrt(15.0)) / 21.0, (6.0 + math.sqrt(15.0)) / 21.0)
    for k in range(3)])
_CELL_WEIGHTS = np.array([9.0 / 40.0] + [(155.0 - math.sqrt(15.0)) / 1200.0] * 3
                         + [(155.0 + math.sqrt(15.0)) / 1200.0] * 3)
# density points per cell, and per refined cell: its four children each
# value their own four children
_CELL_POINTS = len(_CELL_NODES)
_REFINE_POINTS = 16 * _CELL_POINTS


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


def ball_frames(domain: ConvexDomain, P):
    """Adapted frame per point: tangential axis, inward axis, half-widths.

    The inward axis points away from the (approximately) nearest boundary
    point, found by probing eight directions along four chords; half-widths
    are the unit-ball radii along the two axes.
    Every point must be strictly interior, else ``PointNotInterior`` is
    raised: a point on or outside the boundary has no chords to frame it.
    """
    P = as_points(P)
    if not np.all(domain.gauge(P) < 0.0):
        raise PointNotInterior("point not interior")
    return _ball_frames(domain, P)


def _ball_frames(domain: ConvexDomain, P: np.ndarray):
    """:func:`ball_frames` of points already checked to be interior."""
    m = len(P)
    c = len(_PROBE_CHORDS)
    tp, tm = domain.ray_hits_both(np.repeat(P, c, axis=0), np.tile(_PROBE_CHORDS, (m, 1)))
    # columns in the order of _PROBE_DIRS
    T = np.concatenate([tp.reshape(m, c), tm.reshape(m, c)], axis=1)
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


def unit_ball_areas(
    domain: ConvexDomain,
    P,
    n_dirs: int = 96,
    validate: bool = True,
) -> np.ndarray:
    """Areas of the Finsler unit balls at the given interior points, by ray
    quadrature on every domain class.

    The trapezoid rule on the polar area integral (1/2) * integral of r^2
    over the angle, taken in the adapted elliptical angle psi.  In the adapted
    parameterization the integrand is a*b / F(p, u(psi))^2 with u the
    unnormalized frame direction, constant whenever the ball is the frame
    ellipse itself.  It is periodic in psi, and smooth on smooth domains, where
    the trapezoid rule converges geometrically (Trefethen and Weideman, SIAM
    Rev. 56, 2014): at 24 directions its median error on PBall(4), a smoothed
    square and a power cap is 2.6e-5 to 7.2e-4, Simpson's 4.7e-4 to 1.3e-3.
    :func:`densities` takes the closed form instead where a class has one;
    this quadrature stays the reference it is tested against.

    The Finsler ball is centrally symmetric: u(psi + pi) = -u(psi), and the
    integrand there is the same value with the two chord hits swapped.  So
    only the first half-circle of directions is cast (each chord once, both
    hits from ``ray_hits_both``), and each node carries the trapezoid weights
    of both psi and psi + pi.  ``n_dirs`` must be an integer >= 16; an odd
    count is rounded up to the next even one.

    With ``validate`` a point not strictly interior raises
    ``PointNotInterior``; without, its area is NaN.  Points are processed in
    chunks of at most ``_BALL_ROWS``, which bounds the (points x directions)
    ray arrays; every point's area is computed on its own row, so chunking
    does not change it.
    """
    P, n_dirs = _ball_points(domain, P, n_dirs, validate)
    return _by_chunks(lambda Q: _unit_ball_areas(domain, Q, n_dirs), P)


def _ball_points(domain: ConvexDomain, P, n_dirs: int, validate: bool):
    """The checked points and the even direction count of a unit-ball call."""
    P = as_points(P)
    _require_dirs(n_dirs)
    if validate and not np.all(domain.gauge(P) < 0.0):
        raise PointNotInterior("point not interior")
    return P, n_dirs + n_dirs % 2


def _require_dirs(n_dirs: int) -> None:
    _require_count("n_dirs", n_dirs)
    if n_dirs < 16:
        raise ValueError("need at least 16 directions")


def _by_chunks(f, P: np.ndarray) -> np.ndarray:
    """``f`` of each run of at most ``_BALL_ROWS`` rows of ``P``, concatenated."""
    return np.concatenate([f(P[i:i + _BALL_ROWS]) for i in range(0, max(len(P), 1), _BALL_ROWS)])


def _unit_ball_areas(domain: ConvexDomain, P: np.ndarray, n_dirs: int) -> np.ndarray:
    inside = domain.gauge(P) < 0.0
    if not inside.all():
        # a start not strictly interior has no chords to frame its ball
        areas = np.full(len(P), np.nan)
        areas[inside] = _unit_ball_areas(domain, P[inside], n_dirs)
        return areas
    m = len(P)
    half = n_dirs // 2
    tau, nin, a, b = _ball_frames(domain, P)
    psi = np.arange(half) * (2.0 * np.pi / n_dirs)
    cs, sn = np.cos(psi), np.sin(psi)
    # adapted directions u[i, k] = a_i cos(psi_k) tau_i + b_i sin(psi_k) n_i
    U = (
        (a[:, None] * cs[None, :])[:, :, None] * tau[:, None, :]
        + (b[:, None] * sn[None, :])[:, :, None] * nin[:, None, :]
    ).reshape(m * half, 2)
    Pr = np.repeat(P, half, axis=0)
    tp, tm = domain.ray_hits_both(Pr, U)
    speed = np.hypot(U[:, 0], U[:, 1])
    F = 0.5 * speed * (1.0 / np.maximum(tp, _TINY) + 1.0 / np.maximum(tm, _TINY))
    with np.errstate(over="ignore"):
        # within rounding of the boundary, directions whose F**2 overflows add 0
        integrand = ((a * b)[:, None] / np.maximum(F, _TINY).reshape(m, half) ** 2)
    # half the trapezoid weight 2 pi / n_dirs of psi and of psi + pi; a per-row sum, the same in any batch
    return (2.0 * np.pi / n_dirs) * integrand.sum(axis=1)


def unit_ball_area(domain: ConvexDomain, p, n_dirs: int = 96) -> float:
    return float(unit_ball_areas(domain, as_point(p)[None, :], n_dirs=n_dirs)[0])


def densities(
    domain: ConvexDomain,
    P,
    n_dirs: int = 96,
    validate: bool = True,
) -> np.ndarray:
    """Hilbert measure density pi / Vol(B(p)) per point, clipped at 1e30.

    The unit-ball areas are exact on polygons, ellipses and the disk
    ``PBall(2)`` (``ConvexDomain._unit_ball_areas_exact``) and the
    :func:`unit_ball_areas` quadrature at ``n_dirs`` directions on every
    other class; ``n_dirs`` is checked on both paths.  With ``validate`` a
    point not strictly interior raises ``PointNotInterior``; without, its
    density is NaN.  Every row is computed on its own, so a point's density
    is the same alone or in any batch.
    """
    P, n_dirs = _ball_points(domain, P, n_dirs, validate)

    def areas(Q):
        exact = domain._unit_ball_areas_exact(Q)
        return _unit_ball_areas(domain, Q, n_dirs) if exact is None else exact

    h = _by_chunks(areas, P)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(OMEGA_2, np.maximum(h, 0.0, out=h), out=h)
    return np.minimum(h, DENSITY_CLIP, out=h)


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


def _validate_region(domain: ConvexDomain, V: np.ndarray, counts=None) -> tuple:
    """Check the regions that are the runs of ``counts`` rows of ``V`` (one
    if None); the first bad one raises ``RegionOutsideDomain`` for a vertex
    outside the closed domain, else ``ValueError`` if it turns both ways.
    Returns each vertex's region and the index of its successor."""
    counts = np.array([len(V)] if counts is None else counts, dtype=int)
    vreg = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)[counts > 0]
    nxt = np.arange(1, len(V) + 1)
    nxt[ends - 1] = ends - counts[counts > 0]
    outside = np.bincount(vreg, domain.gauge(V) > 1e-7 * domain.scale(), len(counts)) > 0
    E = V[nxt] - V
    cross = E[:, 0] * E[nxt, 1] - E[:, 1] * E[nxt, 0]
    s = np.zeros(len(counts))
    np.maximum.at(s, vreg, np.hypot(E[:, 0], E[:, 1]))
    bound = 1e-9 * s[vreg] ** 2
    # one or two vertices have cross products of exactly 0
    left, right = (np.bincount(vreg, side, len(counts)) > 0 for side in (cross > bound, cross < -bound))
    bad = np.flatnonzero(outside | (left & right))
    if len(bad) and outside[bad[0]]:
        raise RegionOutsideDomain("region vertex outside the closed domain")
    if len(bad):
        raise ValueError("region polygon must be convex")
    return vreg, nxt


def _fan_cells(domain: ConvexDomain, V: np.ndarray, counts) -> tuple:
    """Fan triangulation of each checked convex region about its vertex
    centroid, without degenerate triangles: the cells (n, 3, 2) and the
    region of each, region-major.  A region of at most two vertices has none.
    """
    counts = np.asarray(counts, dtype=int)
    vreg, nxt = _validate_region(domain, V, counts)
    first = np.cumsum(counts) - counts
    centroid = np.empty((len(counts), 2))
    # a set, not np.unique, which imports numpy.ma; a mean over a gathered
    # axis rounds as each region's own V.mean(axis=0) does, np.add.reduceat not
    for k in set(counts[counts > 0].tolist()):
        of_k = np.flatnonzero(counts == k)
        centroid[of_k] = V[first[of_k, None] + np.arange(k)].mean(axis=1)
    tri = np.stack([centroid[vreg], V, V[nxt]], axis=1)
    keep = _tri_areas(tri) > 1e-16 * (1.0 + domain.scale()) ** 2
    return tri[keep], vreg[keep]


def _cell_nodes(tri: np.ndarray) -> np.ndarray:
    """The rule nodes of each (3, 2) cell, shape (7 n, 2), summed as
    ``np.einsum("kv,nvd->nkd", _CELL_NODES, tri)`` does, at a fifth of its cost."""
    T = np.ascontiguousarray(tri.transpose(1, 0, 2)).reshape(3, -1)
    X = _CELL_NODES[:, 0, None] * T[0] + _CELL_NODES[:, 1, None] * T[1] + _CELL_NODES[:, 2, None] * T[2]
    return X.reshape(_CELL_POINTS, -1, 2).transpose(1, 0, 2).reshape(-1, 2)


def _cell_values(tri: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The 7-point rule value of each (3, 2) cell from the densities ``h`` at
    its :func:`_cell_nodes`, shape (n,)."""
    # a per-row sum, not a matrix-vector product: BLAS rounds a row by its
    # place in the batch
    return _tri_areas(tri) * np.einsum("ij,j->i", h.reshape(-1, _CELL_POINTS), _CELL_WEIGHTS)


def region_area(
    domain: ConvexDomain,
    region,
    tol: float = 1e-3,
    max_depth: int = 14,
    max_points: int = 80000,
    n_dirs: int = 64,
) -> QuadratureEstimate:
    """Hilbert measure of a convex polygonal region inside the domain.

    Fan-triangulates the region, then refines cells by midpoint subdivision
    until the local Richardson error (coarse cell value against the sum of
    its four children) drops below ``tol`` times the cell value.  Every cell
    is valued by Radon's 7-point rule, area times a weighted sum of the
    density at seven nodes, exact for polynomials of degree 5.  Each round
    refines the unsettled cells below ``max_depth`` in order of descending
    error, ties in creation order, as far as ``max_points`` allows: the
    budget counts every density point evaluated, the fan's own included, and
    refining a cell costs 16 cells of 7 points.  If cells remain unsettled
    when refinement stops and the last round still grew the total by more
    than a factor 1 + tol, the estimate is marked diverged.
    An empty region has measure 0.  ``n_dirs`` must be an integer >= 16, and
    ``max_depth`` and ``max_points`` integers >= 1, all checked on entry.

    A region's estimate does not depend on which other regions share its
    rounds (:func:`_region_areas`).
    """
    V = np.empty((0, 2)) if np.size(region) == 0 else as_points(region)
    return _region_areas(domain, V, [len(V)], tol, max_depth, max_points, n_dirs)[0]


def _region_areas(domain: ConvexDomain, V: np.ndarray, counts, tol: float, max_depth: int, max_points: int,
                  n_dirs: int, stop=None) -> list:
    """:func:`region_area` of each region given as ``counts[i]`` consecutive
    vertex rows of ``V``, all refined in one flat cell array.

    Cells are kept region-major, each region's in creation order: refined
    cells are dropped and their children appended.  The fan cells and their
    children take one :func:`densities` call, and each round one more for
    all regions still refining.  A round picks each region's cells by one
    lexsort over (region, -error, position), cut to the region's own budget;
    a region that picks none is finished and leaves the array.  A region's
    total and error are sums over its own slice, so with densities computed
    row by row its estimate equals the one it gets alone.

    ``stop``, if given, is called as ``stop(ids, total)`` after each round
    that still refines, with the regions in the array and their totals.
    When it returns true, every region still refining is recorded as it
    stands, diverged if that round grew it by more than a factor 1 + tol,
    and no further round runs; until then the rounds are those without it.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _require_dirs(n_dirs)
    _require_count("max_depth", max_depth)
    _require_count("max_points", max_points)
    tri, reg = _fan_cells(domain, V, counts)
    results = [QuadratureEstimate(0.0, 0.0, 0, False)] * len(counts)
    if len(tri) == 0:
        return results
    both = np.concatenate([tri, _split4(tri).reshape(-1, 3, 2)])
    values = _cell_values(both, densities(domain, _cell_nodes(both), n_dirs=n_dirs, validate=False))
    own, kids = values[:len(tri)], values[len(tri):].reshape(-1, 4)
    depth = np.zeros(len(tri), dtype=int)
    budget_left = max_points - 5 * _CELL_POINTS * np.bincount(reg, minlength=len(counts))
    total_prev = np.full(len(counts), math.inf)
    while True:
        starts = np.flatnonzero(np.diff(reg, prepend=-1))
        sizes = np.diff(starts, append=len(reg))
        ids = reg[starts]
        fine = kids.sum(axis=1)
        err = np.abs(fine - own)
        total = np.array([fine[a:a + n].sum() for a, n in zip(starts.tolist(), sizes.tolist())])
        settled = err <= tol * np.maximum(fine, 0.0) + np.repeat(1e-15 * np.fmax(1.0, np.abs(total)), sizes)
        idx = np.flatnonzero(~settled & (depth < max_depth))
        idx = idx[np.lexsort((idx, -err[idx], reg[idx]))]
        rank = np.arange(len(idx)) - np.searchsorted(reg[idx], reg[idx])
        idx = idx[rank < budget_left[reg[idx]] // _REFINE_POINTS]
        picked = np.bincount(reg[idx], minlength=len(counts))[ids]
        # refinement stops with unsettled cells only at the depth cap or the point budget
        diverged = (np.bincount(reg, ~settled, len(counts))[ids] > 0) & (total > total_prev[ids] * (1.0 + tol))
        deepest = np.maximum.reduceat(depth, starts)
        stopped = len(idx) > 0 and stop is not None and bool(stop(ids, total))
        for j in np.flatnonzero((picked == 0) | stopped):
            results[ids[j]] = QuadratureEstimate(float(total[j]), float(err[starts[j]:starts[j] + sizes[j]].sum()),
                                                 int(deepest[j]), bool(diverged[j]))
        if len(idx) == 0 or stopped:
            break
        budget_left[ids] -= _REFINE_POINTS * picked
        total_prev[ids] = total
        keep = np.repeat(picked > 0, sizes)
        keep[idx] = False
        children = _split4(tri[idx]).reshape(-1, 3, 2)
        grand = _split4(children).reshape(-1, 3, 2)
        child_kids = _cell_values(grand, densities(domain, _cell_nodes(grand), n_dirs=n_dirs, validate=False))
        new = (reg[idx].repeat(4), children, depth[idx].repeat(4) + 1, kids[idx].ravel(), child_kids.reshape(-1, 4))
        cells = [np.concatenate([old[keep], added]) for old, added in zip((reg, tri, depth, own, kids), new)]
        order = np.argsort(cells[0], kind="stable")
        reg, tri, depth, own, kids = (x[order] for x in cells)
    return results


# ---------------------------------------------------------------------------
# metric balls


def chord_parameter_at_distance(t_plus, t_minus, rho):
    """The chord parameter t at Hilbert distance ``rho`` from the chord's point.

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
    tau, nin, a, b = _ball_frames(domain, q[None, :])
    psi = np.arange(n) * (2.0 * np.pi / n)
    cs, sn = np.cos(psi), np.sin(psi)
    U = (a[0] * cs)[:, None] * tau[0][None, :] + (b[0] * sn)[:, None] * nin[0][None, :]
    U = U / np.hypot(U[:, 0], U[:, 1])[:, None]
    tp, tm = domain.ray_hits_both(np.repeat(q[None, :], n, axis=0), U)
    jac = (a[0] * b[0]) / (a[0] ** 2 * cs ** 2 + b[0] ** 2 * sn ** 2)
    return U, tp, tm, jac


def _check_radius(R: float) -> None:
    if not 0.0 < R < math.inf:
        raise ValueError("radius must be positive and finite")


def ball_boundary_polygon(domain: ConvexDomain, q, R: float, n_dirs: int = 192) -> np.ndarray:
    """Vertices of the inscribed polygon of the metric ball of radius R at q.

    Directions come from the adapted frame; along each chord the radius is
    the closed-form inverse of the distance profile
    (:func:`chord_parameter_at_distance`).  ``n_dirs``, the number of
    vertices, must be an integer >= 1.
    """
    _require_count("n_dirs", n_dirs)
    q = as_point(q)
    if not domain.contains(q):
        raise PointNotInterior("point not interior")
    _check_radius(R)
    U, tp, tm, _ = _frame_chords(domain, q, n_dirs)
    t = chord_parameter_at_distance(tp, tm, R)
    return q + t[:, None] * U


def _ball_level(domain: ConvexDomain, q: np.ndarray, R: float, n_psi: int, n_r: int):
    """One tensor-quadrature level of the ball-area integral: its value and
    an error estimate, both from this level's nodes.

    Polar coordinates about q: ``n_psi`` angular nodes psi from the adapted
    frame with uniform trapezoid weights 2 pi / n_psi times the
    elliptical-angle Jacobian, and radial shells at the ``n_r``
    Gauss-Legendre Hilbert radii rho in (0, R).  Shell positions t invert
    the distance profile of each chord in closed form, and the radial
    Jacobian is the reciprocal slope dt/drho = 2 / (1/(t_minus + t) +
    1/(t_plus - t)).

    The estimate sums two differences to coarser rules on the same chords
    and a rounding allowance.  Angular: the integrand is smooth and periodic
    in psi, where the trapezoid rule converges geometrically; its even nodes
    are the trapezoid rule of n_psi/2 nodes, so |T_n - T_{n/2}| casts no
    extra ray.  Radial: |G_{n_r} - G_{n_r/2}| against the Gauss-Legendre
    rule of n_r/2 nodes, whose shells join the same :func:`densities` call.
    Each difference is about the error of the coarser rule, which bounds
    that of the finer one while the rules converge.  Once both have
    converged, rounding is what is left: ``_BALL_ROUNDING`` of each node's
    term, times the node's conditioning t_plus / (t_plus - t), since a shell
    near the boundary carries the rounding of t in its gap.
    """
    U, tp, tm, jac = _frame_chords(domain, q, n_psi)

    x, w_r = np.polynomial.legendre.leggauss(n_r)
    x_half, w_half = np.polynomial.legendre.leggauss(n_r // 2)
    rho = 0.5 * R * (np.concatenate([x, x_half]) + 1.0)

    TP = tp[:, None]
    TM = tm[:, None]
    T = chord_parameter_at_distance(TP, TM, rho[None, :])
    dtdrho = 2.0 / (1.0 / (TM + T) + 1.0 / np.maximum(TP - T, _TINY))
    X = (q[None, None, :] + T[:, :, None] * U[:, None, :]).reshape(-1, 2)
    h = densities(domain, X, n_dirs=_BALL_DENSITY_DIRS, validate=False)
    integrand = h.reshape(n_psi, len(rho)) * T * dtdrho
    # per angle, the radial integrals of the two Gauss-Legendre rules
    radial = integrand[:, :n_r] @ (0.5 * R * w_r)
    radial_half = integrand[:, n_r:] @ (0.5 * R * w_half)
    w_psi = (2.0 * np.pi / n_psi) * jac
    value = float(w_psi @ radial)
    angular_error = abs(value - 2.0 * float(w_psi[::2] @ radial[::2]))
    radial_error = abs(value - float(w_psi @ radial_half))
    conditioned = (integrand[:, :n_r] * (TP / (TP - T[:, :n_r]))) @ (0.5 * R * w_r)
    rounding = _BALL_ROUNDING * float(w_psi @ conditioned)
    return value, angular_error + radial_error + rounding


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

    Integrates the density over polar shells about q (:func:`_ball_level`):
    ``n_dirs`` trapezoid nodes in the adapted-frame angle psi, ``n_radial``
    Gauss-Legendre shells in the Hilbert radius, each shell located by the
    closed-form inverse of the Hilbert distance along its chord.  Level k
    doubles both counts k times.  The first level, from 0 up to
    ``max_depth``, whose embedded estimate (angular, radial and rounding) is
    at most ``tol`` times its value is returned with that estimate as
    ``error_bound`` and the level as ``depth``, so depth 0 means the first
    level was accepted.  From level 1 on, refinement also stops at the first
    level whose estimate is not below the level before: the rules have then
    run into an error they do not see, such as the density's own angular
    error, which the estimate leaves out.  That level is returned, or the
    level at the cap, with ``error_bound`` above ``tol * |value|`` saying
    that ``tol`` was not reached, and marked diverged when its value still
    grew by more than a factor 1 + tol over the level before.

    ``n_dirs`` and ``n_radial`` must be even integers >= 2 (the coarser
    rules halve them) and ``max_depth`` an integer >= 1.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    for name, n in (("n_dirs", n_dirs), ("n_radial", n_radial)):
        _require_count(name, n)
        if n % 2:
            raise ValueError(f"{name} must be even, not {n!r}")
    _require_count("max_depth", max_depth)
    q = as_point(q)
    if not domain.contains(q):
        raise PointNotInterior("point not interior")
    _check_radius(R)
    value = error = math.nan
    for level in range(max_depth + 1):
        value_prev, error_prev = value, error
        value, error = _ball_level(domain, q, R, n_dirs * 2 ** level, n_radial * 2 ** level)
        if error <= tol * abs(value):
            return QuadratureEstimate(value=value, error_bound=error, depth=level, diverged=False)
        if level >= 1 and error >= error_prev:
            break
    return QuadratureEstimate(value=value, error_bound=error, depth=level,
                              diverged=bool(value > value_prev * (1.0 + tol)))
