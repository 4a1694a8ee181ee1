"""Ideal triangles and their Hilbert areas.

An ideal triangle has its three vertices on the boundary; its Hilbert area
integrates the measure density over the open hull.  The density blows up at
each ideal vertex, so the area is assembled from the compact medial triangle
(the triangle of the side midpoints) plus three corner ladders: nested cuts
parallel to the opposite side at geometric side fractions 2^-k peel the
corner into trapezoids whose areas form a (nearly) geometric series.
Summing the trapezoids and extrapolating the tail gives the corner area; a
ladder whose increments stop decaying is reported as diverged, which is
exactly the non-hyperbolic signature the polygon domains must show.
Refinement of a triangle's pieces stops once one ladder has read diverged in
three rounds in a row, so the value of a diverged triangle is the partial
sum at the round where its verdict settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, _require_on_boundary, as_points
from .errors import DegenerateVertices, InvalidTriangle
from .measure import QuadratureEstimate, _region_areas
from .metric import _require_count

# cuts per corner ladder, at side fractions 2^-1 ... 2^-12: 11 trapezoids,
# at least the 3 that the tail test compares.  Read at call time
LADDER_DEPTH = 12
# refinement of the medial triangle and each ladder piece (19-point cells
# checked by their embedded 7-point rule, see measure.region_area): depth
# cap, budget of density points and unit-ball directions per density point
# on the classes without a closed-form ball
PIECE_MAX_DEPTH = 9
PIECE_MAX_POINTS = 6000
PIECE_DIRS = 24
_SIDE_SAMPLES = 64
# refinement rounds in a row in which one corner ladder must read non-Cauchy
# on its pieces' running totals before the triangle stops refining: on the
# square's corner-offset triangles a ladder that converges reads non-Cauchy
# on the fan cells and after the first round, and stopping there would flip
# its verdict
_SETTLED_ROUNDS = 3
# boundary-parameter offset of the corner-hugging triples that the sup-area
# search adds on polygons
CORNER_OFFSET = 1e-6


@dataclass(frozen=True)
class IdealTriangle:
    """Triangle with vertices on the domain boundary.

    ``validity`` records whether the open hull lies in the domain and the
    closed hull meets the boundary only at the vertices; when it fails,
    ``invalid_reason`` says why (polygons with a side along an edge report
    "side in boundary").
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    validity: bool
    invalid_reason: str = None

    def vertices(self) -> np.ndarray:
        return np.stack([self.a, self.b, self.c])

    def to_jsonable(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
            "validity": self.validity,
            "invalid_reason": self.invalid_reason,
        }


def _triangle_vertices(domain: ConvexDomain, params) -> np.ndarray:
    t = np.asarray(params, dtype=float).reshape(3)
    return domain.boundary_points(t)


def make_ideal_triangle(domain: ConvexDomain, t1: float, t2: float, t3: float) -> IdealTriangle:
    """Ideal triangle from three boundary parameters.

    Raises ``DegenerateVertices`` for coincident or collinear vertices;
    boundary contact along a side only marks the triangle invalid.
    """
    return ideal_triangle_from_points(domain, _triangle_vertices(domain, (t1, t2, t3)))


def ideal_triangle_from_points(domain: ConvexDomain, points) -> IdealTriangle:
    """Ideal triangle from three boundary points.

    ``NotOnBoundary`` when a point is not on the boundary, by the rule of
    :meth:`ConvexDomain.supporting_line`.
    """
    V = as_points(points)
    if V.shape != (3, 2):
        raise ValueError("expected exactly three planar points")
    _require_on_boundary(domain, V, "triangle vertex")
    sc = domain.scale()
    for i in range(3):
        for j in range(i + 1, 3):
            if np.hypot(*(V[i] - V[j])) < 1e-9 * sc:
                raise DegenerateVertices("coincident vertices")
    cross = (V[1, 0] - V[0, 0]) * (V[2, 1] - V[0, 1]) - (V[1, 1] - V[0, 1]) * (V[2, 0] - V[0, 0])
    if abs(cross) < 1e-12 * sc * sc:
        raise DegenerateVertices("collinear vertices")

    validity = True
    reason = None
    fr = np.arange(1, _SIDE_SAMPLES) / _SIDE_SAMPLES
    for i in range(3):
        p, q = V[i], V[(i + 1) % 3]
        side = p[None, :] + fr[:, None] * (q - p)[None, :]
        if np.any(domain.gauge(side) >= -1e-12 * sc):
            validity = False
            reason = "side in boundary"
            break
    return IdealTriangle(a=V[0], b=V[1], c=V[2], validity=validity, invalid_reason=reason)


def _ladder_piece(V: np.ndarray, i, s_out, s_in) -> np.ndarray:
    """Trapezoid (4, 2) between the cuts at fractions s_out > s_in toward
    vertex i; for arrays ``i``, ``s_out`` and ``s_in``, one trapezoid per
    element of their broadcast, shape (..., 4, 2)."""
    i = np.asarray(i)
    a, b, c = V[i], V[(i + 1) % 3], V[(i + 2) % 3]
    s_out, s_in = np.asarray(s_out)[..., None], np.asarray(s_in)[..., None]
    return np.stack([a + s_out * (b - a), a + s_in * (b - a), a + s_in * (c - a), a + s_out * (c - a)], axis=-2)


@dataclass(frozen=True)
class CornerLadder:
    """Partial sums of one corner ladder with its extrapolated tail.

    Where the boundary at the vertex is locally |x|^beta, the density at
    side fraction s grows like s^(-1 - 1/beta) and a rung's area shrinks like
    s^2, so the increments decay by r = 2^-(1 - 1/beta) per rung: the ladder
    measures the boundary's exponent, and r -> 1 at a corner (beta = 1).
    """

    partial: float
    tail: float
    increments: tuple
    diverged: bool
    error: float

    @property
    def decay_ratio(self) -> float:
        """The last increment over the one before (NaN when that is 0)."""
        before = self.increments[-2]
        return self.increments[-1] / before if before else math.nan

    @property
    def boundary_exponent(self) -> float:
        """beta = 1 / (1 + log2 r) from the decay ratio r; NaN unless r > 0."""
        r = self.decay_ratio
        if not r > 0.0:
            return math.nan
        d = 1.0 + math.log2(r)
        return 1.0 / d if d else math.inf


def _non_cauchy(mu: np.ndarray) -> bool:
    """Whether the increments ``mu`` of a ladder, outermost first, fail to
    close: the last three fail to decay (5% slack), or the decay ratio is too
    close to 1 for the geometric tail to close."""
    slack = 1.05
    r_hat = mu[-1] / mu[-2] if mu[-2] > 0 else 1.0
    return bool((mu[-1] >= mu[-2] / slack and mu[-2] >= mu[-3] / slack) or r_hat >= 0.98)


def _ladder(estimates) -> CornerLadder:
    """Corner ladder from the region estimates of its trapezoids, outermost
    first; there must be at least three."""
    increments = []
    err = 0.0
    for est in estimates:
        increments.append(est.value)
        err += est.error_bound
    mu = np.asarray(increments)
    partial = float(mu.sum())
    if _non_cauchy(mu):
        return CornerLadder(partial=partial, tail=0.0, increments=tuple(increments),
                            diverged=True, error=err)
    r_hat = mu[-1] / mu[-2]
    r_prev = mu[-2] / mu[-3] if mu[-3] > 0 else 1.0
    tail = float(mu[-1] * r_hat / (1.0 - r_hat))
    tail_alt = float(mu[-1] * r_prev / (1.0 - r_prev)) if r_prev < 1.0 else 2.0 * tail
    err += abs(tail - tail_alt) + mu[-1] * r_hat ** 2
    return CornerLadder(partial=partial, tail=tail, increments=tuple(increments),
                        diverged=False, error=err)


def ideal_triangle_area_detail(domain: ConvexDomain, T: IdealTriangle, tol: float = 1e-3):
    """Medial-triangle estimate plus the three corner ladders of an ideal
    triangle.

    Corner ladder i cuts at side fractions 2^-1 ... 2^-LADDER_DEPTH toward
    vertex i, so it has ``LADDER_DEPTH - 1`` trapezoids.  The trapezoids
    of all three ladders are built in one broadcast over the fractions, and
    the medial triangle and every trapezoid are refined as one cell array,
    one density batch per round (:func:`measure._region_areas`).  Refinement
    stops once one ladder reads non-Cauchy on its pieces' running totals in
    ``_SETTLED_ROUNDS`` rounds in a row, and every piece keeps its total of
    that round: a diverged ladder's partial is the one at the round where
    its verdict settled.  Until then each piece's estimate equals its own
    ``region_area`` call with the ``PIECE_*`` settings.
    """
    if not T.validity:
        raise InvalidTriangle(T.invalid_reason or "invalid ideal triangle")
    fractions = 0.5 ** np.arange(1, LADDER_DEPTH + 1)
    rungs = LADDER_DEPTH - 1
    V = T.vertices()
    medial = 0.5 * (V + np.roll(V, -1, axis=0))
    pieces = _ladder_piece(V, np.arange(3)[:, None], fractions[:-1], fractions[1:])
    running = np.zeros(1 + 3 * rungs)
    streak = np.zeros(3, dtype=int)

    def settled(ids, total):
        running[ids] = total
        for i, mu in enumerate(running[1:].reshape(3, rungs)):
            streak[i] = streak[i] + 1 if _non_cauchy(mu) else 0
        return streak.max() >= _SETTLED_ROUNDS

    regions = np.concatenate([medial, pieces.reshape(-1, 2)])
    estimates = _region_areas(domain, regions, [3] + [4] * 3 * rungs, tol, PIECE_MAX_DEPTH, PIECE_MAX_POINTS,
                              PIECE_DIRS, stop=settled)
    ladders = tuple(_ladder(estimates[1 + i * rungs: 1 + (i + 1) * rungs]) for i in range(3))
    return estimates[0], ladders


def ideal_triangle_area(domain: ConvexDomain, T: IdealTriangle, tol: float = 1e-3) -> QuadratureEstimate:
    """Hilbert area of a valid ideal triangle.

    Medial-triangle quadrature plus corner ladders of ``LADDER_DEPTH`` cuts;
    the ladder tails are geometric extrapolations, and any non-Cauchy ladder
    marks the whole estimate as diverged with the partial sum as a lower
    bound: the partial at the refinement round where the verdict settled
    (:func:`ideal_triangle_area_detail`).  ``depth`` is the larger of the
    medial triangle's refinement depth and ``LADDER_DEPTH``.
    """
    medial, ladders = ideal_triangle_area_detail(domain, T, tol=tol)
    value = medial.value + sum(lad.partial + lad.tail for lad in ladders)
    err = medial.error_bound + sum(lad.error for lad in ladders)
    diverged = any(lad.diverged for lad in ladders)
    return QuadratureEstimate(
        value=float(value),
        error_bound=float(err),
        depth=max(medial.depth, LADDER_DEPTH),
        diverged=bool(diverged),
    )


# ---------------------------------------------------------------------------
# supremum search


@dataclass(frozen=True)
class TriangleSamplerConfig:
    """Sampling plan for the supremal-area search.

    Random triples are stratified over the boundary parameterization; on
    polygons, deliberate corner-hugging triples (exact corner parameters and
    parameters offset by ``CORNER_OFFSET``) are appended, because divergent
    witnesses sit where flat boundary arcs meet.
    """

    budget: int = 6
    seed: int = 0
    tol: float = 1e-3

    def __post_init__(self):
        _require_count("budget", self.budget)


@dataclass(frozen=True)
class SupAreaResult:
    """Largest observed ideal-triangle area with divergent samples kept apart.

    ``best_triangle``/``best_estimate`` give the largest converged sample (or
    the largest divergent partial when nothing converged); every diverged
    sample is recorded in ``divergent`` as a (triangle, estimate) pair.
    """

    best_triangle: IdealTriangle
    best_estimate: QuadratureEstimate
    divergent: tuple
    samples_used: int

    @property
    def max_value(self) -> float:
        return max([self.best_estimate.value] + [est.value for _, est in self.divergent])


def _sample_triples(domain: ConvexDomain, config: TriangleSamplerConfig) -> list:
    rng = np.random.default_rng(config.seed)
    period = domain.param_period
    # jitter kept away from the stratum edges so sampled vertices stay
    # well separated; sliver triangles cost quadrature time without ever
    # being area maximizers
    U = 0.1 + 0.8 * rng.random((config.budget, 3))
    triples = []
    for i in range(config.budget):
        base = U[i, 0]
        t = (
            base,
            base + (1.0 + U[i, 1]) / 3.0,
            base + (2.0 + U[i, 2]) / 3.0,
        )
        triples.append(tuple((x % 1.0) * period for x in t))
    corner_params = getattr(domain, "vertex_params", None)
    if corner_params is not None:
        cp = corner_params()
        n = len(cp)
        picks = [(0, n // 3, (2 * n) // 3)] if n > 3 else [(0, 1, 2)]
        for i, j, k in picks:
            triples.append((cp[i], cp[j], cp[k]))
            for off in (CORNER_OFFSET, -CORNER_OFFSET):
                triples.append((cp[i] + off, cp[j] + off, cp[k] + off))
    return triples


def sup_area_search(domain: ConvexDomain, config: TriangleSamplerConfig = TriangleSamplerConfig()) -> SupAreaResult:
    """Maximize ideal-triangle area over sampled boundary triples.

    Raises ``InvalidTriangle`` when no sampled triple is a valid ideal
    triangle: there is then no area to report.
    """
    best_tri, best_est = None, None
    divergent = []
    used = 0
    for t1, t2, t3 in _sample_triples(domain, config):
        try:
            T = make_ideal_triangle(domain, t1, t2, t3)
        except DegenerateVertices:
            continue
        if not T.validity:
            continue
        used += 1
        est = ideal_triangle_area(domain, T, tol=config.tol)
        if est.diverged:
            divergent.append((T, est))
        elif best_est is None or est.value > best_est.value:
            best_tri, best_est = T, est
    if used == 0:
        raise InvalidTriangle("no sampled triple is a valid ideal triangle")
    if best_est is None:
        best_tri, best_est = max(divergent, key=lambda pair: pair[1].value)
    return SupAreaResult(
        best_triangle=best_tri,
        best_estimate=best_est,
        divergent=tuple(divergent),
        samples_used=used,
    )
