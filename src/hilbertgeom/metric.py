"""Hilbert distance, Finsler norm, and Gromov-hyperbolicity estimators.

The distance between interior points p, q is half the log of the cross-ratio
of (a, p, q, b), where a and b are the boundary hits of the line through p
and q (a on the p side).  With L = |q - p| and t-, t+ the distances from p
to the boundary along -(q-p) and +(q-p):

    d(p, q) = 1/2 * ln( (L + t-)/t- * t+/(t+ - L) )

Geodesics are taken as straight segments.  That is the honest choice on
strictly convex domains, where segments are the only geodesics; on polygons
segments are still geodesics, just not the only ones, and the estimators
below are documented as evaluating the segment representative.

Two hyperbolicity estimators are provided side by side: the four-point
Gromov-product defect and the thin-triangle defect.  Both are driven by a
seeded stream of boundary-biased samples, so enlarging the budget only
appends samples and the estimates are monotone in the budget.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, as_point, as_points
from .errors import PointNotInterior, SegmentNotInDomain

COINCIDENCE_TOL = 1e-14
_TINY = 1e-300
_GOLDEN_ITERS = 58  # final bracket 0.618^58 = 7.6e-13 of the segment
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_APPROACH = 1e-4  # smallest gap fraction of a boundary-biased sample
_SIDE_POINTS = 8  # probe points per side of a thin triangle


def _require_interior(domain: ConvexDomain, P: np.ndarray, label: str) -> None:
    # not "any >= 0": a NaN gauge must fail too
    if not np.all(domain.gauge(P) < 0.0):
        raise PointNotInterior(f"{label} not interior")


def hilbert_distances(domain: ConvexDomain, P, Q, validate: bool = True) -> np.ndarray:
    """Row-wise Hilbert distances between interior points.

    With ``validate=False`` the rows are trusted to be interior; near-boundary
    rows then degrade to very large values instead of raising, which is what
    the segment-distance search relies on at boundary ends, and a row whose
    first point is not interior gives NaN (the ray casts' exterior-start
    contract).
    """
    P = as_points(P)
    Q = as_points(Q)
    if validate:
        _require_interior(domain, P, "first point")
        _require_interior(domain, Q, "second point")
    V = Q - P
    L = np.hypot(V[:, 0], V[:, 1])
    out = np.zeros(len(P))
    move = np.flatnonzero(L >= COINCIDENCE_TOL)
    if not len(move):
        return out
    Pm, Vm, Lm = P.take(move, axis=0), V.take(move, axis=0), L.take(move)
    t_plus, t_minus = domain.ray_hits_both(Pm, Vm)
    gap = np.maximum(t_plus - Lm, _TINY)
    t_minus = np.maximum(t_minus, _TINY)
    with np.errstate(over="ignore"):
        out[move] = 0.5 * np.log((Lm + t_minus) / t_minus * (t_plus / gap))
    return out


def hilbert_distance(domain: ConvexDomain, p, q) -> float:
    """Hilbert distance; returns 0 for coincident points (within 1e-14)."""
    return float(hilbert_distances(domain, as_point(p)[None, :], as_point(q)[None, :])[0])


def finsler_norms(domain: ConvexDomain, P, V) -> np.ndarray:
    """Row-wise Finsler norms (1/2)|v| (1/t- + 1/t+); zero rows give 0.

    A base point not strictly interior raises ``PointNotInterior``.
    """
    P = as_points(P)
    V = as_points(V)
    _require_interior(domain, P, "base point")
    speed = np.hypot(V[:, 0], V[:, 1])
    out = np.zeros(len(P))
    move = np.flatnonzero(speed > 0.0)
    if not len(move):
        return out
    t_plus, t_minus = domain.ray_hits_both(P.take(move, axis=0), V.take(move, axis=0))
    t_plus = np.maximum(t_plus, _TINY)
    t_minus = np.maximum(t_minus, _TINY)
    out[move] = 0.5 * speed.take(move) * (1.0 / t_minus + 1.0 / t_plus)
    return out


def finsler_norm(domain: ConvexDomain, p, v) -> float:
    """Finsler norm of tangent vector ``v`` at interior point ``p``."""
    return float(finsler_norms(domain, as_point(p)[None, :], as_point(v)[None, :])[0])


# ---------------------------------------------------------------------------
# point-to-segment distance


def point_to_segment_distances(
    domain: ConvexDomain,
    P,
    A,
    B,
    validate: bool = True,
) -> np.ndarray:
    """Row-wise min over segment [A_i, B_i] of the distance from P_i.

    Hilbert balls are convex, so the distance from P_i along a segment is
    quasi-convex: it has one basin and no plateau above its minimum (the flat
    valleys of polygons are plateaus at the minimum).  Golden section over the
    whole segment therefore keeps a minimizer in its bracket; every row runs
    the same ``_GOLDEN_ITERS`` rounds from [0, 1], since all brackets shrink by
    the same factor.  Golden section only approaches the segment's ends, so
    the two ends are evaluated exactly and the result is the least of the
    final pair and the ends.  An end on the boundary (an ideal-triangle side)
    just gives a large finite value.
    """
    P = as_points(P)
    A = as_points(A)
    B = as_points(B)
    n = len(P)
    if validate:
        _require_interior(domain, P, "query point")
        sc = domain.scale()
        ends = np.concatenate([A, B], axis=0)
        if np.any(domain.gauge(ends) > 1e-7 * sc):
            raise SegmentNotInDomain("segment endpoint outside the closed domain")
        if not np.all(domain.gauge(0.5 * (A + B)) < 0.0):
            raise SegmentNotInDomain("segment midpoint not interior")

    def _eval(t: np.ndarray) -> np.ndarray:
        X = A + t[:, None] * (B - A)
        return hilbert_distances(domain, P, X, validate=False)

    lo, hi = np.zeros(n), np.ones(n)
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f1, f2 = _eval(x1), _eval(x2)
    for _ in range(_GOLDEN_ITERS):
        # keep [lo, x2] or [x1, hi]; the kept inner point is reused and the
        # other one is evaluated afresh
        left = f1 < f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x1, x2 = np.where(left, hi - _INV_PHI * (hi - lo), x2), np.where(left, x1, lo + _INV_PHI * (hi - lo))
        fresh = _eval(np.where(left, x1, x2))
        f1, f2 = np.where(left, fresh, f2), np.where(left, f1, fresh)
    at_ends = hilbert_distances(domain, np.concatenate([P, P]), np.concatenate([A, B]), validate=False)
    return np.minimum(np.minimum(f1, f2), at_ends.reshape(2, n).min(axis=0))


def point_to_segment_distance(domain: ConvexDomain, p, a, b) -> float:
    """Distance from interior point ``p`` to the straight segment [a, b].

    The segment must lie in the closed domain with its relative interior
    inside the open domain (ideal-triangle sides qualify).
    """
    return float(
        point_to_segment_distances(
            domain,
            as_point(p)[None, :],
            as_point(a)[None, :],
            as_point(b)[None, :],
        )[0]
    )


# ---------------------------------------------------------------------------
# samplers


def boundary_biased_points(
    domain: ConvexDomain,
    shape,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random interior points biased toward the boundary.

    Each point picks a boundary parameter uniform over the period and a gap
    fraction that is log-uniform in [``_APPROACH``, 1]; it then sits at fraction
    (1 - gap) of the way from the domain anchor to the boundary.  Samples
    are drawn from the stream in one block, so for a fixed seed the first k
    points are the same for every budget >= k.
    """
    shape = tuple(np.atleast_1d(shape).astype(int))
    U = rng.random(shape + (2,))
    flat = U.reshape(-1, 2)
    params = flat[:, 0] * domain.param_period
    gap = _APPROACH ** flat[:, 1]
    anchor = domain.interior_point()
    # the domain is convex and the anchor interior, so the ray from the
    # anchor through a boundary point leaves the domain at that point
    pts = anchor + (1.0 - gap)[:, None] * (domain.boundary_points(params) - anchor)
    return pts.reshape(shape + (2,))


# ---------------------------------------------------------------------------
# estimators


def _require_count(name: str, value) -> None:
    # bool is an int subclass, and a float count would be truncated silently
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


@dataclass(frozen=True)
class FourPointConfig:
    """Sampling plan for the four-point estimator."""

    budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        _require_count("budget", self.budget)


@dataclass(frozen=True)
class ThinTriangleConfig:
    """Sampling plan for the thin-triangle estimator."""

    budget: int = 24
    seed: int = 0

    def __post_init__(self):
        _require_count("budget", self.budget)


@dataclass(frozen=True)
class DeltaEstimate:
    """Hyperbolicity estimate with its extremal witness.

    ``witness`` re-evaluates to ``delta_hat`` (within 1e-9) through
    :func:`reevaluate_witness`; when quadrature-style divergence makes no
    sense here, larger budgets only ever raise the estimate.
    """

    delta_hat: float
    witness: dict
    samples_used: int

    def to_jsonable(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "witness": self.witness,
            "samples_used": self.samples_used,
        }


def _four_point_defects(domain: ConvexDomain, quads: np.ndarray) -> np.ndarray:
    """Clamped Gromov-product defect for each (4, 2) quadruple (x, y, z, w)."""
    x, y, z, w = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    P = np.concatenate([x, y, x, x, y, z])
    Q = np.concatenate([w, w, y, z, z, w])
    d = hilbert_distances(domain, P, Q, validate=False).reshape(6, -1)
    dxw, dyw, dxy, dxz, dyz, dzw = d
    xy_w = 0.5 * (dxw + dyw - dxy)
    yz_w = 0.5 * (dyw + dzw - dyz)
    xz_w = 0.5 * (dxw + dzw - dxz)
    return np.maximum(np.minimum(xy_w, yz_w) - xz_w, 0.0)


def delta_four_point(domain: ConvexDomain, config: FourPointConfig = FourPointConfig()) -> DeltaEstimate:
    """Four-point hyperbolicity estimate.

    Maximum over sampled labeled quadruples (x, y, z, w) of

        min((x|y)_w, (y|z)_w) - (x|z)_w,  clamped at 0.

    Degenerate quadruples contribute 0 and the estimate is monotone in the
    budget for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    quads = boundary_biased_points(domain, (config.budget, 4), rng)
    defects = _four_point_defects(domain, quads)
    k = int(np.argmax(defects))
    witness = {"kind": "four-point", "points": quads[k].tolist()}
    return DeltaEstimate(delta_hat=float(defects[k]), witness=witness, samples_used=config.budget)


def _thinness_many(domain: ConvexDomain, tris: np.ndarray) -> tuple[np.ndarray, list]:
    """Thinness and witness record of each (3, 2) vertex triple in ``tris``.

    The thinness of the segment triangle abc is the largest, over
    ``_SIDE_POINTS`` probe points p on each side, of the distance from p to
    the union of the two other sides.  Every non-collinear triangle shares
    one ``point_to_segment_distances`` call; collinear ones get value 0 (the
    sides overlap) and a degenerate witness.
    """
    m = len(tris)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    sc = domain.scale()
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    live = np.flatnonzero(np.abs(cross) > 1e-13 * sc * sc)
    V = tris[live]
    k = len(V)
    fr = (np.arange(_SIDE_POINTS) + 0.5) / _SIDE_POINTS
    # probe side i connects V[i+1] and V[i+2]; the opposite sides are
    # (V[i], V[i+1]) and (V[i], V[i+2])
    i0 = np.arange(3)
    i1, i2 = (i0 + 1) % 3, (i0 + 2) % 3
    probes = V[:, i1, None, :] + fr[:, None] * (V[:, i2] - V[:, i1])[:, :, None, :]  # (k, 3, sp, 2)
    shape = (k, 3, 2, _SIDE_POINTS, 2)
    P = np.broadcast_to(probes[:, :, None], shape).reshape(-1, 2)
    A = np.broadcast_to(V[:, :, None, None, :], shape).reshape(-1, 2)
    B = np.broadcast_to(V[:, np.stack([i1, i2], axis=1), None, :], shape).reshape(-1, 2)
    D = point_to_segment_distances(domain, P, A, B, validate=False).reshape(k, 3, 2, _SIDE_POINTS)
    per_point = D.min(axis=2).reshape(k, 3 * _SIDE_POINTS)  # min over the two opposite sides
    arg = np.argmax(per_point, axis=1)
    values = np.zeros(m)
    values[live] = per_point[np.arange(k), arg]
    witnesses = [
        {"kind": "thin-triangle", "vertices": t.tolist(), "side": 0, "point": t[0].tolist(), "degenerate": True}
        for t in tris
    ]
    for j, r in enumerate(live):
        side, pt = divmod(int(arg[j]), _SIDE_POINTS)
        witnesses[r] = {"kind": "thin-triangle", "vertices": tris[r].tolist(), "side": side,
                        "point": probes[j, side, pt].tolist()}
    return values, witnesses


def delta_thin(domain: ConvexDomain, config: ThinTriangleConfig = ThinTriangleConfig()) -> DeltaEstimate:
    """Thin-triangle hyperbolicity estimate over sampled segment triangles.

    All triangles are evaluated in one batch; the first maximal one is the
    witness.
    """
    rng = np.random.default_rng(config.seed)
    tris = boundary_biased_points(domain, (config.budget, 3), rng)
    values, witnesses = _thinness_many(domain, tris)
    k = int(np.argmax(values))
    return DeltaEstimate(delta_hat=float(max(values[k], 0.0)), witness=witnesses[k], samples_used=config.budget)


def reevaluate_witness(domain: ConvexDomain, witness: dict) -> float:
    """Recompute the defect recorded in an estimator witness."""
    kind = witness.get("kind")
    if kind == "four-point":
        quad = np.asarray(witness["points"], dtype=float)[None, :, :]
        return float(_four_point_defects(domain, quad)[0])
    if kind == "thin-triangle":
        if witness.get("degenerate"):
            return 0.0
        V = as_points(witness["vertices"])
        i = int(witness["side"])
        P = np.repeat(as_point(witness["point"])[None, :], 2, axis=0)
        A = V[[i, i]]
        B = V[[(i + 1) % 3, (i + 2) % 3]]
        return float(point_to_segment_distances(domain, P, A, B, validate=False).min())
    raise ValueError(f"unknown witness kind {kind!r}")
