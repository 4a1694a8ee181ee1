"""Hilbert distance, Finsler norm, and Gromov-hyperbolicity estimators.

The distance between interior points p, q is half the log of the cross-ratio
of (a, p, q, b), where a and b are the boundary hits of the line through p
and q (a on the p side).  With L = |q - p| and t-, t+ the distances from p
to the boundary along -(q-p) and +(q-p):

    d(p, q) = 1/2 * ln( (L + t-)/t- * t+/(t+ - L) )

It is the symmetrised Funk metric, d(p, q) = (F(p, q) + F(q, p)) / 2, and
the Funk metric is a supremum over supporting lines, F(x, y) = sup ln(h(x) /
h(y)) with h the distance to the line, attained at the chord's boundary
ends (Papadopoulos & Troyanov, "From Funk to Hilbert geometry", Handbook of
Hilbert Geometry, 2014).  So the hits that give d(p, q) also give its
gradient in q,

    1/2 * ( n_b / <n_b, b - q> - n_a / <n_a, a - q> ),

with n_a, n_b the outward normals at a and b, and freezing those two lines
gives a lower bound for d(p, .) everywhere.  The point-to-segment search
below is built on both.

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

import numbers
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, as_point, as_points
from .errors import PointNotInterior, SegmentNotInDomain

COINCIDENCE_TOL = 1e-14
_TINY = 1e-300
_SEARCH_TOL = 1e-15  # the segment search's gap bound, relative and absolute
_SEARCH_ROUNDS = 64  # hard cap on the segment search's rounds
_ULPS = 2.0 ** -50  # 4 ulp: how finely a point on a segment can be placed
_FAR = 18.0  # ln(2**52) / 2: a distance whose chord gap is down to rounding
_APPROACH = 1e-4  # smallest gap fraction of a boundary-biased sample
_SIDE_POINTS = 8  # probe points per side of a thin triangle


def _require_interior(domain: ConvexDomain, P: np.ndarray, label: str) -> None:
    # not "any >= 0": a NaN gauge must fail too
    if not np.all(domain.gauge(P) < 0.0):
        raise PointNotInterior(f"{label} not interior")


def _distances(domain: ConvexDomain, P: np.ndarray, Q: np.ndarray):
    """Row-wise distances d(P_i, Q_i) from one cast of each row's chord, with
    the chord: the lengths L = |Q_i - P_i| and the hit parameters along the
    unit direction of Q_i - P_i, ``t_plus`` beyond Q_i and ``t_minus`` behind
    P_i.  Rows with L < ``COINCIDENCE_TOL`` have distance 0 and NaN hits."""
    V = Q - P
    L = np.hypot(V[:, 0], V[:, 1])
    d = np.zeros(len(P))
    t_plus, t_minus = np.full(len(P), np.nan), np.full(len(P), np.nan)
    move = np.flatnonzero(L >= COINCIDENCE_TOL)
    if len(move):
        Lm = L.take(move)
        tp, tm = domain.ray_hits_both(P.take(move, axis=0), V.take(move, axis=0))
        gap = np.maximum(tp - Lm, _TINY)
        back = np.maximum(tm, _TINY)
        with np.errstate(over="ignore"):
            d[move] = 0.5 * np.log((Lm + back) / back * (tp / gap))
        t_plus[move], t_minus[move] = tp, tm
    return d, L, t_plus, t_minus


def hilbert_distances(domain: ConvexDomain, P, Q, validate: bool = True) -> np.ndarray:
    """Row-wise Hilbert distances between interior points.

    With ``validate=False`` the rows are trusted to be interior; near-boundary
    rows then degrade to very large values instead of raising, and a row
    whose first point is not interior gives NaN (the ray casts'
    exterior-start contract).
    """
    P = as_points(P)
    Q = as_points(Q)
    if validate:
        _require_interior(domain, P, "first point")
        _require_interior(domain, Q, "second point")
    return _distances(domain, P, Q)[0]


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


def _support_rates(domain: ConvexDomain, P, X, E, L, t_plus, t_minus):
    """The rates rho_a = <n_a, E>/h_a and rho_b = <n_b, E>/h_b of each row.

    The chord through P_i and X_i is the one ``_distances`` cast: it hits
    the boundary at a (behind P_i) and b (beyond X_i), with outward normals
    n_a and n_b there, and h_a = <n_a, a - X_i>, h_b = <n_b, b - X_i> are the
    distances of X_i from the supporting lines.  Along the unit vector E_i
    the slope of d(P_i, .) at X_i is (rho_b - rho_a) / 2, and the two frozen
    lines bound d(P_i, X_i + u E_i) from below by

        d(P_i, X_i) + 1/2 * ( ln(1 - rho_a u) - ln(1 - rho_b u) ).

    NaN where the chord has no hits (X_i = P_i, or P_i not interior).
    """
    ra, rb = np.full(len(P), np.nan), np.full(len(P), np.nan)
    ok = np.flatnonzero(np.isfinite(t_plus) & np.isfinite(t_minus))
    P, X, E = P.take(ok, axis=0), X.take(ok, axis=0), E.take(ok, axis=0)
    L, t_plus, t_minus = L.take(ok), t_plus.take(ok), t_minus.take(ok)
    U = (X - P) / L[:, None]
    N = domain.boundary_normals(np.concatenate([P + t_plus[:, None] * U, P - t_minus[:, None] * U]))
    nb, na = N[:len(ok)], N[len(ok):]
    # h_b = <n_b, U> (t_plus - L) and h_a = -<n_a, U> (t_minus + L)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rb[ok] = (nb[:, 0] * E[:, 0] + nb[:, 1] * E[:, 1]) / (
            (nb[:, 0] * U[:, 0] + nb[:, 1] * U[:, 1]) * np.maximum(t_plus - L, _TINY))
        ra[ok] = -(na[:, 0] * E[:, 0] + na[:, 1] * E[:, 1]) / (
            (na[:, 0] * U[:, 0] + na[:, 1] * U[:, 1]) * (t_minus + L))
    return ra, rb


def _minorant_crossing(lo: np.ndarray, hi: np.ndarray):
    """Where the frozen-line lower bounds of the two bracket ends cross.

    ``lo`` and ``hi`` are bracket-end stacks (see the search below).  The
    bound of the lo end falls along the segment and the bound of the hi end
    rises (each is the log of a ratio of affine functions), so they cross
    once in the bracket, at offset d from the lo end, and the distance is at
    least their common value m there everywhere in the bracket.  Setting
    the two bounds equal and exponentiating gives a quadratic in d; the
    larger of the two values f is factored out so nothing overflows.
    Returns (d, m).
    """
    _, x_lo, f_lo, _, a_lo, b_lo = lo
    _, x_hi, f_hi, _, a_hi, b_hi = hi
    w = x_hi - x_lo
    gap = f_lo - f_hi
    e_lo, e_hi = np.exp(2.0 * np.minimum(gap, 0.0)), np.exp(-2.0 * np.maximum(gap, 0.0))
    u_b, u_a = 1.0 + b_hi * w, 1.0 + a_hi * w
    qa = e_lo * a_lo * b_hi - e_hi * a_hi * b_lo
    qb = e_hi * (a_hi + b_lo * u_a) - e_lo * (b_hi + a_lo * u_b)
    qc = e_lo * u_b - e_hi * u_a  # the sign of the bounds' difference at lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        near, far = qc / q, q / qa
        d = np.clip(np.where((near >= 0.0) & (near <= w), near, far), 0.0, w)
        # rounding can put the crossing just outside the bracket
        d = np.where(qc <= 0.0, 0.0, np.where((qa * w + qb) * w + qc >= 0.0, w, d))
        m = f_lo + 0.5 * (np.log1p(-a_lo * d) - np.log1p(-b_lo * d))
    return d, m


def _arc_to_offset(s, t_plus, t_minus):
    """The offset x along a chord, from the point where t_plus and t_minus
    were measured, that lies at Hilbert arc length s from it, and dx/ds.

    With k = e^(2s), x = t- t+ (k - 1) / (t+ + k t-), written with e^(-2|s|)
    so that it cannot overflow.
    """
    pos = s >= 0.0
    near, far = np.where(pos, t_plus, t_minus), np.where(pos, t_minus, t_plus)
    m = np.exp(-2.0 * np.abs(s))
    den = near * m + far
    x = np.where(pos, 1.0, -1.0) * near * far * -np.expm1(-2.0 * np.abs(s)) / den
    return x, 2.0 * near * far * (t_plus + t_minus) * m / (den * den)


def point_to_segment_distances(
    domain: ConvexDomain,
    P,
    A,
    B,
    validate: bool = True,
) -> np.ndarray:
    """Row-wise min over segment [A_i, B_i] of the distance from P_i.

    Hilbert balls are convex, so the distance f from P_i along the segment is
    quasi-convex: it has one basin and no plateau above its minimum (the
    flat valleys of polygons are plateaus at the minimum).  The search runs
    in the segment's Hilbert arc length s, measured from its midpoint M_i
    along the chord through A_i and B_i (cast once, and mapped to points in
    closed form); in s, f is 1-Lipschitz.

    * Slope.  Each evaluation of f also gives its slope, from the chord's
      hits and one ``boundary_normals`` call (see the module docstring), so
      every domain class keeps its one ray solver.
    * End rule.  By quasi-convexity the minimum is at A_i if f'(A_i) >= 0 and
      at B_i if f'(B_i) <= 0.  Otherwise the sign of f'(M_i) picks the half
      that brackets it, and every later evaluation keeps a bracket with a
      negative slope at its lo end and a positive one at its hi end.  An end
      on the boundary lies at infinite s; since f(s) >= |s| - f(M_i), the
      minimum lies within |s| <= 2 f(M_i), and the bracket stops there.
    * Steps.  Each round evaluates two points per row: the root of the
      slope's chord across the bracket (fast at smooth minima), and the
      crossing of the lower bounds that the supporting lines of the two
      bracket ends give (exact at the kinks of a polygon, where each piece
      is such a bound).  The crossing gives way to the bracket's midpoint if
      it is not strictly inside or if the last round did not halve the
      bracket.
    * Stop.  The crossing's value is a lower bound for f over the bracket.
      A row stops once the better bracket end is within 1e-15 (1 + f) of it,
      plus what rounding that end's coordinates can move f, and leaves the
      batch; after ``_SEARCH_ROUNDS`` rounds every row stops.

    The result is the least value evaluated at the ends, at M_i and at the
    final bracket ends, so it is never above the value at either end of the
    segment.  An end on the boundary (an ideal-triangle side) just gives a
    large finite value.
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
    D = B - A
    h = 0.5 * np.hypot(D[:, 0], D[:, 1])
    rows = np.flatnonzero(h >= COINCIDENCE_TOL)
    k = len(rows)
    M, E, h = 0.5 * (A + B).take(rows, axis=0), D.take(rows, axis=0), h.take(rows)
    E /= 2.0 * h[:, None]
    Pk, Ak, Bk = P.take(rows, axis=0), A.take(rows, axis=0), B.take(rows, axis=0)
    # one cast: P to both ends and to the midpoint, and the segment's own
    # chord from its midpoint
    f, L, t_plus, t_minus = _distances(domain, np.concatenate([P, P, Pk, M]), np.concatenate([A, B, M, Bk]))
    out = np.minimum(f[:n], f[n:2 * n])
    if not k:
        return out
    Tp, Tm = t_plus[2 * n + k:], t_minus[2 * n + k:]
    # the three points A, B, M of each row, as bracket-end stacks: arc
    # length s from M, offset x from M, f, slope in s, rho_a, rho_b
    pts = np.concatenate([rows, rows + n, 2 * n + np.arange(k)])
    ra, rb = _support_rates(domain, np.tile(Pk, (3, 1)), np.concatenate([Ak, Bk, M]), np.tile(E, (3, 1)),
                            L.take(pts), t_plus.take(pts), t_minus.take(pts))
    x = np.concatenate([-h, h, np.zeros(k)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the point's distances to the chord's ends, then s and dx/ds = 2 r+ r- / (t+ + t-)
        rp = np.maximum(np.tile(Tp, 3) - x, _TINY)
        rm = np.maximum(np.tile(Tm, 3) + x, _TINY)
        s = 0.5 * (np.log(rm / np.tile(Tm, 3)) - np.log(rp / np.tile(Tp, 3)))
        g = (rb - ra) * rp * rm / np.tile(Tp + Tm, 3)
    pts = np.stack([s, x, f.take(pts), g, ra, rb])
    end_a, end_b, at_m = pts[:, :k], pts[:, k:2 * k], pts[:, 2 * k:]
    out[rows] = np.minimum(out[rows], at_m[2])
    # the end rule, then M splits the bracket by the sign of its slope
    live = np.flatnonzero((end_a[3] < 0.0) & (end_b[3] > 0.0) & (at_m[2] > 0.0) & (at_m[3] != 0.0)
                          & np.isfinite(end_a[0]) & np.isfinite(end_b[0]))
    rows, end_a, end_b, at_m = rows.take(live), end_a[:, live], end_b[:, live], at_m[:, live]
    if not len(rows):
        return out
    P, M, E, h = P.take(rows, axis=0), M.take(live, axis=0), E.take(live, axis=0), h.take(live)
    Tp, Tm = Tp.take(live), Tm.take(live)
    right = at_m[3] < 0.0
    lo = np.where(right, at_m, end_a)
    hi = np.where(right, end_b, at_m)
    # f is 1-Lipschitz in s, so |s| - f(M) <= f(s) <= f(M) at the minimum:
    # an end on the boundary (within rounding: f >= _FAR) and beyond
    # |s| = 2 f(M) gives way to an unevaluated one there, with slope -1 or 1
    # and no lower bound
    cap = 2.0 * at_m[2]
    for end, sign in ((lo, -1.0), (hi, 1.0)):
        far = np.flatnonzero((sign * end[0] > cap) & (end[2] >= _FAR))
        if len(far):
            end[0, far] = sign * cap[far]
            end[1, far] = _arc_to_offset(end[0, far], Tp.take(far), Tm.take(far))[0]
            end[2:, far] = [[np.inf], [sign], [np.nan], [np.nan]]
    res = _ULPS * (1.0 + np.abs(M).max(axis=1) + h)
    width = np.full(len(rows), np.inf)
    for rnd in range(_SEARCH_ROUNDS + 1):
        best = np.minimum(lo[2], hi[2])
        d, bound = _minorant_crossing(lo, hi)
        # rounding the best end's point moves f by its slope times res
        slope = 0.5 * np.abs(np.where(lo[2] <= hi[2], lo[5] - lo[4], hi[5] - hi[4]))
        done = best - bound <= _SEARCH_TOL * (1.0 + best) + res * slope
        if rnd == _SEARCH_ROUNDS:
            done[:] = True
        if done.any():
            out[rows[done]] = np.minimum(out[rows[done]], best[done])
            keep = np.flatnonzero(~done)
            if not len(keep):
                break
            rows, lo, hi, d = rows.take(keep), lo[:, keep], hi[:, keep], d.take(keep)
            P, M, E = P.take(keep, axis=0), M.take(keep, axis=0), E.take(keep, axis=0)
            Tp, Tm, res, width = Tp.take(keep), Tm.take(keep), res.take(keep), width.take(keep)
        w = hi[0] - lo[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = lo[0] - lo[3] * w / (hi[3] - lo[3])
            cross = 0.5 * (np.log1p((lo[1] + d) / Tm) - np.log1p(-(lo[1] + d) / Tp))
        cross = np.where((cross > lo[0]) & (cross < hi[0]) & (w <= 0.5 * width), cross, lo[0] + 0.5 * w)
        width = w
        s = np.concatenate([chord, cross])
        x, dxds = _arc_to_offset(s, np.tile(Tp, 2), np.tile(Tm, 2))
        P2, E2 = np.tile(P, (2, 1)), np.tile(E, (2, 1))
        X = np.tile(M, (2, 1)) + x[:, None] * E2
        f, L, t_plus, t_minus = _distances(domain, P2, X)
        ra, rb = _support_rates(domain, P2, X, E2, L, t_plus, t_minus)
        # a point on the segment at distance 0 is the minimum: slope 0
        g = np.where(f == 0.0, 0.0, 0.5 * (rb - ra) * dxds)
        new = np.stack([s, x, f, g, ra, rb])
        for part in (new[:, :len(rows)], new[:, len(rows):]):
            lo = np.where((part[3] <= 0.0) & (part[0] >= lo[0]), part, lo)
            hi = np.where((part[3] >= 0.0) & (part[0] <= hi[0]), part, hi)
    return out


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
