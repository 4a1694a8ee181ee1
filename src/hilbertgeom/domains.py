"""Planar convex domains with chord, supporting-line and projective queries.

Every domain variant exposes one numerical interface: a continuous *gauge*
(negative inside, zero on the boundary, positive outside), a boundary
parameterization, outward boundary normals, and ray casting from interior
points.  Everything downstream (Hilbert distances, Finsler norms, Hilbert
measures) is built from these primitives, so the variants can share all of
the metric machinery.

Conventions:

* points are ``(x, y)`` pairs; arrays of points have shape ``(n, 2)``
* angle-parameterized boundaries (ellipse, p-ball, radial variants) take
  radians; polygons take arc-length fraction in ``[0, 1)``
* rays are cast from strictly interior points; reported ray parameters are
  Euclidean lengths (directions are normalized internally).  A row whose
  start is not strictly interior (gauge >= 0) gets NaN from every
  ``ray_hits``/``ray_hits_both`` path; ``chord`` and the validating entry
  points raise ``PointNotInterior`` instead
* a zero ray direction raises ``ValueError`` on every ray path
* gauges are convex; a variant without its own ray cast also gives a
  gradient (any subgradient at a kink) and ``_outer``, a circumscribed
  polygon on whose boundary the gauge is ``>= 0`` (p-balls cast to one
  shared unit square in their own local coordinates instead)
* domains are immutable after construction and safe to share across threads
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImproperImage,
    NoConvergence,
    NotOnBoundary,
    PointNotInterior,
)

# a near-tangent ray at worst halves its distance to the hit per Newton round,
# and 53 halvings exhaust double precision; converged rows leave early
_NEWTON_ITERS = 64


def as_point(p) -> np.ndarray:
    """Coerce to a finite (2,) float array."""
    a = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


def as_points(P) -> np.ndarray:
    """Coerce to a finite (n, 2) float array."""
    A = np.asarray(P, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, 2)
    if A.ndim != 2 or A.shape[1] != 2:
        raise ValueError("expected an array of planar points with shape (n, 2)")
    if not np.all(np.isfinite(A)):
        raise ValueError("point coordinates must be finite")
    return A


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


@dataclass(frozen=True)
class Line2:
    """Line ``u*x + v*y + w = 0`` with ``(u, v)`` of unit length.

    The normalized coefficients make ``u*x + v*y + w`` the signed distance to
    the line; orientation (the sign of ``(u, v, w)``) is meaningful and is
    chosen by the producer (supporting lines point ``(u, v)`` outward).
    """

    u: float
    v: float
    w: float

    @staticmethod
    def from_coefficients(u: float, v: float, w: float) -> "Line2":
        n = math.hypot(u, v)
        if n == 0.0:
            raise ValueError("line requires a nonzero normal")
        return Line2(u / n, v / n, w / n)

    @staticmethod
    def through(point, normal) -> "Line2":
        p = as_point(point)
        n = _unit(as_point(normal))
        return Line2(float(n[0]), float(n[1]), float(-(n[0] * p[0] + n[1] * p[1])))

    def signed_distance(self, p) -> float:
        q = as_point(p)
        return float(self.u * q[0] + self.v * q[1] + self.w)

    def signed_distances(self, P) -> np.ndarray:
        Q = as_points(P)
        return Q[:, 0] * self.u + Q[:, 1] * self.v + self.w

    def as_covector(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w])


class ProjectiveMap:
    """Invertible projective transformation of the plane (3x3 matrix)."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float).reshape(3, 3).copy()
        if not np.all(np.isfinite(M)):
            raise ValueError("projective matrix must be finite")
        if abs(np.linalg.det(M)) < 1e-300:
            raise ValueError("projective matrix must be invertible")
        M.setflags(write=False)
        self.matrix = M

    @staticmethod
    def identity() -> "ProjectiveMap":
        return ProjectiveMap(np.eye(3))

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """The map applying ``other`` first, then this map."""
        return ProjectiveMap(self.matrix @ other.matrix)

    def apply_many(self, P) -> np.ndarray:
        Q = as_points(P)
        H = Q @ self.matrix[:, :2].T  # (n,3) missing translation column
        H = H + self.matrix[:, 2]
        w = H[:, 2]
        if np.any(np.abs(w) < 1e-300):
            raise ValueError("point maps to the line at infinity")
        return H[:, :2] / w[:, None]

    def apply(self, p) -> np.ndarray:
        return self.apply_many(as_point(p))[0]

    def push_line(self, line: Line2) -> Line2:
        """Image of a line: covectors transform by the inverse transpose."""
        ell = np.linalg.solve(self.matrix.T, line.as_covector())
        return Line2.from_coefficients(*ell)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ProjectiveMap({self.matrix.tolist()})"


@dataclass(frozen=True)
class Chord:
    """Boundary chord through an interior point along a direction.

    ``p_plus`` is hit along ``+v``, ``p_minus`` along ``-v``; ``t_plus`` and
    ``t_minus`` are the (positive) Euclidean distances from the query point.
    """

    p_minus: np.ndarray
    p_plus: np.ndarray
    t_minus: float
    t_plus: float


class ConvexDomain:
    """Bounded open convex domain in the plane.

    Subclasses provide :meth:`gauge`, an interior anchor, a bounding radius
    and :meth:`to_spec`, plus one of two boundary kinds:

    * :meth:`gauge_grad` plus ``_outer``, a circumscribed :class:`Polygon`
      on whose boundary the gauge is ``>= 0``: the base class then casts
      rays by Newton on the gauge from the closed-form exit of ``_outer``
      (:meth:`_outer_hits`) and takes boundary normals as the normalised
      gradient;
    * their own :meth:`ray_hits` and :meth:`boundary_normals`.

    :meth:`boundary_points` defaults to the radial parameterisation (the
    boundary hit from the anchor at angle ``t``); variants with a native
    parameterisation override it.  Chords and supporting lines are shared.
    """

    param_period: float = 2.0 * np.pi
    boundary_tol: float = 1e-10
    strictly_convex: bool = True

    # ---- per-variant interface -------------------------------------------------

    def gauge(self, P) -> np.ndarray:
        raise NotImplementedError

    def gauge_grad(self, P) -> np.ndarray:
        """Gradient (or, at a kink, any subgradient) of the gauge.

        The generic ray cast takes its Newton steps with it, which makes its
        roots accurate in relative (not just absolute) terms; that matters
        for points whose boundary gap is far below the domain diameter.
        Variants with their own ``ray_hits`` and ``boundary_normals`` need
        not supply it.
        """
        raise NotImplementedError

    def boundary_points(self, ts) -> np.ndarray:
        """Boundary hits of the rays from :meth:`interior_point` at angles ``ts``."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        U = np.stack([np.cos(t), np.sin(t)], axis=1)
        P0 = np.repeat(self.interior_point()[None, :], len(t), axis=0)
        return P0 + self.ray_hits(P0, U)[:, None] * U

    def boundary_normals(self, B) -> np.ndarray:
        """Outward unit normals at (near-)boundary points, one per row.

        The normalised :meth:`gauge_grad`; a zero gradient gives a zero row.
        Variants without a gradient override this.
        """
        G = self.gauge_grad(B)
        n = np.hypot(G[:, 0], G[:, 1])
        return G / np.where(n == 0.0, 1.0, n)[:, None]

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def bounding_radius(self) -> float:
        """Radius of a disk about ``interior_point()`` that contains the domain."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    # ---- shared helpers ---------------------------------------------------------

    def gauge1(self, p) -> float:
        return float(self.gauge(as_point(p)[None, :])[0])

    def contains(self, p) -> bool:
        """Membership in the *open* domain."""
        return self.gauge1(p) < 0.0

    def contains_many(self, P) -> np.ndarray:
        return self.gauge(as_points(P)) < 0.0

    def scale(self) -> float:
        return 1.0 + self.bounding_radius()

    def boundary_samples(self, n: int = 256) -> np.ndarray:
        ts = np.linspace(0.0, self.param_period, n, endpoint=False)
        return self.boundary_points(ts)

    @staticmethod
    def _unit_rays(P, V):
        """Ray starts as an (n, 2) array and the directions scaled to unit
        length; a zero direction raises ``ValueError``."""
        P = as_points(P)
        V = as_points(V)
        norms = np.hypot(V[:, 0], V[:, 1])
        if not norms.all():
            raise ValueError("ray direction must be nonzero")
        return P, V / norms[:, None]

    def ray_hits(self, P, V) -> np.ndarray:
        """First boundary hit parameter along each ray ``P[i] + t*V[i]``.

        ``P`` is not validated: a row whose start is not strictly interior
        (gauge >= 0) gets NaN, every other row its hit.  Directions are
        normalized, so the returned ``t`` are Euclidean lengths.

        Newton on the gauge starts at the ray's exit from ``_outer``, where
        the gauge is ``>= 0``.  The gauge is convex along the ray and
        negative at its start, so every slope met from there is positive and
        the iterates descend monotonically onto the hit.  Each row stops on
        its own, once a step no longer moves it down by more than 1e-16
        relative, and leaves the batch.
        """
        P, U = self._unit_rays(P, V)
        t = np.full(len(P), np.nan)
        rows = np.flatnonzero(self.gauge(P) < 0.0)
        # exits for the whole batch, so that any polygon slacks the gauge
        # shares round as they did in gauge(P) and no interior row gets NaN
        t_r = self._outer_hits(P, U)[rows]
        P_r, U_r = P[rows], U[rows]
        for _ in range(_NEWTON_ITERS):
            X = P_r + t_r[:, None] * U_r
            slope = np.einsum("ij,ij->i", self.gauge_grad(X), U_r)
            t_new = t_r - self.gauge(X) / slope
            t[rows] = t_new
            moving = t_r - t_new > 1e-16 * (1.0 + t_r)
            if not moving.any():
                break
            rows, t_r, P_r, U_r = rows[moving], t_new[moving], P_r[moving], U_r[moving]
        # the last step of a start within rounding of the boundary can land
        # a hair below 0; NaN rows stay NaN
        return np.maximum(t, 0.0)

    def _outer_hits(self, P, U):
        """Exits of the unit-direction rays from ``_outer`` (NaN for a start
        not inside it); a start with gauge < 0 must be inside it."""
        return self._outer.ray_hits(P, U)

    def ray_hits_both(self, P, V):
        """Hit parameters along ``+V`` and ``-V`` (two arrays)."""
        return self.ray_hits(P, V), self.ray_hits(P, -as_points(V))

    def chord(self, p, v) -> Chord:
        """Boundary chord through interior point ``p`` along direction ``v``.

        Raises ``PointNotInterior`` when ``p`` is not strictly inside and
        ``NoConvergence`` when an endpoint fails the boundary predicate.
        """
        p = as_point(p)
        v = _unit(as_point(v))
        if not self.contains(p):
            raise PointNotInterior("point not interior")
        tp, tm = self.ray_hits_both(p[None, :], v[None, :])
        t_plus = float(tp[0])
        t_minus = float(tm[0])
        p_plus = p + t_plus * v
        p_minus = p - t_minus * v
        res = max(abs(self.gauge1(p_plus)), abs(self.gauge1(p_minus)))
        if res > self.boundary_tol * self.scale():
            raise NoConvergence(f"chord endpoint residual {res:.3e} exceeds tolerance")
        return Chord(p_minus=p_minus, p_plus=p_plus, t_minus=t_minus, t_plus=t_plus)

    def _supporting_normal(self, b: np.ndarray) -> np.ndarray:
        return self.boundary_normals(b[None, :])[0]

    def supporting_line(self, b) -> Line2:
        """Supporting line at boundary point ``b``, oriented with the domain
        on the negative side."""
        b = as_point(b)
        if abs(self.gauge1(b)) > 1e-7 * self.scale():
            raise NotOnBoundary("point is not on the domain boundary")
        n = _unit(self._supporting_normal(b))
        line = Line2.through(b, n)
        if line.signed_distance(self.interior_point()) > 0.0:
            line = Line2(-line.u, -line.v, -line.w)
        return line

    def projective_image(self, H: ProjectiveMap) -> "ProjectiveImage":
        """Image domain under ``H``; raises ``ImproperImage`` when unbounded."""
        return ProjectiveImage(self, H)


class Ellipse(ConvexDomain):
    """Ellipse with center, semi-axes and rotation; rays solve a quadratic."""

    def __init__(self, center=(0.0, 0.0), semi_axes=(1.0, 1.0), rotation: float = 0.0):
        self.center = as_point(center)
        a, b = float(semi_axes[0]), float(semi_axes[1])
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        self.semi_axes = (a, b)
        self.rotation = float(rotation)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        self._rot = np.array([[c, -s], [s, c]])
        self._inv_axes = np.array([1.0 / a, 1.0 / b])
        self.center.setflags(write=False)

    def _local(self, P: np.ndarray) -> np.ndarray:
        return (P - self.center) @ self._rot * self._inv_axes

    def gauge(self, P) -> np.ndarray:
        Z = self._local(as_points(P))
        return np.einsum("ij,ij->i", Z, Z) - 1.0

    def gauge_grad(self, P) -> np.ndarray:
        Z = self._local(as_points(P))
        return 2.0 * (Z * self._inv_axes) @ self._rot.T

    def boundary_points(self, ts) -> np.ndarray:
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        local = np.stack([self.semi_axes[0] * np.cos(t), self.semi_axes[1] * np.sin(t)], axis=1)
        return local @ self._rot.T + self.center

    def interior_point(self) -> np.ndarray:
        return self.center

    def bounding_radius(self) -> float:
        return max(self.semi_axes)

    def ray_hits(self, P, V) -> np.ndarray:
        P, U = self._unit_rays(P, V)
        W = (U @ self._rot) * self._inv_axes
        return _unit_conic_hits(self._local(P), W, np.einsum("ij,ij->i", W, W))

    def to_spec(self) -> dict:
        return {
            "type": "ellipse",
            "center": [float(self.center[0]), float(self.center[1])],
            "semi_axes": [self.semi_axes[0], self.semi_axes[1]],
            "rotation": self.rotation,
        }


class PBall(ConvexDomain):
    """Superellipse ``|x/s|^p + |y/s|^p < 1`` about a center, ``p >= 1``."""

    def __init__(self, p: float, center=(0.0, 0.0), scale: float = 1.0):
        p = float(p)
        if p < 1.0:
            raise ValueError("exponent must be at least 1")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.p = p
        self.center = as_point(center)
        self.radius = float(scale)
        self.center.setflags(write=False)
        # p = 1 is the diamond: flat sides, corner points
        self.strictly_convex = p > 1.0

    def gauge(self, P) -> np.ndarray:
        Z = (as_points(P) - self.center) / self.radius
        return np.abs(Z[:, 0]) ** self.p + np.abs(Z[:, 1]) ** self.p - 1.0

    def gauge_grad(self, P) -> np.ndarray:
        Z = (as_points(P) - self.center) / self.radius
        return (self.p / self.radius) * np.sign(Z) * np.abs(Z) ** (self.p - 1.0)

    def boundary_points(self, ts) -> np.ndarray:
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        c, s = np.cos(t), np.sin(t)
        e = 2.0 / self.p
        local = np.stack([np.sign(c) * np.abs(c) ** e, np.sign(s) * np.abs(s) ** e], axis=1)
        return self.center + self.radius * local

    def interior_point(self) -> np.ndarray:
        return self.center

    def bounding_radius(self) -> float:
        return self.radius * 2.0 ** max(0.0, 0.5 - 1.0 / self.p)

    def ray_hits(self, P, V) -> np.ndarray:
        if self.p == 2.0:
            P, U = self._unit_rays(P, V)
            return _unit_conic_hits((P - self.center) / self.radius, U, 1.0) * self.radius
        return super().ray_hits(P, V)

    def _outer_hits(self, P, U):
        # from the unit square in the local coordinates the gauge computes:
        # |x|^p + |y|^p - 1 lies in [0, 1] on its boundary for every p, and
        # a start with local gauge < 0 has |x|, |y| < 1, which its exact
        # axis-aligned slacks see the same way; the clip keeps a start far
        # enough out to overflow finite, and outside
        Z = ((P - self.center) / self.radius).clip(-2.0, 2.0)
        return _UNIT_SQUARE.ray_hits(Z, U) * self.radius

    def to_spec(self) -> dict:
        return {
            "type": "pball",
            "p": self.p,
            "center": [float(self.center[0]), float(self.center[1])],
            "scale": self.radius,
        }


def unit_disk() -> PBall:
    return PBall(2.0)


def _shoelace2(V: np.ndarray) -> float:
    x, y = V[:, 0], V[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class Polygon(ConvexDomain):
    """Convex polygon domain. Vertices are canonicalized to counterclockwise.

    The boundary contains segments, so the domain is never strictly convex as
    a Hilbert geometry; ``strict_vertex_positions`` records whether any three
    consecutive vertices are collinear.
    """

    param_period = 1.0
    boundary_tol = 1e-8
    strictly_convex = False

    def __init__(self, vertices):
        V = as_points(vertices)
        if len(V) < 3:
            raise ValueError("polygon needs at least three vertices")
        area2 = _shoelace2(V)
        if area2 < 0:
            V = V[::-1].copy()
            area2 = -area2
        if area2 <= 0:
            raise ValueError("polygon is degenerate")
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * np.roll(E, -1, axis=0)[:, 1] - E[:, 1] * np.roll(E, -1, axis=0)[:, 0]
        sc = float(np.max(np.hypot(E[:, 0], E[:, 1]))) ** 2
        if np.any(cross < -1e-12 * sc):
            raise ValueError("polygon must be convex")
        self.strict_vertex_positions = bool(np.all(cross > 1e-12 * sc))
        self.vertices = V
        lengths = np.hypot(E[:, 0], E[:, 1])
        normals = np.stack([E[:, 1], -E[:, 0]], axis=1) / lengths[:, None]
        self._edge_normals = normals
        self._edge_offsets = np.einsum("ij,ij->i", normals, V)
        self._cumlen = np.concatenate([[0.0], np.cumsum(lengths)])
        self._anchor = V.mean(axis=0)
        self.vertices.setflags(write=False)

    def _slacks(self, P) -> np.ndarray:
        """Edge slacks ``n_j . p - c_j``, edge-major with shape ``(k, n)``.

        Every reduction over the k edges then runs along the long point axis,
        which numpy does many times faster than along a short last axis.
        """
        return self._edge_normals @ as_points(P).T - self._edge_offsets[:, None]

    def gauge(self, P) -> np.ndarray:
        return self._slacks(P).max(axis=0)

    def boundary_points(self, ts) -> np.ndarray:
        t = np.atleast_1d(np.asarray(ts, dtype=float)) % 1.0
        s = t * self._cumlen[-1]
        idx = np.clip(np.searchsorted(self._cumlen, s, side="right") - 1, 0, len(self.vertices) - 1)
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % len(self.vertices)]
        seg = self._cumlen[idx + 1] - self._cumlen[idx]
        frac = (s - self._cumlen[idx]) / seg
        return a + frac[:, None] * (b - a)

    def vertex_params(self) -> np.ndarray:
        """Arc-length parameters of the polygon corners."""
        return self._cumlen[:-1] / self._cumlen[-1]

    def boundary_normals(self, B) -> np.ndarray:
        return self._edge_normals[np.argmax(self._slacks(B), axis=0)]

    def _supporting_normal(self, b: np.ndarray) -> np.ndarray:
        d = np.hypot(self.vertices[:, 0] - b[0], self.vertices[:, 1] - b[1])
        j = int(np.argmin(d))
        if d[j] <= 1e-9 * self.scale():
            # corner: bisector of the normal cone spanned by the two edges
            n_prev = self._edge_normals[j - 1]
            n_next = self._edge_normals[j]
            return _unit(n_prev + n_next)
        return self.boundary_normals(b[None, :])[0]

    def interior_point(self) -> np.ndarray:
        return self._anchor

    def bounding_radius(self) -> float:
        d = np.hypot(self.vertices[:, 0] - self._anchor[0], self.vertices[:, 1] - self._anchor[1])
        return float(np.max(d))

    def ray_hits(self, P, V) -> np.ndarray:
        P, U = self._unit_rays(P, V)
        den = self._edge_normals @ U.T
        D = self._slacks(P)
        # the entries masked out (den <= 1e-300) may divide by zero or overflow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.where(den > 1e-300, -D / den, np.inf)
        t = np.where(t >= 0.0, t, np.inf)
        return np.where(D.max(axis=0) < 0.0, t.min(axis=0), np.nan)

    def to_spec(self) -> dict:
        return {"type": "polygon", "vertices": self.vertices.tolist()}


# the outer polygon of every p-ball, in its local coordinates
_UNIT_SQUARE = Polygon([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def regular_polygon(sides: int, circumradius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> Polygon:
    if sides < 3:
        raise ValueError("need at least three sides")
    ang = phase + 2.0 * np.pi * np.arange(sides) / sides
    c = as_point(center)
    return Polygon(np.stack([c[0] + circumradius * np.cos(ang), c[1] + circumradius * np.sin(ang)], axis=1))


class SmoothedPolygon(ConvexDomain):
    """Smooth, strictly convex softening of a convex polygon.

    The gauge is the log-sum-exp softening of the polygon's edge constraints
    at temperature ``smoothing``; as ``smoothing -> 0`` the domain converges
    to the polygon while staying analytic and strictly convex.
    """

    def __init__(self, vertices, smoothing: float):
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        base = Polygon(vertices)
        # log-sum-exp >= max: the gauge is >= 0 on the polygon itself
        self._poly = self._outer = base
        self.smoothing = float(smoothing)
        self._anchor = base.interior_point()
        if self.gauge1(self._anchor) >= 0.0:
            raise ValueError("smoothing too large: domain is empty at the polygon centroid")

    def gauge(self, P) -> np.ndarray:
        A = self._poly._slacks(P) / self.smoothing
        m = A.max(axis=0)
        return self.smoothing * (m + np.log(np.exp(A - m).sum(axis=0)))

    def gauge_grad(self, P) -> np.ndarray:
        A = self._poly._slacks(P) / self.smoothing
        W = np.exp(A - A.max(axis=0))
        return (W / W.sum(axis=0)).T @ self._poly._edge_normals

    def interior_point(self) -> np.ndarray:
        return self._anchor

    def bounding_radius(self) -> float:
        return self._poly.bounding_radius()

    def to_spec(self) -> dict:
        return {
            "type": "smoothed-polygon",
            "vertices": self._poly.vertices.tolist(),
            "smoothing": self.smoothing,
        }


class PowerCap(ConvexDomain):
    """Domain between a power curve and a flat cap: ``|x|^alpha < y < 1``.

    Strict convexity fails on the cap, but the lower boundary arc (the one
    used for tangency experiments at the origin) is strictly convex for
    ``alpha > 1``.
    """

    strictly_convex = False
    # |x| < 1 and 0 < y < 1 inside: on this box the gauge is >= 0, and its
    # axis-aligned slacks round to < 0 at every start with gauge < 0
    _outer = Polygon([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if alpha <= 1.0:
            raise ValueError("exponent must exceed 1")
        self.alpha = alpha
        self._anchor = np.array([0.0, 0.5])
        self._anchor.setflags(write=False)

    def gauge(self, P) -> np.ndarray:
        Q = as_points(P)
        return np.maximum(np.abs(Q[:, 0]) ** self.alpha - Q[:, 1], Q[:, 1] - 1.0)

    def gauge_grad(self, P) -> np.ndarray:
        Q = as_points(P)
        lower = (np.abs(Q[:, 0]) ** self.alpha - Q[:, 1]) >= (Q[:, 1] - 1.0)
        gx = np.where(lower, self.alpha * np.sign(Q[:, 0]) * np.abs(Q[:, 0]) ** (self.alpha - 1.0), 0.0)
        gy = np.where(lower, -1.0, 1.0)
        return np.stack([gx, gy], axis=1)

    def interior_point(self) -> np.ndarray:
        return self._anchor

    def bounding_radius(self) -> float:
        return 1.6

    def to_spec(self) -> dict:
        return {"type": "power-cap", "alpha": self.alpha}


class ProjectiveImage(ConvexDomain):
    """Image of a convex domain under a proper projective map.

    Properness (the image stays bounded: the preimage of the line at infinity
    misses the closure) is certified at construction by mapping boundary
    samples and checking the last homogeneous coordinate is bounded away
    from zero with constant sign.  Chords are computed exactly by pulling the
    ray's line back to the inner domain and pushing the endpoints forward.
    """

    def __init__(self, inner: ConvexDomain, H: ProjectiveMap, _samples: int = 512):
        if isinstance(inner, ProjectiveImage):
            H = H.compose(inner.map)
            inner = inner.inner
        self.inner = inner
        self.map = H
        self._inv = H.inverse()
        M = H.matrix
        B = inner.boundary_samples(_samples)
        hom = np.concatenate([B, np.ones((len(B), 1))], axis=1) @ M.T
        w = hom[:, 2]
        anchor_w = float(M[2, 0] * inner.interior_point()[0] + M[2, 1] * inner.interior_point()[1] + M[2, 2])
        wscale = float(np.max(np.abs(M[2])) * inner.scale())
        # the inverse map gives every image point a pulled-back w of this sign
        self._w_sign = 1.0 if anchor_w > 0 else -1.0
        if anchor_w < 0:
            w = -w
            anchor_w = -anchor_w
        if np.min(w) <= 1e-9 * wscale or anchor_w <= 1e-9 * wscale:
            raise ImproperImage("projective image is not a bounded convex domain")
        boundary = hom[:, :2] / hom[:, 2][:, None]
        self._anchor = H.apply(inner.interior_point())
        r = np.hypot(boundary[:, 0] - self._anchor[0], boundary[:, 1] - self._anchor[1])
        self._bounding = float(np.max(r)) * 1.05 + 1e-12
        self.param_period = inner.param_period
        self.boundary_tol = max(inner.boundary_tol, 1e-10)
        self.strictly_convex = inner.strictly_convex

    def _pull(self, P: np.ndarray) -> np.ndarray:
        M = self._inv.matrix
        hom = np.concatenate([P, np.ones((len(P), 1))], axis=1) @ M.T
        w = hom[:, 2]
        bad = np.abs(w) < 1e-300
        w = np.where(bad, 1.0, w)
        out = hom[:, :2] / w[:, None]
        out[bad] = 1e6 * (1.0 + self.inner.bounding_radius())
        return out

    def gauge(self, P) -> np.ndarray:
        P = as_points(P)
        M = self._inv.matrix
        hom = np.concatenate([P, np.ones((len(P), 1))], axis=1) @ M.T
        w = hom[:, 2]
        w_ok = self._w_sign * w > 1e-12 * max(1.0, float(np.max(np.abs(M[2]))))
        safe_w = np.where(w_ok, w, 1.0)
        X = hom[:, :2] / safe_w[:, None]
        g = np.where(w_ok, self.inner.gauge(X), 1.0)
        return g

    def boundary_points(self, ts) -> np.ndarray:
        return self.map.apply_many(self.inner.boundary_points(ts))

    def boundary_normals(self, B) -> np.ndarray:
        B = as_points(B)
        X = self._pull(B)
        N = self.inner.boundary_normals(X)
        ell = np.concatenate([N, -np.einsum("ij,ij->i", N, X)[:, None]], axis=1)
        pushed = ell @ self._inv.matrix  # rows: covector times H^{-1}
        G = pushed[:, :2]
        G = G / np.hypot(G[:, 0], G[:, 1])[:, None]
        # orient outward: positive side away from the anchor
        s = np.sign(pushed[:, 0] * self._anchor[0] + pushed[:, 1] * self._anchor[1] + pushed[:, 2])
        return G * np.where(s > 0, -1.0, 1.0)[:, None]

    def interior_point(self) -> np.ndarray:
        return self._anchor

    def bounding_radius(self) -> float:
        return self._bounding

    def ray_hits(self, P, V) -> np.ndarray:
        return self.ray_hits_both(P, V)[0]

    def ray_hits_both(self, P, V):
        P, U = self._unit_rays(P, V)
        Minv = self._inv.matrix
        hom = np.concatenate([P, np.ones((len(P), 1))], axis=1) @ Minv.T
        # a pulled-back w of the wrong sign puts the start beyond the line
        # sent to infinity: cast that row from the inner anchor, report NaN
        ok = self._w_sign * hom[:, 2] > 0.0
        A = hom[:, :2] / np.where(ok, hom[:, 2], 1.0)[:, None]
        A[~ok] = self.inner.interior_point()
        W = U @ Minv[:, :2].T  # direction as point at infinity, (n,3)
        D = W[:, :2] - W[:, 2][:, None] * A
        dn = np.hypot(D[:, 0], D[:, 1])
        D = D / dn[:, None]
        s_plus = self.inner.ray_hits(A, D)
        s_minus = self.inner.ray_hits(A, -D)
        # the inner cast gives NaN for a start outside the inner domain
        ok &= ~np.isnan(s_plus)
        E1 = self.map.apply_many(A + np.where(ok, s_plus, 0.0)[:, None] * D)
        E2 = self.map.apply_many(A - np.where(ok, s_minus, 0.0)[:, None] * D)
        sig1 = np.einsum("ij,ij->i", E1 - P, U)
        sig2 = np.einsum("ij,ij->i", E2 - P, U)
        t_plus = np.where(sig1 > 0.0, sig1, sig2)
        t_minus = np.where(sig1 > 0.0, -sig2, -sig1)
        return np.where(ok, t_plus, np.nan), np.where(ok, t_minus, np.nan)

    def to_spec(self) -> dict:
        return {
            "type": "projective",
            "matrix": self.map.matrix.tolist(),
            "inner": self.inner.to_spec(),
        }


def _unit_conic_hits(Z: np.ndarray, W: np.ndarray, A) -> np.ndarray:
    """Positive roots ``t`` of ``|Z + t W|^2 = 1``, with ``A = |W|^2``.

    ``Z`` are ray starts and ``W`` directions in the frame where the conic is
    the unit circle.  A start with ``|Z| >= 1`` is not interior: its NaN
    propagates quietly to ``t``; every other start has a positive
    discriminant, which needs no clamp.
    """
    B = np.einsum("ij,ij->i", Z, W)
    C = np.einsum("ij,ij->i", Z, Z) - 1.0
    C = np.where(C < 0.0, C, np.nan)
    disc = np.sqrt(B * B - A * C)
    # stable positive root of A t^2 + 2 B t + C = 0 with C < 0
    return np.where(B > 0.0, -C / (B + disc), (disc - B) / A)


def domain_from_spec(spec: dict) -> ConvexDomain:
    """Build a domain from its JSON-style description.

    A malformed spec (not an object, unknown type, missing field, field of
    the wrong type) raises ``ValueError``.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("domain spec must be an object with a 'type' field")
    try:
        return _domain_from_fields(spec)
    except KeyError as exc:
        raise ValueError(f"domain spec of type {spec['type']!r} is missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"domain spec of type {spec['type']!r} has a field of the wrong type: {exc}") from None


def _domain_from_fields(spec: dict) -> ConvexDomain:
    kind = spec["type"]
    if kind == "pball":
        return PBall(spec["p"], spec.get("center", (0.0, 0.0)), spec.get("scale", 1.0))
    if kind == "ellipse":
        return Ellipse(spec.get("center", (0.0, 0.0)), spec.get("semi_axes", (1.0, 1.0)), spec.get("rotation", 0.0))
    if kind == "polygon":
        return Polygon(spec["vertices"])
    if kind == "smoothed-polygon":
        return SmoothedPolygon(spec["vertices"], spec["smoothing"])
    if kind == "power-cap":
        return PowerCap(spec["alpha"])
    if kind == "projective":
        inner = domain_from_spec(spec["inner"])
        return ProjectiveImage(inner, ProjectiveMap(spec["matrix"]))
    raise ValueError(f"unknown domain type {kind!r}")


def domain_from_json(text: str) -> ConvexDomain:
    return domain_from_spec(json.loads(text))
