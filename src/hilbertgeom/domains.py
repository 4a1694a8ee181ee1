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
  start is not strictly interior (gauge >= 0) gets NaN; the validating
  entry points raise ``PointNotInterior`` instead
* a zero ray direction raises ``ValueError``
* variants implement one ray method, ``ray_hits_both`` (the whole chord:
  both hits of the line through each start); ``ray_hits`` is its ``+V``
  half
* gauges are convex; a variant without its own chord cast also gives
  ``gauge_and_grad`` (the gauge and its gradient, any subgradient at a
  kink, from one shared computation) and ``_outer``, a circumscribed
  polygon on whose boundary the gauge is ``>= 0`` (p-balls cast to one
  shared unit square in their own local coordinates instead)
* domains are immutable after construction and safe to share across threads
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ImproperImage, NotOnBoundary

# a near-tangent ray at worst halves its distance to the hit per Newton round,
# and 53 halvings exhaust double precision; converged rows leave early
_NEWTON_ITERS = 64
# boundary samples that certify a projective image bounded
_PROPER_SAMPLES = 512


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


def _dots(N: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``N @ X.T`` for a ``(k, 2)`` ``N`` and ``(n, 2)`` ``X``, shape ``(k, n)``.

    Elementwise sums rather than a matmul: BLAS rounds a row of a small
    product by its place in the batch, this rounds it the same way in any.
    """
    return N[:, 0, None] * X[:, 0] + N[:, 1, None] * X[:, 1]


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

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """The map applying ``other`` first, then this map."""
        return ProjectiveMap(self.matrix @ other.matrix)

    def apply_many(self, P) -> np.ndarray:
        M = self.matrix
        x, y, w = _dots(M[:, :2], as_points(P)) + M[:, 2, None]
        if np.any(np.abs(w) < 1e-300):
            raise ValueError("point maps to the line at infinity")
        return np.stack([x / w, y / w], axis=1)

    def apply(self, p) -> np.ndarray:
        return self.apply_many(as_point(p))[0]

    def push_line(self, line: Line2) -> Line2:
        """Image of a line: covectors transform by the inverse transpose."""
        ell = np.linalg.solve(self.matrix.T, line.as_covector())
        return Line2.from_coefficients(*ell)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ProjectiveMap({self.matrix.tolist()})"


class ConvexDomain:
    """Bounded open convex domain in the plane.

    Subclasses provide :meth:`gauge`, an interior anchor, a bounding radius
    and :meth:`to_spec`, plus one of two boundary kinds:

    * :meth:`gauge_and_grad` plus ``_outer``, a circumscribed
      :class:`Polygon` on whose boundary the gauge is ``>= 0``: the base
      class then casts chords by Newton on the gauge from the closed-form
      exits of ``_outer`` (:meth:`_outer_hits`) and takes boundary normals
      as the normalised gradient;
    * their own :meth:`ray_hits_both` and :meth:`boundary_normals`.

    :meth:`ray_hits` is the ``+V`` half of :meth:`ray_hits_both`; no
    variant overrides it.

    :meth:`boundary_points` defaults to the radial parameterisation (the
    boundary hit from the anchor at angle ``t``); variants with a native
    parameterisation override it.  Supporting lines are shared.
    """

    param_period: float = 2.0 * np.pi
    strictly_convex: bool = True

    # ---- per-variant interface -------------------------------------------------

    def gauge(self, P) -> np.ndarray:
        raise NotImplementedError

    def gauge_and_grad(self, P):
        """The gauge (equal to :meth:`gauge` bit for bit) and its gradient
        (or, at a kink, any subgradient), as an ``(n,)`` and an ``(n, 2)``
        array computed from shared terms.

        The generic ray cast takes its Newton steps with it, which makes its
        roots accurate in relative (not just absolute) terms; that matters
        for points whose boundary gap is far below the domain diameter.
        Variants with their own ``ray_hits_both`` and ``boundary_normals``
        need not supply it.
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

        The normalised gradient that :meth:`gauge_and_grad` gives; a zero
        gradient gives a zero row.  Variants without a gradient override this.
        """
        G = self.gauge_and_grad(B)[1]
        n = np.hypot(G[:, 0], G[:, 1])
        return G / np.where(n == 0.0, 1.0, n)[:, None]

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def bounding_radius(self) -> float:
        """Radius of a disk about ``interior_point()`` that contains the domain."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    def _unit_ball_areas_exact(self, P):
        """Areas of the Finsler unit balls at the rows of ``P`` in closed
        form, NaN on every row not strictly interior; ``None`` on a variant
        without one, whose balls are integrated over ray-cast directions.

        Every row is computed on its own, elementwise and with sums over
        edges in edge order (:func:`_dots`, :func:`_edge_sum`), never by a
        matmul, so its area is the same alone or in any batch.
        """
        return None

    # ---- shared helpers ---------------------------------------------------------

    def gauge1(self, p) -> float:
        return float(self.gauge(as_point(p)[None, :])[0])

    def contains(self, p) -> bool:
        """Membership in the *open* domain."""
        return self.gauge1(p) < 0.0

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
        """First boundary hit parameter along each ray ``P[i] + t*V[i]``: the
        ``+V`` half of :meth:`ray_hits_both`."""
        return self.ray_hits_both(P, V)[0]

    def ray_hits_both(self, P, V):
        """Hit parameters along ``+V`` and ``-V`` (two arrays): the chord of
        each row.

        ``P`` is not validated: a row whose start is not strictly interior
        (gauge >= 0) gets NaN in both, every other row its hits.  Directions
        are normalized, so the returned ``t`` are Euclidean lengths.  This
        is the one ray method a variant implements.

        Here, for the variants with a gradient: Newton on the gauge, each
        step's gauge and slope from one :meth:`gauge_and_grad` call, starts
        at the ray's exit from ``_outer``, where the gauge is ``>= 0``.  The
        gauge is convex along the ray and negative at its start, so every
        slope met from there is positive and the iterates descend
        monotonically onto the hit.  Each row stops on its own, once a step
        no longer moves it down by more than 1e-16 relative, and leaves the
        batch.  The two directions share the input checks, the interior mask
        and the outer exits, and run the loop one after the other.
        """
        P, U = self._unit_rays(P, V)
        rows = np.flatnonzero(self.gauge(P) < 0.0)
        # exits for the whole batch, so that any polygon slacks the gauge
        # shares round as they did in gauge(P) and no interior row gets NaN
        out_plus, out_minus = self._outer_hits(P, U)
        return (self._newton_hits(P, U, rows, out_plus.take(rows)),
                self._newton_hits(P, -U, rows, out_minus.take(rows)))

    def _newton_hits(self, P, U, rows, t_r):
        """Newton from the outer exits ``t_r`` of the interior ``rows``; NaN
        on every other row."""
        t = np.full(len(P), np.nan)
        P_r, U_r = P.take(rows, axis=0), U.take(rows, axis=0)
        for _ in range(_NEWTON_ITERS):
            X = P_r + t_r[:, None] * U_r
            g, G = self.gauge_and_grad(X)
            t_new = t_r - g / (G[:, 0] * U_r[:, 0] + G[:, 1] * U_r[:, 1])
            t[rows] = t_new
            # integer compaction: take is many times faster than a mask
            keep = np.flatnonzero(t_r - t_new > 1e-16 * (1.0 + t_r))
            if not len(keep):
                break
            rows, t_r = rows.take(keep), t_new.take(keep)
            P_r, U_r = P_r.take(keep, axis=0), U_r.take(keep, axis=0)
        # the last step of a start within rounding of the boundary can land
        # a hair below 0; NaN rows stay NaN
        return np.maximum(t, 0.0)

    def _outer_hits(self, P, U):
        """Exits of the unit-direction rays from ``_outer`` along ``+U`` and
        ``-U`` (NaN for a start not inside it); a start with gauge < 0 must
        be inside it."""
        return self._outer.ray_hits_both(P, U)

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


class Ellipse(ConvexDomain):
    """Ellipse with center, semi-axes and rotation; rays solve a quadratic."""

    def __init__(self, center=(0.0, 0.0), semi_axes=(1.0, 1.0), rotation: float = 0.0):
        self.center = as_point(center)
        a, b = float(semi_axes[0]), float(semi_axes[1])
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError("semi-axes must be positive and finite")
        self.semi_axes = (a, b)
        self.rotation = float(rotation)
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        self._rot = np.array([[c, -s], [s, c]])
        # the gauge, gradient and ray paths multiply by the rotation with a
        # C-contiguous right operand: OpenBLAS then rounds a row of
        # (n, 2) @ (2, 2) the same way in a batch as alone, but not with a
        # transposed view (test_row_results_do_not_depend_on_batch_shape)
        self._rot_t = self._rot.T.copy()
        self._inv_axes = np.array([1.0 / a, 1.0 / b])
        self.center.setflags(write=False)

    def _local(self, P: np.ndarray) -> np.ndarray:
        return (P - self.center) @ self._rot * self._inv_axes

    def gauge(self, P) -> np.ndarray:
        Z = self._local(as_points(P))
        return np.einsum("ij,ij->i", Z, Z) - 1.0

    def gauge_and_grad(self, P):
        Z = self._local(as_points(P))
        return np.einsum("ij,ij->i", Z, Z) - 1.0, 2.0 * (Z * self._inv_axes) @ self._rot_t

    def boundary_points(self, ts) -> np.ndarray:
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        local = np.stack([self.semi_axes[0] * np.cos(t), self.semi_axes[1] * np.sin(t)], axis=1)
        return local @ self._rot.T + self.center

    def interior_point(self) -> np.ndarray:
        return self.center

    def bounding_radius(self) -> float:
        return max(self.semi_axes)

    def _unit_ball_areas_exact(self, P):
        return _klein_ball_areas(self.gauge(P), math.pi * self.semi_axes[0] * self.semi_axes[1])

    def ray_hits_both(self, P, V):
        P, U = self._unit_rays(P, V)
        W = (U @ self._rot) * self._inv_axes
        B, C, disc, A = _unit_conic_terms(self._local(P), W, np.einsum("ij,ij->i", W, W))
        return _conic_root(B, C, disc, A), _conic_root(-B, C, disc, A)

    def to_spec(self) -> dict:
        return {
            "type": "ellipse",
            "center": [float(self.center[0]), float(self.center[1])],
            "semi_axes": [self.semi_axes[0], self.semi_axes[1]],
            "rotation": self.rotation,
        }


# the largest p-ball exponent: above it 1/p is below one ulp of 1, the ball
# is the square to double precision, and its chords and deltas are garbage
# (at p = 1e17 the four-point delta reads 2.02, at 1e18 some rays return NaN)
_PBALL_MAX_EXPONENT = 2.0 ** 52


class PBall(ConvexDomain):
    """Superellipse ``|x/s|^p + |y/s|^p < 1`` about a center,
    ``1 <= p <= 2**52``."""

    def __init__(self, p: float, center=(0.0, 0.0), scale: float = 1.0):
        p = float(p)
        if not 1.0 <= p <= _PBALL_MAX_EXPONENT:
            raise ValueError("exponent must be finite, at least 1 and at most 2**52")
        if not 0.0 < scale < math.inf:
            raise ValueError("scale must be positive and finite")
        self.p = p
        self.center = as_point(center)
        self.radius = float(scale)
        self.center.setflags(write=False)
        # p = 1 is the diamond: flat sides, corner points
        self.strictly_convex = p > 1.0

    def gauge(self, P) -> np.ndarray:
        Z = (as_points(P) - self.center) / self.radius
        return np.abs(Z[:, 0]) ** self.p + np.abs(Z[:, 1]) ** self.p - 1.0

    def gauge_and_grad(self, P):
        Z = (as_points(P) - self.center) / self.radius
        A = np.abs(Z)
        # both powers: |Z|^p from |Z|^(p-1) * |Z| would round differently
        g = A[:, 0] ** self.p + A[:, 1] ** self.p - 1.0
        G = A ** (self.p - 1.0)
        # in place, which bounds the batch's memory: sign(Z) is exact, so
        # this rounds as (p / r) * sign(Z) * |Z|^(p-1) does
        G *= np.sign(Z, out=Z)
        G *= self.p / self.radius
        return g, G

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

    def _unit_ball_areas_exact(self, P):
        if self.p != 2.0:
            return None
        return _klein_ball_areas(self.gauge(P), math.pi * self.radius ** 2)

    def ray_hits_both(self, P, V):
        # p = 2 is the disk, whose chords solve a quadratic
        if self.p != 2.0:
            return super().ray_hits_both(P, V)
        P, U = self._unit_rays(P, V)
        B, C, disc, A = _unit_conic_terms((P - self.center) / self.radius, U, 1.0)
        return _conic_root(B, C, disc, A) * self.radius, _conic_root(-B, C, disc, A) * self.radius

    def _outer_hits(self, P, U):
        # from the unit square in the local coordinates the gauge computes:
        # |x|^p + |y|^p - 1 lies in [0, 1] on its boundary for every p, and
        # a start with local gauge < 0 has |x|, |y| < 1, which its exact
        # axis-aligned slacks see the same way; the clip keeps a start far
        # enough out to overflow finite, and outside
        Z = ((P - self.center) / self.radius).clip(-2.0, 2.0)
        t_plus, t_minus = _UNIT_SQUARE.ray_hits_both(Z, U)
        return t_plus * self.radius, t_minus * self.radius

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
    a Hilbert geometry.
    """

    param_period = 1.0
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
        return _dots(self._edge_normals, as_points(P)) - self._edge_offsets[:, None]

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

    def ray_hits_both(self, P, V):
        # along -U every edge's den is exactly -den; the slacks are shared
        P, U = self._unit_rays(P, V)
        D = self._slacks(P)
        den = _dots(self._edge_normals, U)
        inside = D.max(axis=0) < 0.0
        return _polygon_exits(D, den, inside), _polygon_exits(D, -den, inside)

    def _unit_ball_areas_exact(self, P):
        """The Finsler unit ball at p is a centrally symmetric polygon.

        With slacks s_i = c_i - n_i.p > 0 and a_i = n_i / s_i, the norm is
        F(v) = (max_i a_i.v + max_i -a_i.v) / 2, linear between the
        directions +-b_i normal to the edges a_{i+1} - a_i of conv{a_i}, the
        polar of the domain about p, whose vertices are the a_i in edge
        order.  The ball's vertices are b_i / F(b_i): each pair +-b_i is
        folded to an angle in [0, pi) and sorted, which lists half the
        vertices q_0 .. q_{k-1} in order, followed by their negations.
        The area is twice the fan over one half, sum_j cross(q_j, q_{j+1})
        with q_k = -q_0.  The a_i are scaled by the smallest slack r, to
        at most unit length, so that nothing overflows near the boundary;
        the ball then shrinks by r, and its area is rescaled by r^2.
        """
        S = -self._slacks(P)
        r = S.min(axis=0)
        inside = r > 0.0
        # outside rows get unit slacks, any finite value: they are NaN below
        r = np.where(inside, r, 1.0)
        S[:, ~inside] = 1.0
        W = r / S
        ax = self._edge_normals[:, 0, None] * W
        ay = self._edge_normals[:, 1, None] * W
        bx = np.roll(ay, -1, axis=0) - ay
        by = ax - np.roll(ax, -1, axis=0)
        # a straight angle repeats an a_i exactly: its b is then any
        # direction, and the ball's boundary point there adds no area
        bx[(bx == 0.0) & (by == 0.0)] = 1.0
        D = ax[:, None] * bx + ay[:, None] * by
        F = 0.5 * (D.max(axis=0) - D.min(axis=0))
        flip = (by < 0.0) | ((by == 0.0) & (bx < 0.0))
        qx = np.where(flip, -bx, bx) / F
        qy = np.where(flip, -by, by) / F
        # -cos of the folded angle orders [0, pi); correctly rounded
        # operations only, so a row sorts the same in any batch
        order = np.argsort(-qx / np.sqrt(qx * qx + qy * qy), axis=0, kind="stable")
        qx = np.take_along_axis(qx, order, axis=0)
        qy = np.take_along_axis(qy, order, axis=0)
        nx = np.concatenate([qx[1:], -qx[:1]])
        ny = np.concatenate([qy[1:], -qy[:1]])
        return np.where(inside, _edge_sum(qx * ny - qy * nx) * (r * r), np.nan)

    def to_spec(self) -> dict:
        return {"type": "polygon", "vertices": self.vertices.tolist()}


def _polygon_exits(D: np.ndarray, den: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Ray exits from edge slacks ``D`` and edge-direction dots ``den``
    (both ``(k, n)``): the nearest edge the ray approaches; NaN where a start
    is not ``inside``."""
    # the entries masked out (den <= 1e-300) may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(den > 1e-300, -D / den, np.inf)
    t = np.where(t >= 0.0, t, np.inf)
    return np.where(inside, t.min(axis=0), np.nan)


def _edge_sum(A: np.ndarray) -> np.ndarray:
    """Sum of an edge-major ``(k, n)`` array over its edges, in edge order.

    ``A.sum(axis=0)`` adds the rows in this order too, except for a single
    column (n = 1) of eight or more edges, which it sums pairwise: a row's
    value would then depend on the batch it came in.
    """
    out = A[0].copy()
    for row in A[1:]:
        out += row
    return out


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
        if not 0.0 < smoothing < math.inf:
            raise ValueError("smoothing must be positive and finite")
        base = Polygon(vertices)
        # log-sum-exp >= max: the gauge is >= 0 on the polygon itself
        self._poly = self._outer = base
        self.smoothing = float(smoothing)
        self._anchor = base.interior_point()
        if self.gauge1(self._anchor) >= 0.0:
            raise ValueError("smoothing too large: domain is empty at the polygon centroid")

    def _softmax_terms(self, P):
        """The gauge and the edge-major ``(k, n)`` exponentials ``E`` with
        their edge sums ``S``: the softmax weights are ``E / S``."""
        A = self._poly._slacks(P) / self.smoothing
        m = A.max(axis=0)
        E = np.exp(A - m)
        S = _edge_sum(E)
        return self.smoothing * (m + np.log(S)), E, S

    def gauge(self, P) -> np.ndarray:
        return self._softmax_terms(P)[0]

    def gauge_and_grad(self, P):
        g, E, S = self._softmax_terms(P)
        E /= S
        # softmax-weighted edge normals, summed in edge order (no matmul)
        return g, _edge_sum(E[:, None, :] * self._poly._edge_normals[:, :, None]).T

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
        if not 1.0 < alpha < math.inf:
            raise ValueError("exponent must be finite and exceed 1")
        self.alpha = alpha
        self._anchor = np.array([0.0, 0.5])
        self._anchor.setflags(write=False)

    def gauge(self, P) -> np.ndarray:
        Q = as_points(P)
        return np.maximum(np.abs(Q[:, 0]) ** self.alpha - Q[:, 1], Q[:, 1] - 1.0)

    def gauge_and_grad(self, P):
        Q = as_points(P)
        ax = np.abs(Q[:, 0])
        curve, cap = ax ** self.alpha - Q[:, 1], Q[:, 1] - 1.0
        lower = curve >= cap
        gx = np.where(lower, self.alpha * np.sign(Q[:, 0]) * ax ** (self.alpha - 1.0), 0.0)
        gy = np.where(lower, -1.0, 1.0)
        return np.maximum(curve, cap), np.stack([gx, gy], axis=1)

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

    def __init__(self, inner: ConvexDomain, H: ProjectiveMap):
        if isinstance(inner, ProjectiveImage):
            H = H.compose(inner.map)
            inner = inner.inner
        self.inner = inner
        self.map = H
        self._inv = H.inverse()
        M = H.matrix
        B = inner.boundary_samples(_PROPER_SAMPLES)
        hom = np.concatenate([B, np.ones((len(B), 1))], axis=1) @ M.T
        w = hom[:, 2]
        anchor_w = float(M[2, 0] * inner.interior_point()[0] + M[2, 1] * inner.interior_point()[1] + M[2, 2])
        wscale = float(np.max(np.abs(M[2])) * inner.scale())
        # the inverse map gives every image point a pulled-back w of this sign
        self._w_sign = 1.0 if anchor_w > 0 else -1.0
        # the gauge trusts a pull-back only with w this far from 0
        self._gauge_w_min = 1e-12 * max(1.0, float(np.max(np.abs(self._inv.matrix[2]))))
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
        self.strictly_convex = inner.strictly_convex

    def _pull(self, P: np.ndarray, w_min: float = 0.0):
        """Preimages of the rows of ``P`` and a mask of the valid ones.

        A row is valid when its pulled-back w has the anchor's sign and
        exceeds ``w_min`` in size; any other row lies on, near or beyond the
        line the map sends to infinity, and its preimage is reported as the
        inner anchor.
        """
        M = self._inv.matrix
        x, y, w = _dots(M[:, :2], P) + M[:, 2, None]
        ok = self._w_sign * w > w_min
        s = np.where(ok, w, 1.0)
        X = np.stack([x / s, y / s], axis=1)
        X[~ok] = self.inner.interior_point()
        return X, ok

    def gauge(self, P) -> np.ndarray:
        X, ok = self._pull(as_points(P), self._gauge_w_min)
        return np.where(ok, self.inner.gauge(X), 1.0)

    def boundary_points(self, ts) -> np.ndarray:
        return self.map.apply_many(self.inner.boundary_points(ts))

    def boundary_normals(self, B) -> np.ndarray:
        X, _ = self._pull(as_points(B))
        N = self.inner.boundary_normals(X)
        # covector (N, -N.X) times H^{-1}, summed elementwise (see _dots)
        M = self._inv.matrix
        u, v, w = _dots(M[:2].T, N) - M[2, :, None] * np.einsum("ij,ij->i", N, X)
        G = np.stack([u, v], axis=1) / np.hypot(u, v)[:, None]
        # orient outward: positive side away from the anchor
        s = np.sign(u * self._anchor[0] + v * self._anchor[1] + w)
        return G * np.where(s > 0, -1.0, 1.0)[:, None]

    def interior_point(self) -> np.ndarray:
        return self._anchor

    def bounding_radius(self) -> float:
        return self._bounding

    def ray_hits_both(self, P, V):
        P, U = self._unit_rays(P, V)
        # a pulled-back w of the wrong sign puts the start beyond the line
        # sent to infinity: cast that row from the inner anchor, report NaN
        A, ok = self._pull(P)
        # the direction as a point at infinity, pulled back
        wx, wy, ww = _dots(self._inv.matrix[:, :2], U)
        D = np.stack([wx - ww * A[:, 0], wy - ww * A[:, 1]], axis=1)
        dn = np.hypot(D[:, 0], D[:, 1])
        D = D / dn[:, None]
        s_plus, s_minus = self.inner.ray_hits_both(A, D)
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


def _klein_ball_areas(g: np.ndarray, area: float) -> np.ndarray:
    """Unit-ball areas of a conic of the given ``area`` at points whose gauge
    ``g`` is |z|^2 - 1, with z the point in the frame where the conic is the
    unit disk: the Klein model's ball pi (1 - |z|^2)^(3/2), mapped back.
    NaN where ``g >= 0``."""
    s = np.where(g < 0.0, -g, np.nan)
    return area * (s * np.sqrt(s))


def _unit_conic_terms(Z: np.ndarray, W: np.ndarray, A):
    """Terms ``(B, C, disc, A)`` of ``A t^2 + 2 B t + C = 0``, which is
    ``|Z + t W|^2 = 1`` with ``A = |W|^2``.

    ``Z`` are ray starts and ``W`` directions in the frame where the conic is
    the unit circle.  A start with ``|Z| >= 1`` is not interior: its C is
    NaN, which propagates quietly to the roots; every other start has a
    positive discriminant, which needs no clamp.  Along ``-W`` the terms are
    the same with B negated exactly, so one set serves both directions.
    """
    B = np.einsum("ij,ij->i", Z, W)
    C = np.einsum("ij,ij->i", Z, Z) - 1.0
    C = np.where(C < 0.0, C, np.nan)
    disc = np.sqrt(B * B - A * C)
    return B, C, disc, A


def _conic_root(B, C, disc, A) -> np.ndarray:
    """Stable positive root of ``A t^2 + 2 B t + C = 0`` with ``C < 0``."""
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
