"""Projective normal form for triangle-pointed domains and boundary graphs.

A pointed domain is a convex body together with a valid ideal triangle.
The normal form sends the vertices to (1,0), (0,1), (1,1) and the
supporting lines at the first two vertices to the coordinate axes.  The
remaining freedom is a single shape parameter: the image of the third
supporting line crosses the axes at (1/alpha, 0) and (0, 1/(1-alpha)).
alpha/(1-alpha) is the Ceva product kappa of the tangency points on the
triangle of supporting lines, so a cyclic relabeling of the vertices keeps
alpha and a transposition replaces it by 1-alpha.  The map is written down
from the incidences of vertices and supporting lines, no solve, and kappa
of the identity labeling picks that labeling or its mirror first, so that
alpha is reported in (0, 1/2] (up to a 1e-9 tie).

Boundary graphs describe the boundary near a tangency point as a convex
function over the supporting line, sampled by the domain's own chord cast;
a log-log fit of that function yields the contact exponent that the
regularity bounds consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domains import ConvexDomain, Line2, ProjectiveImage, ProjectiveMap, _require_on_boundary, as_point
from .errors import (
    ImproperImage,
    InsufficientSignal,
    InvalidTriangle,
    PreconditionViolated,
    SingularConstraints,
    StripTooWide,
)
from .triangles import IdealTriangle

GRAPH_SAMPLES = 4097
_EXIT_WITNESS_SAMPLES = 1024
FIT_DEAD_ZONE = 0.01  # fraction of rho excluded around the tangency
FIT_WINDOW = 1.0 / 3.0  # fraction of rho used by the exponent fit
_MIN_FIT_POINTS = 8
_SIGNAL_FLOOR = 1e-13
_ALPHA_TIE = 1e-9
_SINGULAR_FLOOR = 1e-12  # incidences relative to the domain's scale


@dataclass(frozen=True)
class GraphStrip:
    """Convex boundary graph over the supporting line at a tangency point.

    ``f`` samples the boundary height above that line over ``x`` in
    [-rho, rho] (uniform grid); the boundary below the chord through the
    graph endpoints (-rho, f[0]) and (rho, f[-1]) is exactly the graph.
    """

    rho: float
    f: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.rho, self.rho, len(self.f))

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 1 or len(f) < 3:
            raise ValueError("graph needs a one-dimensional sample array")
        if not self.rho > 0:
            raise ValueError("strip half-width must be positive")
        object.__setattr__(self, "f", f)


def _tangent_frame(domain: ConvexDomain, p0: np.ndarray) -> tuple:
    """Frame of the supporting line (u, v, w) at the boundary point ``p0``:
    rows (-v, u), the tangent, and (-u, -v), the inward normal.  Returns it
    with the domain's exit-witness boundary samples in frame coordinates."""
    line = domain.supporting_line(p0)
    R = np.array([[-line.v, line.u], [-line.u, -line.v]])
    return R, (domain.boundary_samples(_EXIT_WITNESS_SAMPLES) - p0) @ R.T


def boundary_graph(domain: ConvexDomain, point, rho: float, n: int = GRAPH_SAMPLES) -> GraphStrip:
    """Sample the boundary as a graph over the supporting line at ``point``.

    The frame is the point's own (:func:`_tangent_frame`): x along the
    supporting line, y along the inward normal.  For each grid abscissa the
    boundary height f(x) = inf{y >= 0 : (x, y) in the closure} is the hit of
    the ray cast straight down from an interior point above it
    (:meth:`ConvexDomain.ray_hits_both`), clamped at 0 so that flat boundary
    arcs give a graph that is identically zero.
    """
    p0 = as_point(point)
    sc = domain.scale()
    _require_on_boundary(domain, p0[None, :], "tangency point")
    if not rho > 0:
        raise ValueError("strip half-width must be positive")

    R, L = _tangent_frame(domain, p0)
    # the extreme samples along the tangent; of tied ones (a side parallel
    # to the normal) the one nearest the supporting line, so that the chord
    # between them runs over the strip, not along the far side
    i_left = int(np.lexsort((L[:, 1], L[:, 0]))[0])
    i_right = int(np.lexsort((L[:, 1], -L[:, 0]))[0])
    if L[i_left, 0] >= -rho or L[i_right, 0] <= rho:
        raise StripTooWide("domain does not cross the strip on both sides")
    PL, PR = L[i_left], L[i_right]

    xs = np.linspace(-rho, rho, n)
    lam = (xs - PL[0]) / (PR[0] - PL[0])
    y_mid = PL[1] + lam * (PR[1] - PL[1])  # chord between exit witnesses
    nudge = 1e-7 * sc
    world = lambda x, y: p0 + np.stack([x, y], axis=-1) @ R

    y_hi = y_mid + nudge
    inside = domain.gauge(world(xs, y_hi)) < 0.0
    if not np.all(inside):
        y_hi = np.where(inside, y_hi, y_mid + 10.0 * nudge)
        if not np.all(domain.gauge(world(xs, y_hi)) < 0.0):
            raise PreconditionViolated("could not find interior points over the strip")
    # cast straight down (-y in the frame) from each interior start
    t = domain.ray_hits_both(world(xs, y_hi), np.broadcast_to(-R[1], (n, 2)))[0]
    f = y_hi - t
    if np.any(f < -1e-9 * sc):
        raise PreconditionViolated("domain extends below the supporting line")
    return GraphStrip(rho=float(rho), f=np.maximum(f, 0.0))


class AlphaFit(NamedTuple):
    """Log-log power fit f(x) ~ mu * |x|^alpha with its RMS residual."""

    mu_hat: float
    alpha_hat: float
    residual: float


def graph_alpha_fit(strip: GraphStrip) -> AlphaFit:
    """Contact exponent of a boundary graph near its tangency point.

    Least squares on ln f against ln |x| over |x| in [rho/100, rho/3];
    raises ``InsufficientSignal`` when the graph is too flat there (a flat
    boundary arc carries no exponent information).
    """
    x = strip.x
    f = strip.f
    window = (np.abs(x) >= strip.rho * FIT_DEAD_ZONE) & (np.abs(x) <= strip.rho * FIT_WINDOW)
    usable = window & (f > _SIGNAL_FLOOR)
    if int(usable.sum()) < _MIN_FIT_POINTS:
        raise InsufficientSignal("boundary graph is flat on the fit window")
    lx = np.log(np.abs(x[usable]))
    lf = np.log(f[usable])
    A = np.stack([np.ones_like(lx), lx], axis=1)
    coef, *_ = np.linalg.lstsq(A, lf, rcond=None)
    resid = lf - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return AlphaFit(mu_hat=float(np.exp(coef[0])), alpha_hat=float(coef[1]), residual=rms)


# ---------------------------------------------------------------------------
# triangle-pointed normal form

_TARGETS = np.array(
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
)  # homogeneous images of the three vertices
_OFF_DIAGONAL = ~np.eye(3, dtype=bool)


@dataclass(frozen=True)
class NormalizationResult:
    """Projective normal form of a triangle-pointed convex domain."""

    matrix: np.ndarray
    domain: ProjectiveImage
    alpha: float
    vertex_residual: float
    tangency_residual: float
    permutation: tuple
    e_report: float

    def to_jsonable(self) -> dict:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "alpha": self.alpha,
            "vertex_residual": self.vertex_residual,
            "tangency_residual": self.tangency_residual,
            "permutation": list(self.permutation),
            "e_report": self.e_report,
        }


def _aligned_line_residual(line: Line2, target: np.ndarray) -> float:
    ell = np.array([line.u, line.v, line.w])
    # match orientation before comparing; a supporting line is only defined
    # up to overall sign once it leaves the producing domain
    sign = np.sign(ell @ target) or 1.0
    return float(np.max(np.abs(sign * ell - target)))


def _incidences(domain: ConvexDomain, V: np.ndarray, lines, perm):
    """Homogeneous vertices A, supporting covectors L, incidences
    E[i, j] = L[i] . A[j], n = A[0] x A[1] and alpha in the labeling
    ``perm``; see :func:`_candidate`."""
    A = np.concatenate([V[list(perm)], np.ones((3, 1))], axis=1)
    L = np.array([lines[i].as_covector() for i in perm])
    E, n = L @ A.T, np.cross(A[0], A[1])
    floor = _SINGULAR_FLOOR * domain.scale()
    if np.min(np.abs(E[_OFF_DIAGONAL])) < floor or abs(n @ A[2]) < floor * domain.scale():
        raise SingularConstraints("a vertex lies on another's supporting line, or on the line of the other two")
    kappa = float(E[0, 2] * E[1, 0] * E[2, 1] / (E[0, 1] * E[1, 2] * E[2, 0]))
    return A, L, E, n, (kappa / (1.0 + kappa) if kappa > 0.0 else np.nan)


def _candidate(domain: ConvexDomain, V: np.ndarray, lines, perm) -> NormalizationResult:
    """Normal form for the labeling ``perm``, written down in closed form.

    E[i, j] is the signed distance from vertex j to the supporting line at
    vertex i.  The rows H[0] = L[1] / E[1, 2], H[1] = L[0] / E[0, 2] and
    H[2] = H[0] + H[1] - n / (n . A[2]) send the vertices to (1,0), (0,1),
    (1,1) and pull the axes back to the first two supporting lines.  The
    third line's image then has alpha = kappa / (1 + kappa), with kappa the
    Ceva product E[0,2] E[1,0] E[2,1] / (E[0,1] E[1,2] E[2,0]).  The
    residuals measure these incidences through the map.
    ``SingularConstraints`` when an off-diagonal |E| is below 1e-12 times
    the domain's scale, or |n . A[2]| below 1e-12 times its square;
    ``ImproperImage`` from the image or for alpha outside (0, 1).
    """
    A, L, E, n, alpha = _incidences(domain, V, lines, perm)
    if not 0.0 < alpha < 1.0:
        raise ImproperImage("shape parameter fell outside (0, 1)")
    H = np.stack([L[1] / E[1, 2], L[0] / E[0, 2], np.zeros(3)])
    H[2] = H[0] + H[1] - n / (n @ A[2])
    # fix the overall scale for readability: unit largest entry, positive
    H = H / H[np.unravel_index(np.argmax(np.abs(H)), H.shape)]
    M = ProjectiveMap(H)
    image = ProjectiveImage(domain, M)  # may raise ImproperImage

    vertex_res = float(np.max(np.abs(M.apply_many(A[:, :2]) - _TARGETS[:, :2])))
    res_a = _aligned_line_residual(M.push_line(lines[perm[0]]), np.array([0.0, 1.0, 0.0]))
    res_b = _aligned_line_residual(M.push_line(lines[perm[1]]), np.array([1.0, 0.0, 0.0]))
    ell_c = M.push_line(lines[perm[2]])
    return NormalizationResult(
        matrix=H,
        domain=image,
        alpha=alpha,
        vertex_residual=vertex_res,
        tangency_residual=max(res_a, res_b, float(abs(ell_c.u + ell_c.v + ell_c.w))),
        permutation=perm,
        e_report=alpha,
    )


def normalize_triangle_pointed(domain: ConvexDomain, T: IdealTriangle) -> NormalizationResult:
    """Normal form of (domain, ideal triangle) with minimal shape parameter.

    A cyclic relabeling of the vertices keeps the Ceva product kappa and a
    transposition inverts it, so the six labelings give only alpha and
    1-alpha.  kappa of the identity labeling picks the labeling before any
    map is built: the identity, or the mirror (0, 2, 1) when the identity's
    alpha exceeds 1-alpha by more than 1e-9.  The tie rule keeps the
    identity for alpha up to 1/2 + 1e-9/2, which makes normalizing an
    already-normalized configuration return the identity.
    ``ImproperImage`` and ``SingularConstraints`` from :func:`_candidate`
    propagate.
    """
    if not T.validity:
        raise InvalidTriangle(T.invalid_reason or "invalid ideal triangle")
    V = T.vertices()
    lines = [domain.supporting_line(v) for v in V]
    alpha = _incidences(domain, V, lines, (0, 1, 2))[-1]
    return _candidate(domain, V, lines, (0, 2, 1) if alpha > (1.0 - alpha) + _ALPHA_TIE else (0, 1, 2))


def normalize_many(domain_triangle_pairs) -> list:
    """Normalize a batch; every result's e_report is the batch minimum."""
    results = [normalize_triangle_pointed(dom, T) for dom, T in domain_triangle_pairs]
    if not results:
        return []
    floor = min(r.alpha for r in results)
    return [replace(r, e_report=floor) for r in results]
