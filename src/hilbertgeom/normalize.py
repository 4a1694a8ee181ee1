"""Projective normal form for triangle-pointed domains and boundary graphs.

A pointed domain is a convex body together with a valid ideal triangle.
The normal form sends the vertices to (1,0), (0,1), (1,1) and the
supporting lines at the first two vertices to the coordinate axes.  The
remaining freedom is a single shape parameter: the image of the third
supporting line crosses the axes at (1/alpha, 0) and (0, 1/(1-alpha)).
alpha/(1-alpha) is the Ceva product of the tangency points on the
triangle of supporting lines, so a cyclic relabeling of the vertices keeps
alpha and a transposition replaces it by 1-alpha.  alpha is reported in
(0, 1/2] (up to a 1e-9 tie) by solving the identity labeling and, only if
that gives alpha > 1/2, its mirror.

Boundary graphs describe the boundary near a tangency point as a convex
function over the supporting line, sampled by the domain's own chord cast;
a log-log fit of that function yields the contact exponent that the
regularity bounds consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domains import ConvexDomain, Line2, ProjectiveImage, ProjectiveMap, as_point
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


@dataclass(frozen=True)
class GraphStrip:
    """Convex boundary graph over a tangency frame.

    ``f`` samples the lower boundary height over ``x`` in [-rho, rho]
    (uniform grid); the cap line ``y = s*x + b`` passes through the graph
    endpoints, so the boundary below it is exactly the graph.
    """

    rho: float
    s: float
    b: float
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


def _coerce_frame(frame) -> np.ndarray:
    F = np.asarray(frame, dtype=float)
    if F.shape == (2,):
        x_dir = F / np.hypot(F[0], F[1])
        y_dir = np.array([-x_dir[1], x_dir[0]])
        return np.stack([x_dir, y_dir])
    if F.shape != (2, 2):
        raise ValueError("frame must be a direction vector or a 2x2 rotation")
    if not np.allclose(F @ F.T, np.eye(2), atol=1e-9):
        raise ValueError("frame rows must be orthonormal")
    if np.linalg.det(F) < 0:
        raise ValueError("frame must be right-handed")
    return F


def boundary_graph(
    domain: ConvexDomain,
    point,
    frame,
    rho: float,
    n: int = GRAPH_SAMPLES,
) -> GraphStrip:
    """Sample the boundary as a graph over the supporting line at ``point``.

    ``frame`` gives the supporting-line direction (second row, if a full
    rotation is passed, is the inward normal).  For each grid abscissa the
    boundary height f(x) = inf{y >= 0 : (x, y) in the closure} is the hit of
    the ray cast straight down from an interior point above it
    (:meth:`ConvexDomain.ray_hits_both`), clamped at 0 so that flat boundary
    arcs give a graph that is identically zero.
    """
    p0 = as_point(point)
    R = _coerce_frame(frame)
    sc = domain.scale()
    if abs(domain.gauge1(p0)) > 1e-7 * sc:
        raise PreconditionViolated("tangency point is not on the boundary")
    line = domain.supporting_line(p0)
    normal = np.array([line.u, line.v])  # outward
    if abs(float(R[0] @ normal)) > 1e-6:
        raise PreconditionViolated("frame x-axis is not the supporting line")
    if float(R[1] @ normal) > 0.0:
        raise PreconditionViolated("frame y-axis must point into the domain")
    if not rho > 0:
        raise ValueError("strip half-width must be positive")

    B = domain.boundary_samples(_EXIT_WITNESS_SAMPLES)
    L = (B - p0) @ R.T  # boundary in frame coordinates
    i_left, i_right = int(np.argmin(L[:, 0])), int(np.argmax(L[:, 0]))
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
    f = np.maximum(f, 0.0)

    s = (f[-1] - f[0]) / (2.0 * rho)
    b = float(f[0] + s * rho)
    return GraphStrip(rho=float(rho), s=float(s), b=b, f=f)


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


def _point_rows(v: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rows enforcing H*v parallel to target (cross product is zero)."""
    vh = np.array([v[0], v[1], 1.0])
    rows = np.zeros((3, 9))
    tx, ty, tz = target
    rows[0, 3:6] = tz * vh
    rows[0, 6:9] = -ty * vh
    rows[1, 6:9] = tx * vh
    rows[1, 0:3] = -tz * vh
    rows[2, 0:3] = ty * vh
    rows[2, 3:6] = -tx * vh
    return rows


def _line_rows(ell: np.ndarray, which_row: int) -> np.ndarray:
    """Rows enforcing row ``which_row`` of H parallel to the covector ``ell``.

    The supporting line at the first vertex must map to the x-axis, whose
    covector is e_y; since covectors pull back by H^T, this pins row 1 of H
    to the line's coefficients (row 0 for the y-axis).
    """
    rows = np.zeros((3, 9))
    c = slice(3 * which_row, 3 * which_row + 3)
    rows[0, c] = np.array([0.0, ell[2], -ell[1]])
    rows[1, c] = np.array([-ell[2], 0.0, ell[0]])
    rows[2, c] = np.array([ell[1], -ell[0], 0.0])
    return rows


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


def _candidate(domain: ConvexDomain, V: np.ndarray, lines, perm) -> dict:
    A_rows = []
    for k, idx in enumerate(perm):
        A_rows.append(_point_rows(V[idx], _TARGETS[k]))
    ell_a = np.asarray(lines[perm[0]].as_covector())
    ell_b = np.asarray(lines[perm[1]].as_covector())
    A_rows.append(_line_rows(ell_a, 1))
    A_rows.append(_line_rows(ell_b, 0))
    A = np.concatenate(A_rows)
    _, sv, Vh = np.linalg.svd(A)
    if sv[-2] < 1e-10 * sv[0]:
        raise SingularConstraints("normalization constraints are rank deficient")
    H = Vh[-1].reshape(3, 3)
    M = ProjectiveMap(H)
    image = ProjectiveImage(domain, M)  # may raise ImproperImage

    ell_c = M.push_line(lines[perm[2]])
    denom = ell_c.u + ell_c.v
    if abs(denom) < 1e-300:
        raise SingularConstraints("third supporting line maps through the vertex")
    alpha = float(ell_c.u / denom)
    if not (0.0 < alpha < 1.0):
        raise ImproperImage("shape parameter fell outside (0, 1)")

    mapped = M.apply_many(V[list(perm)])
    vertex_res = float(np.max(np.abs(mapped - _TARGETS[:, :2])))
    res_a = _aligned_line_residual(M.push_line(lines[perm[0]]), np.array([0.0, 1.0, 0.0]))
    res_b = _aligned_line_residual(M.push_line(lines[perm[1]]), np.array([1.0, 0.0, 0.0]))
    res_c = abs(ell_c.u * 1.0 + ell_c.v * 1.0 + ell_c.w)
    return {
        "H": H,
        "image": image,
        "alpha": alpha,
        "vertex_res": vertex_res,
        "tangency_res": max(res_a, res_b, float(res_c)),
        "perm": perm,
    }


def normalize_triangle_pointed(domain: ConvexDomain, T: IdealTriangle) -> NormalizationResult:
    """Normal form of (domain, ideal triangle) with minimal shape parameter.

    alpha/(1-alpha) is the Ceva product of the three tangency points on the
    triangle of supporting lines.  A cyclic relabeling of the vertices keeps
    that product and a transposition inverts it, so the six labelings give
    only alpha and 1-alpha: solving the identity labeling and, when its
    alpha exceeds 1-alpha by more than 1e-9, the mirror labeling (0, 2, 1)
    covers them all.  The tie rule keeps the identity for alpha up to
    1/2 + 1e-9/2, which makes normalizing an already-normalized
    configuration return the identity.  ``ImproperImage`` and
    ``SingularConstraints`` from the solve propagate.
    """
    if not T.validity:
        raise InvalidTriangle(T.invalid_reason or "invalid ideal triangle")
    V = T.vertices()
    lines = [domain.supporting_line(v) for v in V]
    chosen = _candidate(domain, V, lines, (0, 1, 2))
    if chosen["alpha"] > (1.0 - chosen["alpha"]) + _ALPHA_TIE:
        chosen = _candidate(domain, V, lines, (0, 2, 1))
    H = chosen["H"]
    # fix the overall scale for readability: unit largest entry, positive
    pivot = np.unravel_index(np.argmax(np.abs(H)), H.shape)
    H = H / H[pivot]
    return NormalizationResult(
        matrix=H,
        domain=chosen["image"],
        alpha=chosen["alpha"],
        vertex_residual=chosen["vertex_res"],
        tangency_residual=chosen["tangency_res"],
        permutation=chosen["perm"],
        e_report=chosen["alpha"],
    )


def normalize_many(domain_triangle_pairs) -> list:
    """Normalize a batch; every result's e_report is the batch minimum."""
    results = [normalize_triangle_pointed(dom, T) for dom, T in domain_triangle_pairs]
    if not results:
        return []
    floor = min(r.alpha for r in results)
    return [replace(r, e_report=floor) for r in results]
