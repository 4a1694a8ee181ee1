"""Quasi-symmetric convexity constants and the Hölder inequality chain.

A convex function f on [-2a, 2a] with f(0) = 0 describes a boundary arc
over its supporting line.  Quasi-symmetry of its increments (constant K)
and of its convexity remainders (constant H) control the contact order:
from H the chain

    H2 = (4 H (H + 1))^((1 + a) / a),   alpha = 1 + log2(1 + 1/H2)

produces an exponent alpha > 1 with f(x) <= 160 (H2 + 1) M(f) |x|^alpha,
and the derivative is (alpha - 1)-Hölder with constant 160 (1 + K) ||f||.
Everything here is brute force: sups over all admissible grid pairs, with
degenerate ratios resolved by convention (0/0 -> 1, positive/0 -> inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import as_point
from .errors import InsufficientSignal, NotConvex, PreconditionViolated
from .normalize import boundary_graph

GRID_SIZE = 1025
MIN_GRID = 65
_RATIO_EPS = 1e-14
_CONVEXITY_TOL = 1e-12
MARGIN_TOL = -1e-9


@dataclass(frozen=True)
class SampledFunction:
    """Function sampled on a uniform symmetric grid over [-2a, 2a].

    ``derivative`` is optional; ``with_central_derivative`` fills it by
    central differences (one-sided at the interval ends).  Grid length must
    be at least 65 and hit the quarter points exactly, so f(±a) are grid
    values rather than interpolations.
    """

    a: float
    values: np.ndarray
    derivative: np.ndarray = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < MIN_GRID:
            raise ValueError(f"grid must hold at least {MIN_GRID} samples")
        if (len(v) - 1) % 4 != 0:
            raise ValueError("grid length must be 4k+1 so x = ±a are grid points")
        if not 0.0 < self.a < math.inf:
            raise ValueError("half-width a must be positive and finite")
        if not np.all(np.isfinite(v)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", v)
        if self.derivative is not None:
            d = np.asarray(self.derivative, dtype=float)
            if d.shape != v.shape:
                raise ValueError("derivative grid must match the value grid")
            if not np.all(np.isfinite(d)):
                raise ValueError("sampled derivative must be finite")
            object.__setattr__(self, "derivative", d)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-2.0 * self.a, 2.0 * self.a, len(self.values))

    @property
    def step(self) -> float:
        return 4.0 * self.a / (len(self.values) - 1)

    @staticmethod
    def from_callable(fn, a: float, n: int = GRID_SIZE, derivative=None) -> "SampledFunction":
        x = np.linspace(-2.0 * a, 2.0 * a, n)
        f = np.asarray([fn(t) for t in x], dtype=float)
        d = None
        if derivative is not None:
            d = np.asarray([derivative(t) for t in x], dtype=float)
        return SampledFunction(a=a, values=f, derivative=d)

    def with_central_derivative(self) -> "SampledFunction":
        v = self.values
        d = np.gradient(v, self.step)
        return SampledFunction(a=self.a, values=v, derivative=d)

    def convexity_defect(self) -> float:
        v = self.values
        return float(np.max(2.0 * v[1:-1] - v[:-2] - v[2:], initial=0.0))

    def require_convex(self):
        tol = _CONVEXITY_TOL * max(1.0, float(np.max(np.abs(self.values))))
        if self.convexity_defect() > tol:
            raise NotConvex("sampled function fails the midpoint convexity test")


def _pair_sup(num: np.ndarray, den: np.ndarray) -> float:
    """Sup of num/den over one shift, both increment directions, with the
    degenerate conventions (both tiny -> 1, tiny denominator -> inf).

    Per pair the larger of num/den and den/num is big/small, so one
    division per pair covers both directions."""
    big, small = np.maximum(num, den), np.minimum(num, den)
    ok = small >= _RATIO_EPS
    if np.any(~ok & (big >= _RATIO_EPS)):
        return math.inf
    return float(np.max(big[ok] / small[ok], initial=1.0))


def qs_constant(f: SampledFunction) -> float:
    """Quasi-symmetry constant: sup |f(x+h)-f(x)| / |f(x)-f(x-h)|.

    Exhaustive over all grid pairs (x, h) with x ± h in range, h of either
    sign.  Always at least 1 because each pair is admissible with h negated.
    """
    v = f.values
    n = len(v)
    best = 1.0
    for j in range(1, (n - 1) // 2 + 1):
        seg = v[j:n - j]
        num = np.abs(v[2 * j:] - seg)
        den = np.abs(seg - v[: n - 2 * j])
        best = max(best, _pair_sup(num, den))
        if best == math.inf:
            return math.inf
    return best


def qsc_constant(f: SampledFunction) -> float:
    """Quasi-symmetric convexity constant over the remainders
    D_x(h) = f(x+h) - f(x) - f'(x) h."""
    if f.derivative is None:
        raise ValueError("qsc_constant needs derivative samples")
    f.require_convex()
    v, d = f.values, f.derivative
    n = len(v)
    step = f.step
    best = 1.0
    for j in range(1, (n - 1) // 2 + 1):
        h = j * step
        mid = slice(j, n - j)
        d_plus = v[2 * j:] - v[mid] - d[mid] * h
        d_minus = v[: n - 2 * j] - v[mid] + d[mid] * h
        best = max(best, _pair_sup(np.maximum(d_plus, 0.0), np.maximum(d_minus, 0.0)))
        if best == math.inf:
            return math.inf
    return best


def chain_constants(H: float, a: float) -> tuple:
    """(H2, alpha) of the constant chain for quasi-symmetry constant H."""
    if H < 1.0 or not np.isfinite(H):
        raise ValueError("quasi-symmetry constant must be finite and >= 1")
    if not 0.0 < a < math.inf:
        raise ValueError("half-width a must be positive and finite")
    H2 = (4.0 * H * (H + 1.0)) ** ((1.0 + a) / a)
    alpha = 1.0 + math.log1p(1.0 / H2) / math.log(2.0)
    return H2, alpha


@dataclass(frozen=True)
class RegularityReport:
    """Constant chain and bound margin for one convex boundary function."""

    H: float
    H2: float
    alpha: float
    M: float
    bound_margin: float
    non_strictly_convex: bool = False

    def to_jsonable(self) -> dict:
        return {
            "H": self.H,
            "H2": self.H2,
            "alpha": self.alpha,
            "M": self.M,
            "bound_margin": self.bound_margin,
            "non_strictly_convex": self.non_strictly_convex,
        }


def holder_bound_check(f: SampledFunction, H: float = None) -> RegularityReport:
    """Check f(x) <= 160 (H2 + 1) M(f) |x|^alpha on the sample's [-a, a].

    ``H`` defaults to the measured quasi-symmetric convexity constant (the
    function must then carry derivatives); M(f) = max(f(-a), f(a)).
    """
    v = f.values
    a = f.a
    n = len(v)
    center = (n - 1) // 2
    if abs(v[center]) > 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise PreconditionViolated("f(0) must vanish")
    if np.min(v) < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise PreconditionViolated("f must be nonnegative")
    if H is None:
        H = qsc_constant(f if f.derivative is not None else f.with_central_derivative())
    quarter = (n - 1) // 4
    M = max(float(v[quarter]), float(v[3 * quarter]))
    H2, alpha = chain_constants(H, a)
    x = f.x
    inner = (np.abs(x) <= a) & (np.abs(x) > 0)
    bound = 160.0 * (H2 + 1.0) * M * np.abs(x[inner]) ** alpha
    margin = float(np.min(bound - v[inner]))
    return RegularityReport(H=H, H2=H2, alpha=alpha, M=M, bound_margin=margin)


@dataclass(frozen=True)
class DerivativeHolderResult:
    passed: bool
    margin: float
    alpha: float


def derivative_holder_check(f: SampledFunction) -> DerivativeHolderResult:
    """Check |f'(x) - f'(y)| <= 160 (1 + K) ||f|| |x - y|^(alpha - 1).

    ``K`` is the measured quasi-symmetry constant of f' (monotone for convex
    f, so its increment ratios are well behaved).  The check runs over every
    grid pair; the reported margin is the worst slack (bound minus left
    side).
    """
    g = f if f.derivative is not None else f.with_central_derivative()
    g.require_convex()
    K = qs_constant(SampledFunction(a=g.a, values=g.derivative))  # at least 1
    if not np.isfinite(K):
        raise ValueError("quasi-symmetry constant must be finite")
    alpha = 1.0 + math.log2(1.0 + 1.0 / K)
    sup_f = float(np.max(np.abs(g.values)))
    C = 160.0 * (1.0 + K) * sup_f
    d = g.derivative
    n = len(d)
    step = g.step
    margin = math.inf
    for j in range(1, n):
        lhs = float(np.max(np.abs(d[j:] - d[:-j])))
        margin = min(margin, C * (j * step) ** (alpha - 1.0) - lhs)
    return DerivativeHolderResult(passed=margin >= MARGIN_TOL, margin=float(margin), alpha=alpha)


def boundary_regularity_report(domain, point, rho: float = None, n: int = GRID_SIZE) -> RegularityReport:
    """Full constant chain for the boundary graph at a tangency point.

    Extracts the graph over the supporting line (frame chosen from the
    outward normal), measures H on it, and runs the Hölder bound check.
    A flat graph (polygon edge) yields the degenerate chain with the
    ``non_strictly_convex`` flag set.
    """
    p0 = as_point(point)
    line = domain.supporting_line(p0)
    x_dir = np.array([-line.v, line.u])
    frame = np.stack([x_dir, np.array([-line.u, -line.v])])
    if rho is None:
        # stay in the near-tangency regime: wide strips mix in curvature
        # variation and inflate H even for the circle
        B = (domain.boundary_samples(1024) - p0) @ frame.T
        rho = 0.25 * min(-float(np.min(B[:, 0])), float(np.max(B[:, 0])))
        if rho <= 0:
            raise InsufficientSignal("no strip width available at this point")
    strip = boundary_graph(domain, p0, frame, rho, n=n)
    a = rho / 2.0
    f = SampledFunction(a=a, values=strip.f).with_central_derivative()
    flat = float(np.max(strip.f)) < 1e-13
    if flat:
        H = 1.0
        H2, alpha = chain_constants(H, a)
        return RegularityReport(H=H, H2=H2, alpha=alpha, M=0.0,
                                bound_margin=0.0, non_strictly_convex=True)
    H = qsc_constant(f)
    if not np.isfinite(H):
        return RegularityReport(H=math.inf, H2=math.inf, alpha=1.0,
                                M=float(max(strip.f[(n - 1) // 4], strip.f[3 * ((n - 1) // 4)])),
                                bound_margin=-math.inf, non_strictly_convex=True)
    return holder_bound_check(f, H=H)
