import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import regularity
from hilbertgeom.domains import PBall, Polygon, regular_polygon, unit_disk
from hilbertgeom.errors import NotConvex, PreconditionViolated
from hilbertgeom.normalize import boundary_graph
from hilbertgeom.regularity import (
    SampledFunction,
    boundary_regularity_report,
    chain_constants,
    derivative_holder_check,
    holder_bound_check,
    qs_constant,
    qsc_constant,
)

# frozen oracle values
QSC_ABS15 = 2.5513875243915503
CHAIN_1_1 = (64.0, 1.0223678130284546)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _abs15(n=1025):
    return SampledFunction.from_callable(
        lambda t: abs(t) ** 1.5, a=1.0, n=n, derivative=lambda t: 1.5 * abs(t) ** 0.5 * np.sign(t)
    )


def _square_fn(n=1025, a=1.0):
    return SampledFunction.from_callable(lambda t: t * t, a=a, n=n, derivative=lambda t: 2.0 * t)


def test_sampled_function_grid_validation():
    with pytest.raises(ValueError):
        SampledFunction(a=1.0, values=np.zeros(16))
    with pytest.raises(ValueError):
        SampledFunction(a=1.0, values=np.zeros(66))  # (n-1) % 4 != 0
    with pytest.raises(ValueError):
        SampledFunction(a=-1.0, values=np.zeros(65))
    f = _square_fn()
    assert f.x[0] == -2.0 and f.x[-1] == 2.0  # grid spans [-2a, 2a]


def test_qs_exponential_is_exphmax():
    # for f = e^x the increment ratio is exactly e^h, so the sup over the
    # grid is e^(2a); with a = 1/2 that is Euler's number itself
    half = SampledFunction.from_callable(math.exp, a=0.5)
    assert qs_constant(half) == pytest.approx(math.e, rel=1e-12)
    one = SampledFunction.from_callable(math.exp, a=1.0)
    assert qs_constant(one) == pytest.approx(math.e**2, rel=1e-12)


def test_qs_parabola_is_infinite_at_both_grids():
    # f(x) = x^2 has exact zero denominators at h = 2x; the convention maps
    # those to infinity, and refinement agrees with itself
    assert qs_constant(_square_fn(1025)) == math.inf
    assert qs_constant(_square_fn(2049)) == math.inf


def test_qs_affine_is_one():
    f = SampledFunction.from_callable(lambda t: 3.0 * t + 2.0, a=1.0)
    assert qs_constant(f) == 1.0


def test_qsc_oracles():
    assert qsc_constant(_square_fn()) == 1.0
    linear = SampledFunction.from_callable(lambda t: 2.0 * t, a=1.0, derivative=lambda t: 2.0)
    assert qsc_constant(linear) == 1.0
    assert qsc_constant(_abs15(1025)) == pytest.approx(QSC_ABS15, rel=1e-12)
    # grid refinement moves the measured constant by well under the 2% the
    # downstream chain tolerates
    fine = qsc_constant(_abs15(2049))
    assert abs(fine - QSC_ABS15) / QSC_ABS15 <= 0.02


def test_qsc_requires_derivative_and_convexity():
    no_d = SampledFunction.from_callable(lambda t: t * t, a=1.0)
    with pytest.raises(ValueError):
        qsc_constant(no_d)
    concave = SampledFunction.from_callable(lambda t: -t * t, a=1.0, derivative=lambda t: -2.0 * t)
    with pytest.raises(NotConvex):
        qsc_constant(concave)


def test_qsc_affine_invariance():
    f = _abs15()
    g = SampledFunction(a=f.a, values=f.values + 0.7 + 0.3 * f.x, derivative=f.derivative + 0.3)
    assert abs(qsc_constant(g) - qsc_constant(f)) <= 1e-12


def test_scale_invariance_on_sample_arrays():
    f = _abs15()
    c = 7.3
    scaled = SampledFunction(a=f.a, values=c * f.values, derivative=c * f.derivative)
    assert abs(qsc_constant(scaled) - qsc_constant(f)) <= 1e-12
    g = SampledFunction.from_callable(math.exp, a=0.5)
    g_scaled = SampledFunction(a=g.a, values=c * g.values)
    assert abs(qs_constant(g_scaled) - qs_constant(g)) <= 1e-12


def test_chain_constants_identities():
    assert chain_constants(1.0, 1.0) == CHAIN_1_1
    for H, a in ((1.0, 1.0), (2.5, 1.0), (4.0, 0.4), (10.0, 2.0)):
        H2, alpha = chain_constants(H, a)
        assert H2 == (4.0 * H * (H + 1.0)) ** ((1.0 + a) / a)
        assert alpha == 1.0 + math.log1p(1.0 / H2) / math.log(2.0)
        assert alpha > 1.0
    # more symmetric functions give smaller H2 and larger alpha
    h2_small, alpha_small = chain_constants(1.0, 1.0)
    h2_big, alpha_big = chain_constants(5.0, 1.0)
    assert h2_small < h2_big
    assert alpha_small > alpha_big


def test_holder_bound_check_corpus():
    for f in (_square_fn(), _abs15()):
        rep = holder_bound_check(f)
        assert rep.bound_margin >= -1e-9
        assert rep.alpha > 1.0
        assert rep.M > 0.0
        assert not rep.non_strictly_convex


def test_holder_bound_check_preconditions():
    shifted = SampledFunction.from_callable(lambda t: t * t + 1.0, a=1.0, derivative=lambda t: 2.0 * t)
    with pytest.raises(PreconditionViolated):
        holder_bound_check(shifted)
    negative = SampledFunction.from_callable(lambda t: t, a=1.0, derivative=lambda t: 1.0)
    with pytest.raises(PreconditionViolated):
        holder_bound_check(negative)


def test_derivative_holder_check_parabola():
    # f' = 2x is linear, so its own quasi-symmetry constant is 1 and the
    # remainder exponent comes out as 2
    res = derivative_holder_check(_square_fn())
    assert res.passed
    assert res.margin >= -1e-9
    assert res.alpha > 1.0


def test_boundary_regularity_report_disk():
    rep = boundary_regularity_report(unit_disk(), [0.0, -1.0])
    assert rep.H <= 1.1  # the circle is symmetric
    assert rep.bound_margin >= -1e-9
    assert not rep.non_strictly_convex
    blob = rep.to_jsonable()
    assert set(blob) == {"H", "H2", "alpha", "M", "bound_margin", "non_strictly_convex"}


def test_boundary_regularity_report_quartic():
    rep = boundary_regularity_report(PBall(4.0), [0.0, -1.0])
    assert rep.bound_margin >= -1e-9
    # H2 is astronomically large here, so 1 + log1p(1/H2)/log 2 rounds to
    # exactly 1.0 in double precision; strict alpha > 1 is only observable
    # for moderate H2
    assert rep.alpha >= 1.0
    assert np.isfinite(rep.H2)


def test_boundary_regularity_report_flat_edge():
    rep = boundary_regularity_report(Polygon(SQUARE), [0.5, 0.0])
    assert rep.non_strictly_convex
    assert rep.M == 0.0


@settings(max_examples=25, deadline=None)
@given(
    c2=st.floats(min_value=0.1, max_value=5.0),
    c4=st.floats(min_value=0.0, max_value=5.0),
)
def test_convex_even_polynomials_pass_chain(c2, c4):
    f = SampledFunction.from_callable(
        lambda t: c2 * t * t + c4 * t**4,
        a=1.0,
        derivative=lambda t: 2.0 * c2 * t + 4.0 * c4 * t**3,
    )
    H = qsc_constant(f)
    assert 1.0 <= H < math.inf
    rep = holder_bound_check(f, H=H)
    assert rep.bound_margin >= -1e-9


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_half_width_must_be_positive_and_finite(a):
    with pytest.raises(ValueError, match="half-width"):
        SampledFunction(a=a, values=np.zeros(65))
    with pytest.raises(ValueError, match="half-width"):
        chain_constants(2.0, a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["values", "derivative"])
def test_sampled_function_rejects_non_finite_samples(field, bad):
    f = _square_fn()
    samples = {"values": f.values.copy(), "derivative": f.derivative.copy()}
    samples[field][len(f.values) // 2 + 3] = bad  # inside [-a, a]
    with pytest.raises(ValueError, match=f"sampled {field} must be finite"):
        SampledFunction(a=f.a, **samples)


def _two_direction_pair_sup(num, den):
    """Reference: divide each direction separately, as the constants are
    defined."""
    best = 1.0
    for top, bot in ((num, den), (den, num)):
        if np.any((bot < 1e-14) & (top >= 1e-14)):
            return math.inf
        ok = bot >= 1e-14
        if np.any(ok):
            best = max(best, float(np.max(top[ok] / bot[ok])))
    return best


def _pair_sup_corpus():
    rng = np.random.default_rng(8)
    fns = [
        _abs15(),
        _square_fn(),
        _square_fn(129, a=0.3),
        SampledFunction.from_callable(math.exp, a=0.5, derivative=math.exp),
        SampledFunction.from_callable(lambda t: 3.0 * t + 2.0, a=1.0, derivative=lambda t: 3.0),
        SampledFunction.from_callable(lambda t: max(t - 0.3, 0.0), a=1.0, derivative=lambda t: float(t > 0.3)),
        SampledFunction.from_callable(abs, a=0.7, n=257, derivative=np.sign),
    ]
    for _ in range(4):
        slopes = np.cumsum(rng.exponential(1.0, 256))
        values = np.concatenate([[0.0], np.cumsum(slopes)])
        fns.append(SampledFunction(a=float(rng.uniform(0.1, 2.0)), values=values).with_central_derivative())
    # boundary graphs: round, quartic, a flat polygon edge, and an edge with a corner
    for dom, point, rho in (
        (unit_disk(), [0.0, -1.0], 0.5),
        (PBall(4.0), [0.0, -1.0], 0.5),
        (Polygon(SQUARE), [0.5, 0.0], 0.3),
        (regular_polygon(6), [0.3, -0.75 ** 0.5], 0.3),
    ):
        strip = boundary_graph(dom, point, [1.0, 0.0], rho, n=257)
        fns.append(SampledFunction(a=rho / 2.0, values=strip.f).with_central_derivative())
    return fns


def test_one_ratio_per_pair_matches_two_directions(monkeypatch):
    corpus = _pair_sup_corpus()
    got = [(qs_constant(f), qsc_constant(f)) for f in corpus]
    monkeypatch.setattr(regularity, "_pair_sup", _two_direction_pair_sup)
    ref = [(qs_constant(f), qsc_constant(f)) for f in corpus]
    assert got == ref
    flat = [v for pair in got for v in pair]
    assert math.inf in flat and 1.0 in flat and any(1.0 < v < math.inf for v in flat)
