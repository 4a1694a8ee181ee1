"""Numerical toolkit for planar Hilbert geometries."""

import types

from ._malloc import pin_malloc_thresholds
from .domains import (
    ConvexDomain,
    Ellipse,
    Line2,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    domain_from_json,
    domain_from_spec,
    regular_polygon,
    unit_disk,
)
from .errors import (
    DegenerateVertices,
    GeometryError,
    ImproperImage,
    InsufficientSignal,
    InvalidTriangle,
    NotConvex,
    NotOnBoundary,
    PointNotInterior,
    PreconditionViolated,
    RegionOutsideDomain,
    SegmentNotInDomain,
    SingularConstraints,
    StripTooWide,
)
from .measure import (
    QuadratureEstimate,
    ball_area,
    densities,
    density,
    region_area,
    unit_ball_area,
    unit_ball_areas,
)
from .metric import (
    DeltaEstimate,
    FourPointConfig,
    ThinTriangleConfig,
    boundary_biased_points,
    delta_four_point,
    delta_thin,
    finsler_norm,
    finsler_norms,
    hilbert_distance,
    hilbert_distances,
    point_to_segment_distance,
    point_to_segment_distances,
    reevaluate_witness,
)
from .normalize import (
    AlphaFit,
    GraphStrip,
    NormalizationResult,
    boundary_graph,
    graph_alpha_fit,
    normalize_many,
    normalize_triangle_pointed,
)
from .regularity import (
    DerivativeHolderResult,
    RegularityReport,
    SampledFunction,
    boundary_regularity_report,
    chain_constants,
    derivative_holder_check,
    holder_bound_check,
    qs_constant,
    qsc_constant,
)
from .suites import (
    CheckResult,
    SuiteReport,
    point_at_distance,
    power_cap_corner_bound,
    run_suite,
)
from .triangles import (
    CornerLadder,
    IdealTriangle,
    SupAreaResult,
    TriangleSamplerConfig,
    ideal_triangle_area,
    ideal_triangle_area_detail,
    ideal_triangle_from_points,
    make_ideal_triangle,
    sup_area_search,
)

__version__ = "0.1.0"

pin_malloc_thresholds()

# every class, function and exception imported above: not the submodules
# the imports bind, nor the allocator set-up
__all__ = sorted(
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, types.ModuleType) or value is pin_malloc_thresholds)
)
