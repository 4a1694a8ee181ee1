import numpy as np
import pytest

from hilbertgeom.domains import (
    Ellipse,
    PBall,
    Polygon,
    PowerCap,
    ProjectiveImage,
    ProjectiveMap,
    SmoothedPolygon,
    regular_polygon,
)

# fractions of the boundary distance at which equivalence points sit
_DEPTHS = (0.0, 0.3, 0.7, 0.95, 0.999, 1.0 - 1e-6)


@pytest.fixture
def equivalence_domains():
    """One domain per ray path and boundary kind, with interior points from
    the anchor out to 1e-6 short of the boundary.

    Maps a name to ``(domain, points, tol)``.  ``tol`` is the relative
    agreement two round-off-level variants of a ray cast can reach at each
    point: 1e-12, plus the 1e-16-level absolute jitter of a boundary hit
    divided by the point's boundary gap (as a fraction of the distance from
    the anchor), which dominates within 1e-3 of the boundary.
    """
    square = regular_polygon(4)
    domains = {
        "pball1.5": PBall(1.5),
        "pball2": PBall(2.0),
        "pball4": PBall(4.0, center=(0.2, -0.1), scale=1.3),
        "pball20": PBall(20.0),
        "ellipse": Ellipse(center=(0.5, 0.0), semi_axes=(1.2, 0.7), rotation=0.3),
        "square": square,
        "triangle": regular_polygon(3),
        "hexagon": regular_polygon(6, circumradius=1.3, center=(0.2, -0.1), phase=0.3),
        "pentagon": Polygon([[0.0, -1.0], [0.8, 0.1], [0.0, 0.6], [-0.5, 0.0], [-0.4, -0.6]]),
        "smoothed": SmoothedPolygon(square.vertices, smoothing=0.1),
        "smoothed0.05": SmoothedPolygon(square.vertices, smoothing=0.05),
        "smoothed0.2": SmoothedPolygon(square.vertices, smoothing=0.2),
        "power-cap": PowerCap(2.0),
        "projective": ProjectiveImage(
            PBall(4.0), ProjectiveMap([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])
        ),
        "projective-square": ProjectiveImage(
            square, ProjectiveMap([[1.0, 0.0, 0.1], [0.1, 1.0, 0.0], [0.0, 0.3, 1.0]])
        ),
    }
    angles = 0.3 + np.arange(7) * (2.0 * np.pi / 7.0)
    U = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    out = {}
    for name, dom in domains.items():
        c = dom.interior_point()
        reach = dom.ray_hits(np.repeat(c[None], len(U), axis=0), U)
        P = np.concatenate([c + (f * reach)[:, None] * U for f in _DEPTHS])
        gap = np.repeat(1.0 - np.array(_DEPTHS), len(U))
        out[name] = (dom, P, 1e-12 + 1e-15 / gap)
    return out
