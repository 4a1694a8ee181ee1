"""Exception types shared across the geometry kit."""


class GeometryError(Exception):
    """Base class for all geometry-kit errors."""


class PointNotInterior(GeometryError):
    """A query point that must lie strictly inside the domain does not."""


class PreconditionViolated(GeometryError):
    """An operation's documented precondition does not hold."""


class NotOnBoundary(PreconditionViolated):
    """A point that must lie on the domain boundary (within tolerance) does not."""


class ImproperImage(GeometryError):
    """A projective image is unbounded or meets the line at infinity."""


class SegmentNotInDomain(GeometryError):
    """A segment that must lie in the closed domain leaves it."""


class DegenerateVertices(GeometryError):
    """Vertices are coincident or collinear where a proper triangle is required."""


class InvalidTriangle(GeometryError):
    """An operation requires a valid ideal triangle but received an invalid one."""


class RegionOutsideDomain(GeometryError):
    """An integration region is not contained in the closed domain."""


class StripTooWide(GeometryError):
    """The domain does not cross the requested graph strip on both sides."""


class SingularConstraints(GeometryError):
    """The normal form is degenerate: a vertex lies on another vertex's
    supporting line, or the three vertices on one line."""


class InsufficientSignal(GeometryError):
    """Sampled values are too small to support the requested fit."""


class NotConvex(GeometryError):
    """A function that must be convex (midpoint test) is not."""
