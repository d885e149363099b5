"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid or degenerate geometric input (orientation, self-intersection,
    tangential contact, offsets beyond reach, points on the boundary, ...)."""


class TangencyError(GeometryError):
    """Two curves meet non-transversally where a crossing was required."""


class SolveError(RuntimeError):
    """A kernel solve or quadrature could not meet its preconditions or
    failed to converge under the mesh policy."""


class ExtremalError(RuntimeError):
    """A certificate could not be certified: its two quadrature meshes
    disagree."""
