from .curves import (
    TrigCurve,
    PiecewiseCurve,
    SubArc,
    CircleArc,
    OffsetArc,
    ClippedArc,
    CurveEval,
    curve_from_samples,
    curve_eval,
)
from .domain import Domain
from .sampling import grid_sample
from .boolean import curve_pair_intersections, boolean_intersect, boolean_union
from .offset import thicken
from .mesh import BoundaryMesh, mesh_boundary

__all__ = [
    "TrigCurve",
    "PiecewiseCurve",
    "SubArc",
    "CircleArc",
    "OffsetArc",
    "ClippedArc",
    "CurveEval",
    "curve_from_samples",
    "curve_eval",
    "Domain",
    "grid_sample",
    "curve_pair_intersections",
    "boolean_intersect",
    "boolean_union",
    "thicken",
    "BoundaryMesh",
    "mesh_boundary",
]
