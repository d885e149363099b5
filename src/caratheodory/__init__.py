"""Conformal metrics on planar domains.

Computes the Caratheodory metric through the Szego kernel of the
boundary, closed-form Poincare metrics where available, certified lower
bounds 2 pi sum_k |phi_k(a)|^2 over a basis orthonormal on the boundary
(polynomials and one Laurent block per hole), and curvature diagnostics;
the harness subpackage drives the metric comparison experiments and the
command line tool.
"""

from .curvature import (
    CurvatureScan,
    curvature_at,
    scan_curvature,
)
from .errors import ExtremalError, GeometryError, SolveError, TangencyError
from .geometry import (
    BoundaryMesh,
    Domain,
    boolean_intersect,
    boolean_union,
    curve_from_samples,
    grid_sample,
    mesh_boundary,
    thicken,
)
from .kernels import (
    AnnulusPoincareEvaluator,
    ClosedFormDiscEvaluator,
    LPEvaluator,
    SectorPullbackEvaluator,
    SzegoEvaluator,
    annulus_metric,
    disc_metric,
    evaluator_for,
    kerzman_stein_matrix,
)
from .harness import (
    ConvergenceReport,
    PairReport,
    SolyninReport,
    SuitaReport,
    converge_thickening,
    localization_experiment,
    run_cli,
    verify_solynin_two_discs,
    verify_submult,
    verify_suita,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusPoincareEvaluator",
    "BoundaryMesh",
    "ClosedFormDiscEvaluator",
    "ConvergenceReport",
    "CurvatureScan",
    "Domain",
    "ExtremalError",
    "GeometryError",
    "LPEvaluator",
    "PairReport",
    "SectorPullbackEvaluator",
    "SolveError",
    "SolyninReport",
    "SuitaReport",
    "SzegoEvaluator",
    "TangencyError",
    "annulus_metric",
    "boolean_intersect",
    "boolean_union",
    "converge_thickening",
    "curvature_at",
    "curve_from_samples",
    "disc_metric",
    "evaluator_for",
    "grid_sample",
    "kerzman_stein_matrix",
    "localization_experiment",
    "mesh_boundary",
    "run_cli",
    "scan_curvature",
    "thicken",
    "verify_solynin_two_discs",
    "verify_submult",
    "verify_suita",
]
