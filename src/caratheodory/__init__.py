"""Conformal metrics on planar domains.

Computes the Caratheodory metric through the Szego kernel of the
boundary, closed-form Poincare metrics where available, certified lower
bounds through linear programming over normalized holomorphic families,
and curvature diagnostics; the harness subpackage drives the metric
comparison experiments and the command line tool.
"""

from .curvature import (
    CurvatureEstimate,
    CurvatureScan,
    curvature_at,
    scan_curvature,
)
from .errors import ExtremalError, GeometryError, SolveError, TangencyError
from .extremal import (
    ExtremalCertificate,
    ExtremalProblem,
    choose_poles,
    lp_caratheodory_lower,
)
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
    KernelSolution,
    LPEvaluator,
    SectorPullbackEvaluator,
    SzegoEvaluator,
    ahlfors_eval,
    annulus_metric,
    disc_metric,
    evaluator_for,
    garabedian_boundary,
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
    "CurvatureEstimate",
    "CurvatureScan",
    "Domain",
    "ExtremalCertificate",
    "ExtremalError",
    "ExtremalProblem",
    "GeometryError",
    "KernelSolution",
    "LPEvaluator",
    "PairReport",
    "SectorPullbackEvaluator",
    "SolveError",
    "SolyninReport",
    "SuitaReport",
    "SzegoEvaluator",
    "TangencyError",
    "ahlfors_eval",
    "annulus_metric",
    "boolean_intersect",
    "boolean_union",
    "choose_poles",
    "converge_thickening",
    "curvature_at",
    "curve_from_samples",
    "disc_metric",
    "evaluator_for",
    "garabedian_boundary",
    "grid_sample",
    "kerzman_stein_matrix",
    "localization_experiment",
    "lp_caratheodory_lower",
    "mesh_boundary",
    "run_cli",
    "scan_curvature",
    "thicken",
    "verify_solynin_two_discs",
    "verify_submult",
    "verify_suita",
]
