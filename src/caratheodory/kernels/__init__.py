from .closed_forms import (
    SectorPullback,
    annulus_metric,
    circle_intersection,
    disc_metric,
    poincare_annulus,
    poincare_two_disc_regions,
)
from .szego import (
    KernelSolution,
    SzegoSolver,
    ahlfors_eval,
    garabedian_boundary,
    kerzman_stein_matrix,
    solve_szego,
)
from .evaluators import (
    AnnulusPoincareEvaluator,
    ClosedFormDiscEvaluator,
    LPEvaluator,
    SectorPullbackEvaluator,
    SzegoEvaluator,
    evaluator_for,
)

__all__ = [
    "SectorPullback",
    "annulus_metric",
    "circle_intersection",
    "disc_metric",
    "poincare_annulus",
    "poincare_two_disc_regions",
    "KernelSolution",
    "SzegoSolver",
    "ahlfors_eval",
    "garabedian_boundary",
    "kerzman_stein_matrix",
    "solve_szego",
    "AnnulusPoincareEvaluator",
    "ClosedFormDiscEvaluator",
    "LPEvaluator",
    "SectorPullbackEvaluator",
    "SzegoEvaluator",
    "evaluator_for",
]
