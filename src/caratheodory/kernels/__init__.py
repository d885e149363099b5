from .closed_forms import (
    SectorPullback,
    annulus_metric,
    circle_intersection,
    disc_metric,
    poincare_annulus,
)
from .szego import (
    SzegoSolver,
    kerzman_stein_matrix,
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
    "SzegoSolver",
    "kerzman_stein_matrix",
    "AnnulusPoincareEvaluator",
    "ClosedFormDiscEvaluator",
    "LPEvaluator",
    "SectorPullbackEvaluator",
    "SzegoEvaluator",
    "evaluator_for",
]
