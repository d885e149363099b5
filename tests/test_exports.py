"""Export lists: every public name resolves, and retired duplicates stay gone."""

import importlib

import pytest

import caratheodory
from caratheodory import curvature, extremal, geometry, kernels
from caratheodory.extremal import lp
from caratheodory.geometry import curves, domain, sampling
from caratheodory.kernels import closed_forms, szego

PACKAGES = (
    "caratheodory",
    "caratheodory.geometry",
    "caratheodory.kernels",
    "caratheodory.extremal",
    "caratheodory.harness",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_duplicate_policies_are_gone():
    # SzegoEvaluator owns the doubling check, each evaluator its curvature
    # (no finite-difference stencil), Domain.dist_to_boundary the boundary
    # distance and LPEvaluator.values the LP field; SubArc is the one
    # re-parameterized arc and deriv each chart's one evaluator; callers
    # build SzegoSolver and SectorPullback themselves, without wrappers
    retired = (
        (geometry, ("ClippedArc",)),
        (curves, ("ClippedArc",)),
        (curves.TrigCurve, ("_eval",)),
        (curves.PiecewiseCurve, ("_eval",)),
        (caratheodory, ("lp_metric_field",)),
        (extremal, ("lp_metric_field",)),
        (lp, ("lp_metric_field",)),
        (caratheodory, ("caratheodory_szego", "dist_to_boundary", "domain_contains")),
        (caratheodory, ("solve_szego", "poincare_two_disc_regions")),
        (kernels, ("caratheodory_szego", "solve_szego",
                   "poincare_two_disc_regions")),
        (szego, ("caratheodory_szego", "solve_szego")),
        (closed_forms, ("poincare_two_disc_regions",)),
        (geometry, ("dist_to_boundary", "domain_contains")),
        (domain, ("dist_to_boundary", "domain_contains")),
        (domain.Domain, ("interior_point",)),
        (sampling, ("boundary_dist_many", "_dist_to_polyline", "_POLY_M")),
        (curvature, ("_stencil_logs", "_stencil", "default_step",
                     "log_metric_laplacian")),
    )
    for owner, names in retired:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
