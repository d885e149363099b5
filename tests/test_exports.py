"""Export lists: every public name resolves, and retired duplicates stay gone."""

import importlib

import pytest

import caratheodory
from caratheodory import curvature, geometry, kernels
from caratheodory.geometry import domain, sampling
from caratheodory.kernels import szego

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
    # SzegoEvaluator owns the doubling check, curvature_at the stencil and
    # Domain.dist_to_boundary the boundary distance
    retired = (
        (caratheodory, ("caratheodory_szego", "dist_to_boundary", "domain_contains")),
        (kernels, ("caratheodory_szego",)),
        (szego, ("caratheodory_szego",)),
        (geometry, ("dist_to_boundary", "domain_contains")),
        (domain, ("dist_to_boundary", "domain_contains")),
        (domain.Domain, ("interior_point",)),
        (sampling, ("boundary_dist_many", "_dist_to_polyline", "_POLY_M")),
        (curvature, ("_stencil_logs",)),
    )
    for owner, names in retired:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
