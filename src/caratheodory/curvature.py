"""Gaussian curvature kappa = -c^{-2} Delta log c of the metric c.

Every evaluator gives kappa itself through curvatures(zs): the closed
forms are normalized to -4, the Szego solver differentiates the kernel
in its base point, and certificates (LPEvaluator), being lower bounds
from a finite orthonormal basis, refuse.
This module reads it at one point and scans it over an interior grid,
which the evaluator takes as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry.sampling import grid_sample


@dataclass
class CurvatureEstimate:
    """One curvature reading and the metric value at its point."""

    point: complex
    kappa: float
    metric_value: float


class CurvatureScan:
    def __init__(self, domain, grid, estimates):
        self.domain = domain
        self.grid = list(grid)
        self.estimates = list(estimates)
        self.kappa_min = min(e.kappa for e in self.estimates)
        self.kappa_max = max(e.kappa for e in self.estimates)

    @property
    def c_hat(self):
        """Constant for the two-sided curvature bound, -C <= kappa."""
        return -self.kappa_min

    def __repr__(self):
        return "CurvatureScan(%s, %d points, kappa in [%.4f, %.4f])" % (
            self.domain.label, len(self.grid), self.kappa_min, self.kappa_max)


def curvature_at(evaluator, z):
    """Curvature of the evaluator's metric at z."""
    zs = np.array([z], dtype=complex)
    kappa = float(evaluator.curvatures(zs)[0])
    return CurvatureEstimate(complex(z), kappa, float(evaluator.values(zs)[0]))


def scan_curvature(domain, evaluator, delta, spacing):
    """Curvature, with its min and max, over a lattice of clearance delta.

    The evaluator is asked for the grid's curvatures and then its values,
    each once for the whole grid.
    """
    grid = grid_sample(domain, delta, spacing)
    if len(grid) == 0:
        raise GeometryError("no grid points at clearance %g" % delta)
    kappas = evaluator.curvatures(grid)
    values = evaluator.values(grid)
    estimates = [CurvatureEstimate(complex(z), float(k), float(v))
                 for z, k, v in zip(grid, kappas, values)]
    return CurvatureScan(domain, grid, estimates)
