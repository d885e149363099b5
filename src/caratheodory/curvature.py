"""Gaussian curvature of conformal metrics by finite differences.

For a density rho the curvature is kappa = -rho^{-2} Delta log rho.  We
use the standard 5-point stencil for the Laplacian at spacings h and h/2
and publish the Richardson combination (4*kappa(h/2) - kappa(h))/3.  All
stencil values for one estimate are requested in a single batch so that
solver-backed evaluators keep one mesh across the stencil; the solve
error then varies smoothly with the base point and cancels in the
differences instead of polluting the h^-2 amplification.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .geometry.sampling import grid_sample


class CurvatureEstimate:
    """One curvature reading; kappa_refined is the published value and
    |kappa - kappa_refined| is the error bar."""

    def __init__(self, point, h, kappa, kappa_refined, metric_value):
        self.point = complex(point)
        self.h = float(h)
        self.kappa = float(kappa)
        self.kappa_refined = float(kappa_refined)
        self.metric_value = float(metric_value)

    def __repr__(self):
        return "CurvatureEstimate(z=%s, h=%g, kappa=%.6f, refined=%.6f)" % (
            self.point, self.h, self.kappa, self.kappa_refined)


class CurvatureScan:
    def __init__(self, domain, grid, estimates):
        self.domain = domain
        self.grid = list(grid)
        self.estimates = list(estimates)
        refined = [e.kappa_refined for e in self.estimates]
        self.kappa_min = float(min(refined))
        self.kappa_max = float(max(refined))

    @property
    def c_hat(self):
        """Constant for the two-sided curvature bound, -C <= kappa."""
        return -self.kappa_min

    def __repr__(self):
        return "CurvatureScan(%s, %d points, kappa in [%.4f, %.4f])" % (
            self.domain.label, len(self.grid), self.kappa_min, self.kappa_max)


def default_step(domain, z):
    """min(0.01, boundary distance / 20), the noise/truncation sweet spot."""
    return min(0.01, domain.dist_to_boundary(z) / 20.0)


def _stencil(evaluator, z, steps, guard):
    """5-point Laplacians of log(metric) at z, one per step, from a single
    batch of metric values, and the metric at z.

    Checks that the steps are positive, that z keeps distance > 10h from
    the boundary (only when guard is set: default_step's h <= d/20
    clears it already), and that every metric value is positive.
    """
    h = steps[0]
    if h <= 0.0:
        raise GeometryError("step must be positive")
    if guard and evaluator.domain.dist_to_boundary(z) <= 10.0 * h:
        raise GeometryError(
            "stencil too close to the boundary at %s (need distance > 10h)" % z)
    pts = [z]
    for s in steps:
        pts += [z + s, z - s, z + 1j * s, z - 1j * s]
    vals = evaluator.values(np.array(pts, dtype=complex))
    if np.any(vals <= 0.0):
        raise GeometryError("metric not positive on the stencil at %s" % z)
    logs = np.log(vals)
    laps = [(logs[i] + logs[i + 1] + logs[i + 2] + logs[i + 3]
             - 4.0 * logs[0]) / s**2
            for i, s in zip(range(1, len(pts), 4), steps)]
    return laps, vals[0]


def log_metric_laplacian(evaluator, z, h):
    """5-point Laplacian of log(metric); O(h^2) truncation."""
    (lap,), _ = _stencil(evaluator, complex(z), (float(h),), guard=True)
    return float(lap)


def curvature_at(evaluator, z, h=None):
    """Curvature estimate with Richardson refinement from h and h/2."""
    z = complex(z)
    guard = h is not None
    h = float(h) if guard else default_step(evaluator.domain, z)
    # one batch for both stencils keeps solver-backed evaluators on a
    # common mesh across all 9 points
    (lap_h, lap_h2), c0 = _stencil(evaluator, z, (h, h / 2), guard)
    kappa = -lap_h / c0**2
    kappa_half = -lap_h2 / c0**2
    refined = (4.0 * kappa_half - kappa) / 3.0
    return CurvatureEstimate(z, h, kappa, refined, c0)


def scan_curvature(domain, evaluator, delta, spacing, h=None):
    """Curvature over an interior lattice; records min/max of refined kappa.

    delta is the boundary clearance of the grid; h defaults per point to
    min(0.01, dist/20) and must satisfy delta >= 10h when given.
    """
    if h is not None and delta < 10.0 * float(h):
        raise GeometryError("need delta >= 10h for interior stencils")
    grid = grid_sample(domain, delta, spacing)
    if len(grid) == 0:
        raise GeometryError("no grid points at clearance %g" % delta)
    estimates = [curvature_at(evaluator, z, h) for z in grid]
    return CurvatureScan(domain, grid, estimates)
