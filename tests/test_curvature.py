"""Curvature stencils: kappa = -4 for the exact metrics, solver and LP noise."""

import numpy as np
import pytest

from caratheodory.curvature import (
    CurvatureEstimate,
    curvature_at,
    default_step,
    log_metric_laplacian,
    scan_curvature,
)
from caratheodory.errors import GeometryError
from caratheodory.geometry import boolean_intersect
from caratheodory.kernels import (
    AnnulusPoincareEvaluator,
    LPEvaluator,
    SzegoEvaluator,
    disc_metric,
    evaluator_for,
)
from caratheodory.harness import annulus, disc, ellipse, fourier_blob, two_disc_pair, unit_disc


class _FlatDensity:
    """Constant metric; its log has zero laplacian."""

    def __init__(self, domain, level=2.0):
        self.domain = domain
        self.level = level

    def values(self, zs):
        return np.full(np.asarray(zs).size, self.level)


def test_laplacian_of_the_disc_density():
    # Delta log rho = 4 rho^2 when kappa = -4
    ev = evaluator_for(unit_disc())
    c = disc_metric(0.0, 1.0, 0.3)
    lap = log_metric_laplacian(ev, 0.3, 0.01)
    assert lap == pytest.approx(4.0 * c * c, rel=1e-3)


def test_laplacian_of_a_flat_density_vanishes():
    lap = log_metric_laplacian(_FlatDensity(unit_disc()), 0.1, 0.01)
    assert abs(lap) < 1e-10


def test_laplacian_of_the_annulus_density():
    ev = AnnulusPoincareEvaluator(annulus())
    lam = ev.value(0.7)
    lap = log_metric_laplacian(ev, 0.7, 0.005)
    assert lap == pytest.approx(4.0 * lam * lam, rel=2e-3)


def test_stencil_guards():
    ev = evaluator_for(unit_disc())
    with pytest.raises(GeometryError, match="step must be positive"):
        log_metric_laplacian(ev, 0.0, 0.0)
    with pytest.raises(GeometryError, match="need distance > 10h"):
        log_metric_laplacian(ev, 0.95, 0.01)
    with pytest.raises(GeometryError, match="step must be positive"):
        curvature_at(ev, 0.0, -1.0)
    with pytest.raises(GeometryError, match="need distance > 10h"):
        curvature_at(ev, 0.95, 0.01)
    with pytest.raises(GeometryError, match="not positive on the stencil"):
        log_metric_laplacian(_FlatDensity(unit_disc(), level=-1.0), 0.0, 0.01)
    with pytest.raises(GeometryError, match="need delta >= 10h"):
        scan_curvature(unit_disc(), ev, 0.05, 0.3, h=0.01)


def test_default_step_tracks_the_boundary_distance():
    assert default_step(unit_disc(), 0.0) == pytest.approx(0.01)
    assert default_step(unit_disc(), 0.9) == pytest.approx(0.1 / 20.0)


def test_disc_curvature_is_minus_four():
    est = curvature_at(evaluator_for(unit_disc()), 0.3)
    assert isinstance(est, CurvatureEstimate)
    assert est.h == pytest.approx(0.01)
    assert est.metric_value == pytest.approx(disc_metric(0.0, 1.0, 0.3), rel=1e-12)
    assert abs(est.kappa + 4.0) < 1e-3
    assert abs(est.kappa_refined + 4.0) < 1e-5


def test_curvature_and_laplacian_share_one_stencil():
    # the h-stencil curvature is -Delta log c / c0^2 to the last bit, at a
    # given step and at the default one
    for ev, z in ((evaluator_for(unit_disc()), 0.3),
                  (SzegoEvaluator(ellipse()), 0.3 + 0.2j)):
        for h in (0.02, None):
            est = curvature_at(ev, z, h)
            lap = log_metric_laplacian(ev, z, est.h)
            assert est.kappa == -lap / est.metric_value**2


def test_richardson_refinement_gains_two_orders():
    ev = evaluator_for(unit_disc())
    err_coarse = abs(curvature_at(ev, 0.3, h=0.02).kappa + 4.0)
    err_fine = abs(curvature_at(ev, 0.3, h=0.01).kappa + 4.0)
    assert err_coarse == pytest.approx(1.148e-3, rel=1e-2)
    assert err_fine == pytest.approx(2.870e-4, rel=1e-2)
    assert err_coarse / err_fine > 3.0


def test_solver_backed_curvature_on_the_ellipse():
    est = curvature_at(SzegoEvaluator(ellipse()), 0.3 + 0.2j)
    assert abs(est.kappa_refined + 4.0) < 1e-3


def test_solver_backed_curvature_on_the_annulus():
    est = curvature_at(SzegoEvaluator(annulus()), 0.7)
    assert est.kappa_refined == pytest.approx(-4.00004038, abs=1e-6)
    assert est.kappa_refined <= -4.0 + 1e-3


def test_scan_brackets_kappa_on_the_disc():
    scan = scan_curvature(unit_disc(), evaluator_for(unit_disc()), 0.2, 0.5)
    assert len(scan.grid) == len(scan.estimates) > 0
    assert scan.kappa_min >= -4.0 - 1e-3
    assert scan.kappa_max <= -4.0 + 1e-3
    assert scan.c_hat == pytest.approx(4.0, abs=1e-3)


def test_scan_on_the_blob_solver():
    scan = scan_curvature(fourier_blob(), SzegoEvaluator(fourier_blob()), 0.3, 0.35)
    assert scan.kappa_min >= -4.001
    assert scan.kappa_max <= -3.999
    assert scan.c_hat < 100.0


def test_lp_log_density_stays_subharmonic_on_the_lens():
    # certificates wobble point to point, so Delta log c lands well off
    # 4c^2, but it stays safely nonnegative, which is the structural claim
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    lp = LPEvaluator(lens)
    for z, want in ((0.0, 9.320469), (0.2 + 0.1j, 22.244743)):
        lap = log_metric_laplacian(lp, z, h=0.02)
        assert lap == pytest.approx(want, abs=1e-4)
        assert lap > -1e-3


def test_empty_scan_grid_is_rejected():
    # centred off the lattice 0.3*(Z x Z): every lattice point is at least
    # 0.212 from the centre, so none has clearance 0.99 (the unit disc's
    # origin would have clearance 1)
    dom = disc(0.15 + 0.15j, 1.0)
    with pytest.raises(GeometryError, match="no grid points"):
        scan_curvature(dom, evaluator_for(dom), 0.99, 0.3)
