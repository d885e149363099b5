"""Curvature: kappa = -4 for the exact metrics, the kernel-derivative
curvature against the FD reference and the annulus series, certificate
refusal."""

import numpy as np
import pytest

from caratheodory.curvature import curvature_at, scan_curvature
from caratheodory.errors import GeometryError
from caratheodory.geometry import boolean_intersect, grid_sample
from caratheodory.kernels import (
    AnnulusPoincareEvaluator,
    LPEvaluator,
    SzegoEvaluator,
    disc_metric,
    evaluator_for,
)
from caratheodory.kernels import evaluators
from caratheodory.kernels.closed_forms import SectorPullback
from caratheodory.harness import (
    annulus,
    blob_with_hole,
    disc,
    ellipse,
    fourier_blob,
    two_disc_pair,
    unit_disc,
)
from curvature_reference import annulus_kappa, fd_kappa, fd_log_laplacians


def _fd_laplacian(ev, z, h):
    (lap,), _ = fd_log_laplacians(ev, complex(z), (h,))
    return lap


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
    lap = _fd_laplacian(ev, 0.3, 0.01)
    assert lap == pytest.approx(4.0 * c * c, rel=1e-3)


def test_laplacian_of_a_flat_density_vanishes():
    lap = _fd_laplacian(_FlatDensity(unit_disc()), 0.1, 0.01)
    assert abs(lap) < 1e-10


def test_laplacian_of_the_annulus_density():
    ev = AnnulusPoincareEvaluator(annulus())
    lam = ev.value(0.7)
    lap = _fd_laplacian(ev, 0.7, 0.005)
    assert lap == pytest.approx(4.0 * lam * lam, rel=2e-3)


def test_disc_curvature_is_minus_four():
    kappa, value = curvature_at(evaluator_for(unit_disc()), 0.3)
    assert type(kappa) is float and type(value) is float
    assert value == pytest.approx(disc_metric(0.0, 1.0, 0.3), rel=1e-12)
    # the closed forms are normalized to -4 exactly
    assert kappa == -4.0


def test_closed_form_curvature_refuses_points_outside():
    with pytest.raises(GeometryError, match="outside the disc"):
        evaluator_for(unit_disc()).curvatures([0.5, 1.5])


def test_richardson_refinement_gains_two_orders():
    # the FD reference's own Richardson pair on the exact disc density
    ev = evaluator_for(unit_disc())
    err_coarse = abs(fd_kappa(ev, 0.3, h=0.02)[0] + 4.0)
    err_fine = abs(fd_kappa(ev, 0.3, h=0.01)[0] + 4.0)
    assert err_coarse == pytest.approx(1.148e-3, rel=1e-2)
    assert err_fine == pytest.approx(2.870e-4, rel=1e-2)
    assert err_coarse / err_fine > 3.0


def test_solver_backed_curvature_on_the_ellipse():
    # simply connected, so kappa is -4 exactly (Suita)
    kappa, _ = curvature_at(SzegoEvaluator(ellipse()), 0.3 + 0.2j)
    assert abs(kappa + 4.0) < 1e-9


def test_solver_backed_curvature_on_the_annulus():
    # exact value from the annulus series, -4.0000417365 at |z| = 0.7
    kappa, _ = curvature_at(SzegoEvaluator(annulus()), 0.7)
    assert kappa == pytest.approx(annulus_kappa(0.5, 0.7), abs=1e-10)
    assert kappa <= -4.0 + 1e-3


@pytest.mark.parametrize("dom, pts", [
    (ellipse(), (0.3 + 0.2j, -1.2 + 0.1j, 0.5j)),
    (blob_with_hole(), (-0.6 + 0.1j, 0.3 - 0.6j, 0.55 + 0.45j)),
])
def test_kernel_curvature_matches_the_fd_reference(dom, pts):
    # two independent routes to kappa: the kernel's derivative and the
    # Richardson-refined FD Laplacian of the settled values
    ev = SzegoEvaluator(dom)
    got = ev.curvatures(pts)
    want = [fd_kappa(ev, z)[1] for z in pts]
    assert np.max(np.abs(got - want)) <= 1e-5


def test_lp_evaluator_refuses_curvature_before_any_certificate(monkeypatch):
    ev = LPEvaluator(unit_disc())
    calls = []
    monkeypatch.setattr(evaluators, "lp_caratheodory_lower",
                        lambda *args: calls.append(args))
    with pytest.raises(GeometryError, match="no curvature"):
        curvature_at(ev, 0.3)
    assert calls == []


def test_scan_brackets_kappa_on_the_disc():
    scan = scan_curvature(unit_disc(), evaluator_for(unit_disc()), 0.2, 0.5)
    assert len(scan.grid) == len(scan.kappas) == len(scan.values) > 0
    assert scan.kappa_min == scan.kappa_max == -4.0
    assert scan.c_hat == 4.0


def test_scan_on_the_blob_solver():
    scan = scan_curvature(fourier_blob(), SzegoEvaluator(fourier_blob()), 0.3, 0.35)
    assert scan.kappa_min >= -4.001
    assert scan.kappa_max <= -3.999
    assert scan.c_hat < 100.0


def test_a_scan_holds_the_evaluator_arrays_bit_for_bit():
    # the holed blob, whose kappa is not -4: the scan's arrays are a fresh
    # evaluator's curvatures and values of its grid, curvatures asked first
    dom = blob_with_hole()
    scan = scan_curvature(dom, SzegoEvaluator(dom), 0.15, 0.1)
    grid = grid_sample(blob_with_hole(), 0.15, 0.1)
    ev = SzegoEvaluator(blob_with_hole())
    kappas, values = ev.curvatures(grid), ev.values(grid)
    assert np.array_equal(scan.grid, grid)
    assert scan.kappas.tobytes() == kappas.tobytes()
    assert scan.values.tobytes() == values.tobytes()
    assert scan.kappa_min == np.min(kappas) < scan.kappa_max == np.max(kappas)


def test_lp_log_density_stays_subharmonic_on_the_lens():
    # log sum_k |phi_k|^2 is subharmonic, so Delta log of the certificate
    # is nonnegative; at degree 24 it is within 6e-5 of the lens density,
    # so its 5-point Laplacian is 4c^2 up to the stencil's h^2 term
    # (h^2/12) (d_x^4 + d_y^4) log c, read off the closed form by fourth
    # differences at the same step
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    lp = LPEvaluator(lens)
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "intersection")
    h = 0.02
    for z in (0.0, 0.2 + 0.1j):
        lap = _fd_laplacian(lp, z, h)
        c = pull.density(z)
        fourth = sum(np.array([1.0, -4.0, 6.0, -4.0, 1.0])
                     @ np.log(pull.density(z + np.arange(-2, 3) * h * e))
                     for e in (1.0, 1j)) / h**4
        stencil = h * h / 12.0 * abs(fourth)
        assert abs(lap - 4.0 * c * c) <= 2.0 * stencil
        assert lap > -1e-3


def test_empty_scan_grid_is_rejected():
    # centred off the lattice 0.3*(Z x Z): every lattice point is at least
    # 0.212 from the centre, so none has clearance 0.99 (the unit disc's
    # origin would have clearance 1)
    dom = disc(0.15 + 0.15j, 1.0)
    with pytest.raises(GeometryError, match="no grid points"):
        scan_curvature(dom, evaluator_for(dom), 0.99, 0.3)
