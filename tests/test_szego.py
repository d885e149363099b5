"""Kernel solver checks: exact disc values, reproducing property, Ahlfors maps."""

import numpy as np
import pytest

from caratheodory.errors import GeometryError, SolveError
from caratheodory.geometry import (
    Domain,
    boolean_intersect,
    curve_from_samples,
    grid_sample,
    mesh_boundary,
)
from caratheodory.kernels import SzegoEvaluator, solve_szego
from caratheodory.kernels.szego import (
    SzegoSolver,
    ahlfors_eval,
    garabedian_boundary,
    kerzman_stein_matrix,
)
from caratheodory.harness import annulus, disc, ellipse, fourier_blob, two_disc_pair, unit_disc


def _disc_kernel(z, a):
    # Szego kernel of the unit disc
    return 1.0 / (2 * np.pi * (1.0 - z * np.conj(a)))


def _symmetric_lens():
    return boolean_intersect(*two_disc_pair("symmetric"))[0]


def test_kernel_matrix_is_exactly_skew_hermitian():
    for dom in (ellipse(), fourier_blob(), annulus()):
        b = kerzman_stein_matrix(mesh_boundary(dom, 64))
        assert np.max(np.abs(b + b.conj().T)) == 0.0
        assert np.all(np.diag(b) == 0.0)


def test_disc_boundary_values_match_the_exact_kernel():
    mesh = mesh_boundary(unit_disc(), 256)
    solver = SzegoSolver(mesh)
    for a in (0.0, 0.5, 0.3 - 0.2j):
        sol = solver.solve(a)
        assert np.max(np.abs(sol.szego_boundary - _disc_kernel(mesh.nodes, a))) < 1e-13
        want = 1.0 / (2 * np.pi * (1.0 - abs(a) ** 2))
        assert sol.diag_value == pytest.approx(want, rel=1e-12)


def test_warped_parameterization_changes_nothing():
    # same circle, non-constant speed; the solve is purely geometric
    t = np.arange(512) / 512.0
    warp = t + 0.12 * np.sin(2 * np.pi * t) / (2 * np.pi)
    dom = Domain(curve_from_samples(np.exp(2j * np.pi * warp)), label="warped circle")
    mesh = mesh_boundary(dom, 256)
    sol = SzegoSolver(mesh).solve(0.3)
    assert np.max(np.abs(sol.szego_boundary - _disc_kernel(mesh.nodes, 0.3))) < 1e-12


def test_reproducing_identity_on_smooth_domains():
    # pairing any holomorphic f against the kernel recovers f(a)
    cases = ((ellipse(), 0.25 + 0.1j), (fourier_blob(), 0.1), (annulus(), 0.7))
    fs = (lambda z: np.ones_like(z), lambda z: z**2, lambda z: 1.0 / (z - 4.0))
    for dom, a in cases:
        mesh = mesh_boundary(dom, 256)
        sol = SzegoSolver(mesh).solve(a)
        for f in fs:
            got = np.sum(f(mesh.nodes) * np.conj(sol.szego_boundary) * mesh.weights)
            assert abs(got - f(complex(a))) < 1e-12
        # the diagonal is the squared norm of the boundary values
        norm = np.sum(np.abs(sol.szego_boundary) ** 2 * mesh.weights)
        assert norm == pytest.approx(sol.diag_value, rel=1e-14)


def test_boundary_values_are_holomorphic_data():
    # Cauchy integral from outside annihilates Hardy-space boundary values
    for dom, a in ((ellipse(), 0.25 + 0.1j), (fourier_blob(), 0.1)):
        mesh = mesh_boundary(dom, 256)
        sol = SzegoSolver(mesh).solve(a)
        out = np.sum(
            sol.szego_boundary * mesh.tangents * mesh.weights / (mesh.nodes - (3.0 + 1.0j))
        ) / (2j * np.pi)
        assert abs(out) < 1e-12


def test_garabedian_boundary_identities():
    mesh = mesh_boundary(unit_disc(), 256)
    sol = SzegoSolver(mesh).solve(0.5)
    lab = garabedian_boundary(sol)
    assert np.max(np.abs(lab - 1.0 / (2 * np.pi * (mesh.nodes - 0.5)))) < 1e-13
    # |L| = |S| pointwise on any boundary
    meshb = mesh_boundary(fourier_blob(), 256)
    solb = SzegoSolver(meshb).solve(0.1)
    labb = garabedian_boundary(solb)
    assert np.max(np.abs(np.abs(labb) - np.abs(solb.szego_boundary))) < 1e-14


def test_base_point_clearance_guard():
    mesh = mesh_boundary(unit_disc(), 256)
    with pytest.raises(GeometryError, match="need > 3"):
        solve_szego(mesh, 0.99)


def test_ahlfors_map_on_discs_is_the_mobius_map():
    mesh = mesh_boundary(unit_disc(), 256)
    sol = SzegoSolver(mesh).solve(0.3)
    mob = lambda z: (z - 0.3) / (1.0 - 0.3 * z)
    for z in (0.0, 0.4 + 0.2j, -0.5j):
        v, vp = ahlfors_eval(sol, z)
        assert abs(v - mob(z)) < 1e-12
    # off-center disc: normalized mobius map, unique up to the f'(a) > 0 gauge,
    # so only the moduli of the map and its derivative are pinned
    d = disc(-0.5, 0.75)
    a2, z2 = -0.5 + 0.2j, -0.5 - 0.1j
    m2 = mesh_boundary(d, 256)
    s2 = SzegoSolver(m2).solve(a2)
    v, vp = ahlfors_eval(s2, z2)
    w = lambda z: (z + 0.5) / 0.75
    u0 = w(a2)
    mob2 = lambda z: (w(z) - u0) / (1.0 - np.conj(u0) * w(z))
    dmob2 = abs(1.0 - abs(u0) ** 2) / abs(1.0 - np.conj(u0) * w(z2)) ** 2 / 0.75
    assert abs(abs(v) - abs(mob2(z2))) < 1e-10
    assert abs(vp) == pytest.approx(dmob2, rel=1e-10)


def test_ahlfors_map_at_the_base_point():
    mesh = mesh_boundary(unit_disc(), 256)
    sol = SzegoSolver(mesh).solve(0.5)
    v, vp = ahlfors_eval(sol, 0.5)
    assert v == 0.0
    assert vp == pytest.approx(4.0 / 3.0, rel=1e-12)  # c at 0.5
    with pytest.raises(GeometryError, match="too close to the base point"):
        ahlfors_eval(sol, 0.5 + 1e-9)
    with pytest.raises(GeometryError, match="too close to the boundary"):
        ahlfors_eval(sol, 0.95)


def test_ahlfors_interior_values_agree_with_direct_cauchy():
    mesh = mesh_boundary(ellipse(), 256)
    sol = SzegoSolver(mesh).solve(0.25 + 0.1j)
    fb = sol.szego_boundary / garabedian_boundary(sol)
    dw = mesh.tangents * mesh.weights
    z0 = 0.6 - 0.2j
    direct = np.sum(fb * dw / (mesh.nodes - z0)) / (2j * np.pi)
    v, _ = ahlfors_eval(sol, z0)
    assert abs(v - direct) < 1e-9


def test_ahlfors_map_stays_inside_the_disc_ellipse():
    mesh = mesh_boundary(ellipse(), 256)
    sol = SzegoSolver(mesh).solve(0.25 + 0.1j)
    pts = grid_sample(ellipse(), 0.16, 0.1)
    vals = np.array(
        [ahlfors_eval(sol, z)[0] for z in pts if abs(z - (0.25 + 0.1j)) > 1e-4]
    )
    assert vals.size == 485
    top = np.max(np.abs(vals))
    assert top < 1.0
    assert top == pytest.approx(0.980935376, abs=1e-7)


def test_ahlfors_map_stays_inside_the_disc_lens():
    lens = _symmetric_lens()
    sol = SzegoEvaluator(lens).solution(0.0)
    pts = grid_sample(lens, 3.2 * sol.mesh.h_max, 0.024)
    vals = np.array([ahlfors_eval(sol, z)[0] for z in pts if abs(z) > 1e-4])
    assert vals.size > 1000
    top = np.max(np.abs(vals))
    assert top < 1.0
    assert top == pytest.approx(0.971038907, abs=1e-7)


def test_metric_values_with_doubling_check():
    assert SzegoEvaluator(unit_disc(), n=256).value(0.0) == pytest.approx(1.0, rel=1e-10)
    assert SzegoEvaluator(unit_disc(), n=256).value(0.5) == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert SzegoEvaluator(disc(0.0, 2.0), n=256).value(0.0) == pytest.approx(0.5, rel=1e-10)


def test_annulus_metric_matches_the_kernel_series():
    # independent bilateral series for the diagonal on 0.5 < |z| < 1
    n = np.arange(-60, 61)
    series = float(np.sum(0.7 ** (2 * n) / (1.0 + 0.5 ** (2 * n + 1))))
    got = SzegoEvaluator(annulus()).value(0.7)
    assert got == pytest.approx(series, rel=1e-9)
    assert got == pytest.approx(3.240787521, abs=1e-8)


def test_doubling_rejects_an_unresolved_boundary():
    # 3 nodes of clearance at n=256 but a failed doubling is a solver error;
    # drive it with a base point hugging the boundary on the coarse ladder
    dom = fourier_blob()
    ev = SzegoEvaluator(dom)
    with pytest.raises((GeometryError, SolveError)):
        ev.value(dom.outer.point(0.1) * 0.999)
