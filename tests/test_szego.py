"""Kernel solver checks: exact disc values, reproducing property, Ahlfors maps."""

import os
import sys

import numpy as np
import pytest

from caratheodory import localization_experiment, verify_suita
from caratheodory.errors import GeometryError, SolveError
from caratheodory.geometry import (
    Domain,
    boolean_intersect,
    curve_from_samples,
    grid_sample,
    mesh_boundary,
)
from caratheodory.kernels import SzegoEvaluator, szego
from caratheodory.kernels.szego import (
    LU_MATVECS,
    SzegoSolver,
    ahlfors_eval,
    garabedian_boundary,
    kerzman_stein_matrix,
)
from caratheodory.harness import (
    annulus,
    blob_with_hole,
    disc,
    ellipse,
    fourier_blob,
    two_disc_pair,
    unit_disc,
)
from kernel_reference import broadcast_kerzman_stein


def _disc_kernel(z, a):
    # Szego kernel of the unit disc
    return 1.0 / (2 * np.pi * (1.0 - z * np.conj(a)))


def _symmetric_lens():
    return boolean_intersect(*two_disc_pair("symmetric"))[0]


def _localization_piece():
    # the localization march's cornered domain: the ellipse cut by the
    # radius-0.5 disc about its boundary point at t = 0.25 (= i)
    dom = ellipse()
    return boolean_intersect(disc(dom.outer.point(0.25), 0.5), dom)[0]


def _spent(mesh, a):
    """A solver that has spent its GMRES budget solving at a; its next
    solve factors."""
    solver = SzegoSolver(mesh)
    while solver.matvecs < LU_MATVECS:
        solver.solve(a)
    return solver


def _count_factorizations(monkeypatch):
    """Node counts of the systems LU-factored from now on."""
    sizes = []
    real = szego.lu_factor

    def counting(a, **kwargs):
        sizes.append(a.shape[0])
        return real(a, **kwargs)

    monkeypatch.setattr(szego, "lu_factor", counting)
    return sizes


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
        szego.require_clearance(mesh, 0.99, unit_disc().dist_to_boundary(0.99))


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


def _off_tile_meshes():
    """Two-curve and graded cornered meshes whose node counts leave
    partial tiles."""
    meshes = [mesh_boundary(dom, n) for dom in (annulus(), _localization_piece())
              for n in (300, 700)]
    assert all(mesh.size % szego._TILE != 0 for mesh in meshes)
    return meshes


def test_in_place_assembly_matches_the_broadcast_formula():
    # smooth, cornered, multiply connected, and node counts that leave
    # a partial tile
    meshes = [mesh_boundary(fourier_blob(), 256),
              mesh_boundary(_localization_piece(), 256),
              mesh_boundary(blob_with_hole(), 256),
              mesh_boundary(ellipse(), 300)] + _off_tile_meshes()
    for mesh in meshes:
        assert np.array_equal(kerzman_stein_matrix(mesh),
                              broadcast_kerzman_stein(mesh))


@pytest.mark.parametrize("cpus", [1, 5], ids=["one_worker", "five_workers"])
def test_assembly_bits_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    # one worker, and more workers than cores switching every microsecond
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    workers = []
    pool = szego.ThreadPoolExecutor

    def counting(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(szego, "ThreadPoolExecutor", counting)
    meshes = _off_tile_meshes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mesh in meshes:
            assert (kerzman_stein_matrix(mesh).tobytes()
                    == broadcast_kerzman_stein(mesh).tobytes())
    finally:
        sys.setswitchinterval(interval)
    # one worker per core, but never more than tile pairs
    tiles = [-(-mesh.size // szego._TILE) for mesh in meshes]
    assert workers == [min(cpus, t * (t + 1) // 2) for t in tiles]


@pytest.mark.parametrize(
    "dom, pts",
    [(_localization_piece(), (0.9j, 0.95j, 0.2 + 0.8j)),
     (annulus(), (0.6, 0.75j, -0.8 + 0.1j))],
    ids=["cornered", "annulus"])
def test_gmres_and_lu_paths_agree(dom, pts):
    mesh = mesh_boundary(dom, 512)
    spent = _spent(mesh, pts[0])
    for a in pts:
        fresh = SzegoSolver(mesh)
        sol = fresh.solve(a)
        v, k = sol.diag_value, fresh.kappa(sol)
        assert fresh.matvecs < LU_MATVECS  # never left GMRES
        before = spent.matvecs
        sol_lu = spent.solve(a)
        v_lu, k_lu = sol_lu.diag_value, spent.kappa(sol_lu)
        assert spent.matvecs == before  # no GMRES past the budget
        assert abs(v - v_lu) <= 1e-13 * v_lu
        assert abs(k - k_lu) <= 1e-12 * abs(k_lu)


def test_a_spent_solver_factors_exactly_once(monkeypatch):
    sizes = _count_factorizations(monkeypatch)
    solver = _spent(mesh_boundary(ellipse(), 256), 0.3)
    assert sizes == []
    for a in (0.3, 0.5j, -0.4 + 0.2j):
        solver.kappa(solver.solve(a))
    assert sizes == [256]


def test_a_gmres_miss_falls_through_to_lu(monkeypatch):
    mesh = mesh_boundary(_localization_piece(), 256)
    want = _spent(mesh, 0.9j).solve(0.9j).diag_value
    monkeypatch.setattr(szego, "gmres",
                        lambda op, rhs, **kwargs: (np.zeros_like(rhs), 1))
    assert SzegoSolver(mesh).solve(0.9j).diag_value == want


def test_curvature_solves_once_past_the_values(monkeypatch):
    # a point costs its settling pair n1, n2 and the derivative solve on
    # n2; kappa reuses the settled n2 solution, and later values solve
    # nothing
    solved = []
    real = SzegoSolver._solve

    def counting(self, rhs):
        solved.append(self.mesh.size)
        return real(self, rhs)

    monkeypatch.setattr(SzegoSolver, "_solve", counting)
    pts = [0.1, 0.2j, -0.3 + 0.1j]
    ev = SzegoEvaluator(fourier_blob())
    kappas = ev.curvatures(pts)
    assert sorted(solved) == [256] * 3 + [512] * 6
    values = ev.values(pts)
    assert len(solved) == 9
    mesh = mesh_boundary(ev.domain, 512)
    for a, k, v in zip(pts, kappas, values):
        solver = SzegoSolver(mesh)
        sol = solver.solve(a)
        assert v == 2.0 * np.pi * sol.diag_value
        assert k == solver.kappa(sol)


def test_few_point_meshes_never_factor(monkeypatch):
    # three points on each of four meshes: GMRES alone serves them
    sizes = _count_factorizations(monkeypatch)
    localization_experiment(ellipse(), 0.25, 0.5, [0.1, 0.05, 0.02])
    assert sizes == []


def test_the_suita_grid_meshes_factor_once_each(monkeypatch):
    # the grid batch settles on its (256, 512) pair; the trend points'
    # finer meshes serve a few solves each and stay on GMRES
    sizes = _count_factorizations(monkeypatch)
    verify_suita(fourier_blob(), 0.15, spacing=0.1)
    assert sorted(sizes) == [256, 512]
