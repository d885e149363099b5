"""Kernel solver checks: exact disc values, reproducing property, Ahlfors maps."""

import tracemalloc

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
from ahlfors_reference import (
    ahlfors_eval,
    garabedian_boundary,
    settled_solution,
    szego_boundary,
)
from curvature_reference import annulus_kappa, annulus_series
from kernel_reference import (
    broadcast_kerzman_stein,
    square_update_lu,
    uniform_pair_values,
)


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
    """A solver that has spent its MINRES budget solving at a; its next
    solve factors."""
    solver = SzegoSolver(mesh)
    while solver.matvecs < LU_MATVECS:
        solver.solve([a])
    return solver


def _count_factorizations(monkeypatch):
    """Node counts of the systems LU-factored from now on."""
    sizes = []
    real = SzegoSolver._factor

    def counting(self):
        if self._lu is None:
            sizes.append(self.mesh.size)
        return real(self)

    monkeypatch.setattr(SzegoSolver, "_factor", counting)
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
        (s,), (nu,) = solver.solve([a])
        bnd = nu / np.sqrt(mesh.weights)
        assert np.max(np.abs(bnd - _disc_kernel(mesh.nodes, a))) < 1e-13
        want = 1.0 / (2 * np.pi * (1.0 - abs(a) ** 2))
        assert s == pytest.approx(want, rel=1e-12)


def test_warped_parameterization_changes_nothing():
    # same circle, non-constant speed; the solve is purely geometric
    t = np.arange(512) / 512.0
    warp = t + 0.12 * np.sin(2 * np.pi * t) / (2 * np.pi)
    dom = Domain(curve_from_samples(np.exp(2j * np.pi * warp)), label="warped circle")
    mesh = mesh_boundary(dom, 256)
    _, bnd = szego_boundary(mesh, 0.3)
    assert np.max(np.abs(bnd - _disc_kernel(mesh.nodes, 0.3))) < 1e-12


def test_reproducing_identity_on_smooth_domains():
    # pairing any holomorphic f against the kernel recovers f(a)
    cases = ((ellipse(), 0.25 + 0.1j), (fourier_blob(), 0.1), (annulus(), 0.7))
    fs = (lambda z: np.ones_like(z), lambda z: z**2, lambda z: 1.0 / (z - 4.0))
    for dom, a in cases:
        mesh = mesh_boundary(dom, 256)
        s, bnd = szego_boundary(mesh, a)
        for f in fs:
            got = np.sum(f(mesh.nodes) * np.conj(bnd) * mesh.weights)
            assert abs(got - f(complex(a))) < 1e-12
        # the diagonal is the squared norm of the boundary values
        norm = np.sum(np.abs(bnd) ** 2 * mesh.weights)
        assert norm == pytest.approx(s, rel=1e-14)


def test_boundary_values_are_holomorphic_data():
    # Cauchy integral from outside annihilates Hardy-space boundary values
    for dom, a in ((ellipse(), 0.25 + 0.1j), (fourier_blob(), 0.1)):
        mesh = mesh_boundary(dom, 256)
        _, bnd = szego_boundary(mesh, a)
        out = np.sum(
            bnd * mesh.tangents * mesh.weights / (mesh.nodes - (3.0 + 1.0j))
        ) / (2j * np.pi)
        assert abs(out) < 1e-12


def test_garabedian_boundary_identities():
    mesh = mesh_boundary(unit_disc(), 256)
    lab = garabedian_boundary(mesh, szego_boundary(mesh, 0.5)[1])
    assert np.max(np.abs(lab - 1.0 / (2 * np.pi * (mesh.nodes - 0.5)))) < 1e-13
    # |L| = |S| pointwise on any boundary
    meshb = mesh_boundary(fourier_blob(), 256)
    _, bndb = szego_boundary(meshb, 0.1)
    labb = garabedian_boundary(meshb, bndb)
    assert np.max(np.abs(np.abs(labb) - np.abs(bndb))) < 1e-14


def test_base_point_clearance_guard():
    mesh = mesh_boundary(unit_disc(), 256)
    with pytest.raises(GeometryError, match="need > 3"):
        szego.require_clearance(mesh, 0.99, unit_disc().dist_to_boundary(0.99))


def test_ahlfors_map_on_discs_is_the_mobius_map():
    mesh = mesh_boundary(unit_disc(), 256)
    _, bnd = szego_boundary(mesh, 0.3)
    mob = lambda z: (z - 0.3) / (1.0 - 0.3 * z)
    for z in (0.0, 0.4 + 0.2j, -0.5j):
        v, vp = ahlfors_eval(mesh, 0.3, bnd, z)
        assert abs(v - mob(z)) < 1e-12
    # off-center disc: normalized mobius map, unique up to the f'(a) > 0 gauge,
    # so only the moduli of the map and its derivative are pinned
    d = disc(-0.5, 0.75)
    a2, z2 = -0.5 + 0.2j, -0.5 - 0.1j
    m2 = mesh_boundary(d, 256)
    _, bnd2 = szego_boundary(m2, a2)
    v, vp = ahlfors_eval(m2, a2, bnd2, z2)
    w = lambda z: (z + 0.5) / 0.75
    u0 = w(a2)
    mob2 = lambda z: (w(z) - u0) / (1.0 - np.conj(u0) * w(z))
    dmob2 = abs(1.0 - abs(u0) ** 2) / abs(1.0 - np.conj(u0) * w(z2)) ** 2 / 0.75
    assert abs(abs(v) - abs(mob2(z2))) < 1e-10
    assert abs(vp) == pytest.approx(dmob2, rel=1e-10)


def test_ahlfors_map_at_the_base_point():
    mesh = mesh_boundary(unit_disc(), 256)
    _, bnd = szego_boundary(mesh, 0.5)
    v, vp = ahlfors_eval(mesh, 0.5, bnd, 0.5)
    assert v == 0.0
    assert vp == pytest.approx(4.0 / 3.0, rel=1e-12)  # c at 0.5
    with pytest.raises(GeometryError, match="too close to the base point"):
        ahlfors_eval(mesh, 0.5, bnd, 0.5 + 1e-9)
    with pytest.raises(GeometryError, match="too close to the boundary"):
        ahlfors_eval(mesh, 0.5, bnd, 0.95)


def test_ahlfors_interior_values_agree_with_direct_cauchy():
    mesh = mesh_boundary(ellipse(), 256)
    _, bnd = szego_boundary(mesh, 0.25 + 0.1j)
    fb = bnd / garabedian_boundary(mesh, bnd)
    dw = mesh.tangents * mesh.weights
    z0 = 0.6 - 0.2j
    direct = np.sum(fb * dw / (mesh.nodes - z0)) / (2j * np.pi)
    v, _ = ahlfors_eval(mesh, 0.25 + 0.1j, bnd, z0)
    assert abs(v - direct) < 1e-9


def test_ahlfors_map_stays_inside_the_disc_ellipse():
    mesh = mesh_boundary(ellipse(), 256)
    _, bnd = szego_boundary(mesh, 0.25 + 0.1j)
    pts = grid_sample(ellipse(), 0.16, 0.1)
    vals = np.array(
        [ahlfors_eval(mesh, 0.25 + 0.1j, bnd, z)[0] for z in pts
         if abs(z - (0.25 + 0.1j)) > 1e-4]
    )
    assert vals.size == 485
    top = np.max(np.abs(vals))
    assert top < 1.0
    assert top == pytest.approx(0.980935376, abs=1e-7)


def test_ahlfors_map_stays_inside_the_disc_lens():
    lens = _symmetric_lens()
    mesh, _, bnd = settled_solution(SzegoEvaluator(lens), 0.0)
    pts = grid_sample(lens, 3.2 * mesh.h_max, 0.024)
    vals = np.array([ahlfors_eval(mesh, 0.0, bnd, z)[0] for z in pts
                     if abs(z) > 1e-4])
    assert vals.size > 1000
    top = np.max(np.abs(vals))
    assert top < 1.0
    assert top == pytest.approx(0.971038907, abs=1e-7)


def test_metric_values_with_doubling_check():
    # the uniform (256, 512) pair, which passes the doubling check
    for dom, z, want in ((unit_disc(), 0.0, 1.0), (unit_disc(), 0.5, 4.0 / 3.0),
                         (disc(0.0, 2.0), 0.0, 0.5)):
        got = uniform_pair_values(dom, 256, [z])[0]
        assert got == pytest.approx(want, rel=1e-10)


def test_annulus_metric_matches_the_kernel_series():
    # independent bilateral series for the diagonal on 0.5 < |z| < 1
    n = np.arange(-60, 61)
    series = float(np.sum(0.7 ** (2 * n) / (1.0 + 0.5 ** (2 * n + 1))))
    got = SzegoEvaluator(annulus()).value(0.7)
    assert got == pytest.approx(series, rel=1e-9)
    assert got == pytest.approx(3.240787521, abs=1e-8)


@pytest.mark.parametrize("q", [0.5, 0.1, 0.02])
def test_values_and_curvatures_next_to_the_hole_match_the_series(q):
    # holes are meshed at the outer curve's spacing, coarser than the
    # outer budget, so check where that matters most: down to 1.5 hole
    # radii, against the exact series.  Worst gaps seen: 1.3e-15 in
    # value, 2.1e-14 in kappa; a hole kept at 32 nodes on both meshes of
    # a pair read 2.4e-12 and 1.2e-12 here, at q = 0.02 and r = 0.03
    rs = [r for r in (1.5 * q, 2 * q, 3 * q, np.sqrt(q), (1 + q) / 2, 0.9)
          if r < 0.95]
    zs = np.outer(rs, np.exp(2j * np.pi * np.array([0.0, 0.13, 0.29, 0.6])))
    zs = zs.ravel()
    ev = SzegoEvaluator(annulus(q))
    values, kappas = ev.values(zs), ev.curvatures(zs)
    want = [annulus_series(q, abs(z))[0] for z in zs]
    assert np.max(np.abs(values / want - 1.0)) <= 1e-13
    want = [annulus_kappa(q, abs(z)) for z in zs]
    assert np.max(np.abs(kappas - want)) <= 1e-12


def test_doubling_rejects_an_unresolved_boundary():
    # 0.999 p, 1.04e-3 from the blob, was past the uniform ladder; meshes
    # adapted to its foot settle it on their (1024, 2048) pair
    dom = fourier_blob()
    p = dom.outer.point(0.1)
    ev = SzegoEvaluator(dom)
    assert ev.value(0.999 * p) == pytest.approx(482.99512, rel=1e-7)
    assert list(ev._settled) == [0.999 * p]
    # its finer mesh is no uniform one: the 2048-node rung adapted to
    # its foot
    rec = ev._settled[0.999 * p]
    assert rec.family == dom.foot(0.999 * p)
    assert rec.n2 == 2048
    # 0.9999 p, 1.04e-4 away, is past the clearance of the last adapted pair
    with pytest.raises((GeometryError, SolveError)):
        ev.value(0.9999 * p)


def _off_tile_meshes():
    """Two-curve and graded cornered meshes whose node counts leave
    partial tiles."""
    meshes = [mesh_boundary(dom, n) for dom in (annulus(), _localization_piece())
              for n in (300, 700)]
    assert all(mesh.size % tile != 0 for mesh in meshes
               for tile in (szego._TILE, szego._ASSEMBLY_TILE))
    return meshes


# first-order bounds on the relative error of one numpy operation, in
# units of u = eps / 2: a real product, a complex sum or difference and
# a real times a complex number round once per component; a complex
# product is within 2 sqrt 2 (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.6); numpy's complex division, Smith's algorithm,
# rounds its ratio, its denominator's product and sum, the denominator's
# reciprocal and the numerator's product, sum and scaling, so each
# component is within 8 |x / y| and the modulus within 8 sqrt 2
_ROUND, _CMUL, _CDIV = 1.0, 2.0 * np.sqrt(2.0), 8.0 * np.sqrt(2.0)
# each term of B_jk, of modulus V = sqrt(w_j w_k) / (2 pi |z_k - z_j|):
# the reference takes z_k - z_j, T / d, sqrt(w_j) sqrt(w_k), their
# product, fl(2 pi) and the division by 2 pi i
_REFERENCE_TERM = 4 * _ROUND + 2 * _CDIV
# the assembly takes z_k - z_j, sqrt(w_j) sqrt(w_k), q = that over d,
# fl(0.5 / fl(pi)) (two roundings), a = i/(2 pi) times T, and a q
_ASSEMBLY_TERM = 4 * _ROUND + _CDIV + 2 * _CMUL
# B_jk is two terms and one subtraction in either formula; in eps
_ASSEMBLY_UNITS = (2 * _REFERENCE_TERM + 2 * _ASSEMBLY_TERM + 4 * _ROUND) / 2


def test_assembly_is_skew_hermitian_and_near_the_broadcast_formula():
    # smooth, cornered, multiply connected, and node counts that leave
    # a partial tile
    meshes = [mesh_boundary(fourier_blob(), 256),
              mesh_boundary(_localization_piece(), 256),
              mesh_boundary(blob_with_hole(), 256),
              mesh_boundary(ellipse(), 300)] + _off_tile_meshes()
    eps = np.finfo(float).eps
    for mesh in meshes:
        b = kerzman_stein_matrix(mesh)
        # skew-hermitian bit for bit, signed zeros included, with a +0
        # diagonal
        want = -b.conj().T
        np.fill_diagonal(want, 0.0)
        assert b.tobytes() == want.tobytes()
        sw = np.sqrt(mesh.weights)
        dist = np.abs(mesh.nodes[None, :] - mesh.nodes[:, None])
        np.fill_diagonal(dist, 1.0)
        unit = eps * np.outer(sw, sw) / (2 * np.pi * dist)
        gap = np.abs(b - broadcast_kerzman_stein(mesh)) / unit
        assert gap.max() <= _ASSEMBLY_UNITS, (mesh.size, gap.max())


@pytest.mark.parametrize(
    "dom, pts",
    [(_localization_piece(), (0.9j, 0.95j, 0.2 + 0.8j)),
     (annulus(), (0.6, 0.75j, -0.8 + 0.1j))],
    ids=["cornered", "annulus"])
def test_minres_and_lu_paths_agree(dom, pts):
    mesh = mesh_boundary(dom, 512)
    spent = _spent(mesh, pts[0])
    for a in pts:
        fresh = SzegoSolver(mesh)
        (v,), nus = fresh.solve([a])
        (k,) = fresh.kappa([a], nus)
        assert fresh.matvecs < LU_MATVECS  # never left MINRES
        before = spent.matvecs
        (v_lu,), nus_lu = spent.solve([a])
        (k_lu,) = spent.kappa([a], nus_lu)
        assert spent.matvecs == before  # no MINRES past the budget
        assert abs(v - v_lu) <= 1e-13 * v_lu
        assert abs(k - k_lu) <= 1e-12 * abs(k_lu)


def test_a_spent_solver_factors_exactly_once(monkeypatch):
    sizes = _count_factorizations(monkeypatch)
    solver = _spent(mesh_boundary(ellipse(), 256), 0.3)
    assert sizes == []
    for a in (0.3, 0.5j, -0.4 + 0.2j):
        solver.kappa([a], solver.solve([a])[1])
    assert sizes == [256]


def test_a_minres_miss_falls_through_to_lu(monkeypatch):
    # the cornered piece needs about 20 products; two miss the tolerance
    mesh = mesh_boundary(_localization_piece(), 256)
    want = _spent(mesh, 0.9j).solve([0.9j])[0][0]
    monkeypatch.setattr(szego, "_RESTART", 2)
    solver = SzegoSolver(mesh)
    assert solver.solve([0.9j])[0][0] == want
    assert solver.matvecs == 2 and solver._lu is not None


def test_the_block_lu_matches_a_dense_solve_on_partial_tiles():
    # two-curve and cornered systems whose blocks end in a partial tile;
    # no pivoting is needed (see SzegoSolver)
    rng = np.random.default_rng(0)
    for mesh in _off_tile_meshes():
        solver = SzegoSolver(mesh)
        a_sys = solver._b + np.eye(mesh.size)
        rhs = rng.standard_normal((3, mesh.size, 2)) @ np.array([1.0, 1j])
        solver._factor()
        want = np.linalg.solve(a_sys, rhs.T).T
        got = solver._lu_solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_a_nan_in_the_system_raises_on_the_lu_path():
    solver = SzegoSolver(mesh_boundary(ellipse(), 256))
    solver._b[3, 5] = np.nan
    with pytest.raises(SolveError, match="non-finite"):
        solver.solve([0.3])
    assert solver._lu is None


def test_curvature_solves_once_past_the_values(monkeypatch):
    # a point costs its settling pair n1, n2 and the derivative solve on
    # n2; kappa reuses the settled n2 solution, and later values solve
    # nothing
    solved = []
    real = SzegoSolver._solve_rows

    def counting(self, rhs):
        solved.extend([self.mesh.size] * len(rhs))
        return real(self, rhs)

    monkeypatch.setattr(SzegoSolver, "_solve_rows", counting)
    pts = [0.1, 0.2j, -0.3 + 0.1j]
    ev = SzegoEvaluator(fourier_blob())
    kappas = ev.curvatures(pts)
    assert sorted(solved) == [256] * 3 + [512] * 6
    values = ev.values(pts)
    assert len(solved) == 9
    mesh = mesh_boundary(ev.domain, 512)
    for a, k, v in zip(pts, kappas, values):
        solver = SzegoSolver(mesh)
        s, nus = solver.solve([a])
        assert v == 2.0 * np.pi * s[0]
        assert k == solver.kappa([a], nus)[0]


def test_few_point_meshes_never_factor(monkeypatch):
    # three points on each of four meshes: MINRES alone serves them
    sizes = _count_factorizations(monkeypatch)
    localization_experiment(ellipse(), 0.25, 0.5, [0.1, 0.05, 0.02])
    assert sizes == []


def test_the_suita_grid_meshes_factor_once_each(monkeypatch):
    # the grid batch settles on its (256, 512) pair; the trend points'
    # finer meshes serve a few solves each and stay on MINRES
    sizes = _count_factorizations(monkeypatch)
    # MINRES runs per solver; a grid mesh prices its block after the first
    runs = {}
    real = SzegoSolver._minres

    def counting(self, rhs):
        runs[self] = runs.get(self, 0) + 1
        return real(self, rhs)

    monkeypatch.setattr(SzegoSolver, "_minres", counting)
    verify_suita(fourier_blob(), 0.15, spacing=0.1)
    assert sorted(sizes) == [256, 512]
    factored = [solver for solver in runs if solver._lu is not None]
    assert sorted(solver.mesh.size for solver in factored) == [256, 512]
    assert all(runs[solver] == 1 for solver in factored)


def test_a_grid_block_matches_point_by_point_solves():
    # one block per mesh, past MINRES one pair of triangular solves,
    # against each point settled and differentiated on its own
    blob = fourier_blob()
    grid = grid_sample(blob, 0.15, 0.1)
    ev = SzegoEvaluator(blob)
    kappas, values = ev.curvatures(grid), ev.values(grid)
    alone = SzegoEvaluator(blob)
    want_k = np.array([alone.curvatures([z])[0] for z in grid])
    want_v = np.array([alone.value(z) for z in grid])
    assert np.max(np.abs(values / want_v - 1.0)) <= 1e-14
    assert np.max(np.abs(kappas / want_k - 1.0)) <= 1e-14
    assert np.max(np.abs(kappas + 4.0)) <= 1e-12


def test_a_block_of_three_on_a_fresh_solver_keeps_the_minres_bits():
    mesh = mesh_boundary(fourier_blob(), 256)
    pts = [0.1, 0.2j, -0.3 + 0.1j]
    block = SzegoSolver(mesh)
    s, nus = block.solve(pts)
    kappas = block.kappa(pts, nus)
    assert block._lu is None and block.matvecs < LU_MATVECS
    single = SzegoSolver(mesh)
    for a, s_a, nu, k in zip(pts, s, nus, kappas):
        want_s, want_nus = single.solve([a])
        assert np.array_equal(nu, want_nus[0])
        assert s_a == want_s[0]
        assert k == single.kappa([a], want_nus)[0]


def test_the_factorization_needs_one_tile_column_beyond_the_matrix():
    # the Schur update runs one column block at a time, so past B's own
    # buffer, which it factors in place, it allocates at most one
    # n x _TILE block; a square update would take (n - _TILE)^2 entries
    mesh = mesh_boundary(ellipse(), 2048)
    solver = SzegoSolver(mesh)
    want = square_update_lu(solver._b)
    tracemalloc.start()
    try:
        solver._factor()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * mesh.size * szego._TILE
    assert np.array_equal(solver._lu, want)
