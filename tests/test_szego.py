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
from caratheodory.kernels.szego import SzegoSolver, kerzman_stein_matrix
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
from kernel_reference import broadcast_kerzman_stein, uniform_pair_values


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


def _count_dense(monkeypatch):
    """Node counts of the systems given to a LAPACK solve from now on."""
    sizes = []
    real = SzegoSolver._dense

    def counting(self, rhs):
        sizes.append(self.mesh.size)
        return real(self, rhs)

    monkeypatch.setattr(SzegoSolver, "_dense", counting)
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
    # its settling mesh is no uniform one: the 2048-node rung adapted to
    # its foot, where its tail, 1.7e-5 on 1024 nodes, falls to 4.6e-8
    rec = ev._settled[0.999 * p]
    assert rec.family == dom.foot(0.999 * p)
    assert rec.n == 2048
    # 0.9999 p, 1.04e-4 away, is past the clearance of the last adapted pair
    with pytest.raises((GeometryError, SolveError)):
        ev.value(0.9999 * p)


def _off_tile_meshes():
    """Two-curve and graded cornered meshes whose node counts leave
    partial assembly tiles."""
    meshes = [mesh_boundary(dom, n) for dom in (annulus(), _localization_piece())
              for n in (300, 700)]
    assert all(mesh.size % szego._ASSEMBLY_TILE != 0 for mesh in meshes)
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
def test_cg_and_dense_paths_agree(monkeypatch, dom, pts):
    mesh = mesh_boundary(dom, 512)
    solver = SzegoSolver(mesh)
    sizes = _count_dense(monkeypatch)
    cg = [solver.solve([a], kappa=True) for a in pts]
    assert sizes == []  # conjugate gradients alone
    monkeypatch.setattr(szego, "LU_MATVECS", 0)  # no product to spend
    for a, ((v,), _, (k,)) in zip(pts, cg):
        (v_lu,), _, (k_lu,) = solver.solve([a], kappa=True)
        assert abs(v - v_lu) <= 1e-13 * v_lu
        assert abs(k - k_lu) <= 1e-12 * abs(k_lu)
    assert sizes == [mesh.size] * len(pts)


def test_a_dense_solve_leaves_b_unchanged(monkeypatch):
    # a wide block goes to LAPACK at once; B, all a solver keeps, comes
    # back to the bit, so the next narrow call has a fresh solver's bits
    mesh = mesh_boundary(ellipse(), 256)
    solver = SzegoSolver(mesh)
    before = solver._b.copy()
    sizes = _count_dense(monkeypatch)
    solver.solve(grid_sample(ellipse(), 0.15, 0.1), kappa=True)
    assert sizes == [256]
    assert solver._b.tobytes() == before.tobytes()
    got = solver.solve([0.3, 0.5j], kappa=True)
    want = SzegoSolver(mesh).solve([0.3, 0.5j], kappa=True)
    assert sizes == [256]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_cg_miss_falls_through_to_the_dense_solve(monkeypatch):
    # the cornered piece's columns need 22 products; 10 miss
    mesh = mesh_boundary(_localization_piece(), 256)
    (want,), _ = SzegoSolver(mesh).solve([0.9j])
    misses, sizes = [], _count_dense(monkeypatch)
    real = SzegoSolver._cg

    def tracking(self, rhs, products):
        x = real(self, rhs, products)
        misses.append(x is None)
        return x

    monkeypatch.setattr(SzegoSolver, "_cg", tracking)
    monkeypatch.setattr(szego, "LU_MATVECS", 10)
    (got,), _ = SzegoSolver(mesh).solve([0.9j])
    assert misses == [True] and sizes == [256]
    assert abs(got - want) <= 1e-13 * want


def test_a_nan_in_the_system_raises_on_the_lu_path():
    # conjugate gradients meet the nan and miss; the LAPACK solve
    # refuses it before it touches B
    solver = SzegoSolver(mesh_boundary(ellipse(), 256))
    solver._b[3, 5] = np.nan
    with pytest.raises(SolveError, match="non-finite"):
        solver.solve([0.3])
    assert np.all(solver._b.diagonal() == 0.0)


def test_curvature_solves_once_past_the_values(monkeypatch):
    # a point whose tail settles it on the 256 rung costs that one solve,
    # its value and derivative rows stacked; later values solve nothing
    solved = []
    real = SzegoSolver.solve

    def counting(self, a, kappa=False):
        solved.extend([self.mesh.size] * len(a) * (2 if kappa else 1))
        return real(self, a, kappa)

    monkeypatch.setattr(SzegoSolver, "solve", counting)
    pts = [0.1, 0.2j, -0.3 + 0.1j]
    ev = SzegoEvaluator(fourier_blob())
    kappas = ev.curvatures(pts)
    assert solved == [256] * 6
    values = ev.values(pts)
    assert len(solved) == 6
    mesh = mesh_boundary(ev.domain, 256)
    for a, k, v in zip(pts, kappas, values):
        s, _, kappa = SzegoSolver(mesh).solve([a], kappa=True)
        assert v == 2.0 * np.pi * s[0]
        assert k == kappa[0]


def test_few_point_meshes_never_factor(monkeypatch):
    # three points on each of four meshes: conjugate gradients alone
    # serve them
    sizes = _count_dense(monkeypatch)
    localization_experiment(ellipse(), 0.25, 0.5, [0.1, 0.05, 0.02])
    assert sizes == []


def test_the_suita_grid_meshes_factor_once_each(monkeypatch):
    # the grid batch settles on its 256 rung, whose tails resolve every
    # point, so no 512-node uniform mesh is solved, and its 226 points
    # take one LAPACK solve; the trend points' adapted meshes serve a
    # few points each by conjugate gradients
    sizes = _count_dense(monkeypatch)
    verify_suita(fourier_blob(), 0.15, spacing=0.1)
    assert sizes == [256]


def test_a_grid_block_matches_point_by_point_solves():
    # one block per mesh, past conjugate gradients one LAPACK solve,
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


@pytest.mark.parametrize(
    "make", [lambda: annulus(0.2), blob_with_hole, ellipse],
    ids=["annulus", "blob_with_hole", "ellipse"])
def test_values_then_curvatures_give_the_bits_of_curvatures_first(make):
    # the re-solve of points settled without kappa runs the block's
    # values and derivative rows in one call, down the path its points
    # choose, as the settling call did
    dom = make()
    grid = grid_sample(dom, 0.05, 0.05)
    first = SzegoEvaluator(dom)
    values, kappas = first.values(grid), first.curvatures(grid)
    later = SzegoEvaluator(dom)
    want_k, want_v = later.curvatures(grid), later.values(grid)
    assert np.array_equal(values, want_v)
    assert np.array_equal(kappas, want_k)

def test_a_block_of_three_on_a_fresh_solver_keeps_the_cg_bits(monkeypatch):
    mesh = mesh_boundary(fourier_blob(), 256)
    pts = [0.1, 0.2j, -0.3 + 0.1j]
    sizes = _count_dense(monkeypatch)
    s, nus, kappas = SzegoSolver(mesh).solve(pts, kappa=True)
    assert sizes == []
    single = SzegoSolver(mesh)
    for a, s_a, nu, k in zip(pts, s, nus, kappas):
        (want_s,), (want_nu,), (want_k,) = single.solve([a], kappa=True)
        assert np.array_equal(nu, want_nu)
        assert s_a == want_s
        assert k == want_k


def test_a_dense_solve_copies_no_matrix_in_numpy():
    # I + B is set up in B's buffer, so past LAPACK's own copy (outside
    # numpy's allocator) the solve allocates B's finiteness mask, n^2
    # bytes, and its right-hand sides; np.eye(n) + B would take 24 n^2
    mesh = mesh_boundary(ellipse(), 1024)
    solver = SzegoSolver(mesh)
    rhs = solver._rhs(np.array([0.1, 0.5j, -0.3]), 1)
    tracemalloc.start()
    try:
        solver._dense(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * mesh.size**2
