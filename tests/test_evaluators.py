"""Evaluator routing, covariance under affine maps, boundary blow-up."""

import numpy as np
import pytest

from caratheodory.errors import GeometryError, SolveError
from caratheodory.geometry import Domain, boolean_intersect, boolean_union, curve_eval, curve_from_samples, mesh_boundary, thicken
from caratheodory.kernels import (
    AnnulusPoincareEvaluator,
    ClosedFormDiscEvaluator,
    LPEvaluator,
    SectorPullbackEvaluator,
    SzegoEvaluator,
    disc_metric,
    evaluator_for,
    poincare_annulus,
)
from caratheodory.kernels import evaluators
from caratheodory.kernels.szego import SzegoSolver
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    disc,
    ellipse,
    fourier_blob,
    two_disc_pair,
    unit_disc,
)


def test_auto_routing_picks_the_right_backend():
    assert evaluator_for(disc(0.3, 2.0)).kind == "closed_form_disc"
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    assert evaluator_for(lens).kind == "closed_form_sector_pullback"
    uni = boolean_union(*two_disc_pair("symmetric"))
    assert evaluator_for(uni).kind == "closed_form_sector_pullback"
    # a plain annulus has no closed Caratheodory form, so it goes to the solver
    assert evaluator_for(annulus()).kind == "szego"
    assert evaluator_for(fourier_blob()).kind == "szego"
    # piecewise boundaries with no closed form (offsets, booleans of
    # interpolated curves) go to the graded Szego solve, never to the LP
    assert evaluator_for(thicken(lens, 0.1)).kind == "szego"
    blob, dsc = blob_disc_pair()
    assert evaluator_for(boolean_intersect(blob, dsc)[0]).kind == "szego"
    assert evaluator_for(boolean_union(blob, dsc)).kind == "szego"


def test_method_argument_forces_a_backend():
    assert evaluator_for(disc(), method="szego").kind == "szego"
    # LP certificates are built as LPEvaluator, never routed to
    for method in ("newton", "lp"):
        with pytest.raises(GeometryError, match="unknown method"):
            evaluator_for(disc(), method=method)
    with pytest.raises(GeometryError, match="not tagged as a disc"):
        ClosedFormDiscEvaluator(ellipse())
    with pytest.raises(GeometryError, match="not tagged as an annulus"):
        AnnulusPoincareEvaluator(unit_disc())


def test_evaluator_for_refuses_keywords_it_does_not_take():
    # the grading exponent is a mesh constant, no longer a keyword that
    # routing silently dropped on its way to a closed form; the LP degree
    # belongs to LPEvaluator, which routing never returns
    with pytest.raises(TypeError):
        evaluator_for(disc(), grading_exponent=2.0)
    with pytest.raises(TypeError):
        evaluator_for(ellipse(), degree=3)


def test_evaluator_for_refuses_an_option_its_backend_does_not_use():
    # n pins the Szego mesh; it is not dropped on its way to a closed form
    with pytest.raises(GeometryError, match="n is not an option of the closed"):
        evaluator_for(disc(), n=64)
    assert evaluator_for(ellipse(), n=64).n_override == 64


def test_a_pin_the_mesh_ladder_cannot_pair_is_refused():
    # a pin is a node count mesh_boundary accepts and at most the cap: the
    # pinned mesh is where clearance is checked and values settle
    for n in (0, 30, 33, -64):
        with pytest.raises(GeometryError, match="n_per_curve"):
            SzegoEvaluator(ellipse(), n=n)
    with pytest.raises(GeometryError, match="mesh cap 4096"):
        SzegoEvaluator(ellipse(), n=8192)


def _count_work(monkeypatch):
    """Node counts of the meshes built and of the systems solved."""
    built, solved = [], []
    real_mesh, real_solve = evaluators.mesh_boundary, SzegoSolver._solve

    def meshing(domain, n):
        built.append(n)
        return real_mesh(domain, n)

    def solving(self, rhs):
        solved.append(self.mesh.size)
        return real_solve(self, rhs)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    monkeypatch.setattr(SzegoSolver, "_solve", solving)
    return built, solved


def test_a_pin_at_the_cap_solves_each_point_once(monkeypatch):
    # the pair (cap, cap) collapses: one solve, no doubling check
    monkeypatch.setattr(SzegoEvaluator, "_CAP", 512)
    built, solved = _count_work(monkeypatch)
    ev = SzegoEvaluator(ellipse(), n=512)
    assert built == [512]
    got = ev.values([0.1, 0.3j])
    assert solved == [512, 512]
    sol = SzegoSolver(mesh_boundary(ellipse(), 512)).solve(0.1)
    assert got[0] == 2.0 * np.pi * sol.diag_value


def test_a_pin_above_the_cap_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(SzegoEvaluator, "_CAP", 512)
    built, solved = _count_work(monkeypatch)
    with pytest.raises(GeometryError, match="mesh cap 512"):
        SzegoEvaluator(ellipse(), n=1024)
    assert built == [] and solved == []


def test_annulus_poincare_evaluator_wraps_the_closed_form():
    ev = AnnulusPoincareEvaluator(annulus(0.49, 1.01))
    want = poincare_annulus(0.49 / 1.01, 0.7 / 1.01) / 1.01
    assert ev.value(0.7) == pytest.approx(want, rel=1e-12)


def test_value_and_values_agree_and_are_positive():
    pts = np.array([0.3, -0.2 + 0.3j])
    for ev in (evaluator_for(unit_disc()), SzegoEvaluator(ellipse())):
        batch = ev.values(pts)
        singles = np.array([ev.value(p) for p in pts])
        assert np.array_equal(batch, singles)
        assert np.all(batch > 0)


def test_szego_evaluator_takes_an_empty_batch():
    assert SzegoEvaluator(ellipse()).values([]).size == 0


def test_szego_evaluator_rejects_points_hugging_the_boundary():
    with pytest.raises(GeometryError, match="need >"):
        SzegoEvaluator(ellipse()).value(0.99j)


def test_szego_solution_keeps_the_clearance_guard():
    # 0.999j is 0.001 from the ellipse, under 3 node spacings of every
    # mesh on the ladder; the kernel solution must refuse it like values
    with pytest.raises(GeometryError, match="need >"):
        SzegoEvaluator(ellipse()).solution(0.999j)


def test_szego_evaluator_climbs_the_mesh_ladder():
    # the thickened lens has C1 cap joins: 256 -> 512 moves the value by
    # 1.66e-5 against the 1e-5 tolerance, 512 -> 1024 by 7.4e-6
    grown = thicken(boolean_intersect(*two_disc_pair("symmetric"))[0], 0.01)
    ev = SzegoEvaluator(grown)
    got = ev.value(0.0)
    assert got == pytest.approx(1.7000316, rel=1e-7)
    assert list(ev._settled) == [(0j, 512, 1024)]
    assert got == pytest.approx(SzegoEvaluator(grown, n=1024).value(0.0),
                                rel=1e-6)
    # the certificate is a lower bound on the settled value
    assert got >= LPEvaluator(grown, angle_count=128).value(0.0)
    # a pinned mesh never climbs
    with pytest.raises(SolveError, match="did not settle"):
        SzegoEvaluator(grown, n=256).value(0.0)


def test_metric_shrinks_when_the_domain_grows():
    # ellipse(2, 1) sits between the discs of radius 1 and 2
    ev = SzegoEvaluator(ellipse())
    for z in (0.0, 0.3, -0.2 + 0.3j):
        c = ev.value(z)
        assert c <= disc_metric(0.0, 1.0, z) * (1 + 1e-6)
        assert c >= disc_metric(0.0, 2.0, z) * (1 - 1e-6)
    # annulus inside the unit disc
    assert SzegoEvaluator(annulus()).value(0.7) >= disc_metric(0.0, 1.0, 0.7)


def test_affine_covariance_of_the_metric():
    base = fourier_blob().outer
    ts = np.arange(512) / 512.0
    pts = np.array([curve_eval(base, t).point for t in ts])
    a = 0.1
    ref = SzegoEvaluator(fourier_blob()).value(a)
    for s, b in ((2.0, 0.0), (0.5j, 0.3 - 0.2j)):
        dom = Domain(curve_from_samples(s * pts + b), label="moved blob")
        got = SzegoEvaluator(dom).value(s * a + b)
        assert got * abs(s) == pytest.approx(ref, rel=1e-6)


def test_disc_blowup_rate_at_the_boundary():
    # c(z) * dist(z) = 1 / (2 - d) exactly on the unit disc
    ev = evaluator_for(unit_disc())
    for d in (0.04, 0.02, 0.01):
        assert ev.value(1.0 - d) * d == pytest.approx(1.0 / (2.0 - d), rel=1e-12)


def test_ellipse_blowup_rate_at_the_boundary():
    # marching toward the top of the ellipse, c * dist creeps toward 1/2.
    # one big fixed mesh serves all three depths; the closest point needs
    # node spacing under d/3, which is what n=4096 buys (about a minute).
    ev = SzegoEvaluator(ellipse(), n=4096)
    gaps = []
    for d, want in ((0.04, 0.502746), (0.02, 0.501311), (0.01, 0.500640)):
        cd = ev.value(1j * (1.0 - d)) * d
        assert cd == pytest.approx(want, abs=1e-6)
        gaps.append(cd - 0.5)
    assert gaps[0] > gaps[1] > gaps[2] > 0
