"""Evaluator routing, covariance under affine maps, boundary blow-up."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caratheodory.errors import GeometryError
from caratheodory.geometry import BoundaryMesh, Domain, TrigCurve, boolean_intersect, boolean_union, curve_eval, curve_from_samples, grid_sample, mesh_boundary, thicken
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
from caratheodory.harness.reports import TREND_DISTANCES
from ahlfors_reference import settled_solution
from kernel_reference import uniform_pair_values
from solver_lifetimes import solver_lifetimes
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    blob_with_hole,
    disc,
    ellipse,
    fourier_blob,
    localization_experiment,
    two_disc_pair,
    disc_with_holes,
    unit_disc,
    verify_suita,
)


def test_auto_routing_picks_the_right_backend():
    assert evaluator_for(disc(0.3, 2.0)).kind == "closed_form_disc"
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    assert evaluator_for(lens).kind == "closed_form_sector_pullback"
    uni = boolean_union(*two_disc_pair("symmetric"))
    assert evaluator_for(uni).kind == "closed_form_sector_pullback"
    # an annulus's one closed form in the package is its Poincare density,
    # which is not c_D (c_D is the series in curvature_reference), so it
    # goes to the solver
    assert evaluator_for(annulus()).kind == "szego"
    assert evaluator_for(fourier_blob()).kind == "szego"
    # piecewise boundaries with no closed form (offsets, booleans of
    # interpolated curves) go to the graded Szego solve, never to the LP
    assert evaluator_for(thicken(lens, 0.1)).kind == "szego"
    blob, dsc = blob_disc_pair()
    assert evaluator_for(boolean_intersect(blob, dsc)[0]).kind == "szego"
    assert evaluator_for(boolean_union(blob, dsc)).kind == "szego"


def test_method_argument_forces_a_backend():
    # routing takes no method: a backend is forced by building its
    # evaluator, which refuses a domain its formula does not cover
    assert SzegoEvaluator(disc()).kind == "szego"
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
    # each domain has one authority: no method chooses another, and no
    # node count pins the solver's mesh, on any route
    for dom in (disc(), ellipse()):
        for kwargs in ({"method": "szego"}, {"method": "lp"}, {"n": 64}):
            with pytest.raises(TypeError):
                evaluator_for(dom, **kwargs)
    with pytest.raises(TypeError):
        SzegoEvaluator(ellipse(), n=64)


def _count_work(monkeypatch):
    """Node counts of the meshes built and of the systems solved, one
    entry per right-hand side."""
    built, solved = [], []
    real_mesh, real_solve = evaluators.mesh_boundary, SzegoSolver._solve_rows

    def meshing(domain, n, foot=None):
        built.append(n)
        return real_mesh(domain, n, foot)

    def solving(self, rhs):
        solved.extend([self.mesh.size] * len(rhs))
        return real_solve(self, rhs)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    monkeypatch.setattr(SzegoSolver, "_solve_rows", solving)
    return built, solved


def _pairs(ev):
    """Each settled point with the rung that settled it, in settling
    order, read off its record: (z, n) when it is the uniform mesh of n
    nodes on the outer curve, (z, "foot") when it is adapted to a
    foot."""
    return [(z, rec.n) if rec.family is None else (z, "foot")
            for z, rec in ev._settled.items()]


def test_annulus_poincare_evaluator_wraps_the_closed_form():
    ev = AnnulusPoincareEvaluator(annulus(0.49, 1.01))
    want = poincare_annulus(0.49 / 1.01, 0.7 / 1.01) / 1.01
    assert ev.value(0.7) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "nan_j"])
def test_closed_form_evaluators_refuse_non_finite_points(z):
    for ev in (evaluator_for(unit_disc()),
               AnnulusPoincareEvaluator(annulus(0.49, 1.01)),
               evaluator_for(boolean_intersect(*two_disc_pair())[0])):
        with pytest.raises(GeometryError, match="outside"):
            ev.value(z)
        with pytest.raises(GeometryError, match="outside"):
            ev.curvatures([0.0, z])


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
    # 0.99j, past the uniform ladder, settles on meshes adapted to its
    # foot, at the value the uniform 4096-node mesh gives
    ev = SzegoEvaluator(ellipse())
    assert ev.value(0.99j) * 0.01 == pytest.approx(0.500640, abs=1e-6)
    # 1e-4 from the top, under 3 local spacings of the adapted 1024-node mesh
    with pytest.raises(GeometryError, match="need >"):
        ev.value(0.9999j)


def test_szego_solution_keeps_the_clearance_guard():
    # the kernel solution solved again on the mesh the record names is
    # the one that settles the value ...
    ev = SzegoEvaluator(ellipse())
    _, s, _ = settled_solution(ev, 0.998j)
    assert 2.0 * np.pi * s == ev.value(0.998j)
    # ... and refuses what values refuses: at 0.999j the adapted 1024-node
    # mesh stretches its far-side node at -1j to spacing 0.67, and
    # 3 * 0.67 > 1.999
    with pytest.raises(GeometryError, match="need >"):
        settled_solution(ev, 0.999j)


def test_szego_evaluator_climbs_the_mesh_ladder():
    # the thickened lens has C1 cap joins: 256 -> 512 moves the value by
    # 1.66e-5 against the 1e-5 tolerance, 512 -> 1024 by 7.4e-6
    grown = thicken(boolean_intersect(*two_disc_pair("symmetric"))[0], 0.01)
    ev = SzegoEvaluator(grown)
    got = ev.value(0.0)
    assert got == pytest.approx(1.7000316, rel=1e-7)
    assert _pairs(ev) == [(0j, 1024)]
    assert got == pytest.approx(uniform_pair_values(grown, 1024, [0.0])[0],
                                rel=1e-6)
    # the certificate is a lower bound on the settled value
    assert got >= LPEvaluator(grown).value(0.0)


def test_the_climb_solves_each_mesh_once(monkeypatch):
    # the 512-node solution that fails the (256, 512) check is the coarse
    # one of (512, 1024), so no mesh solves the point twice
    grown = thicken(boolean_intersect(*two_disc_pair("symmetric"))[0], 0.01)
    _, solved = _count_work(monkeypatch)
    SzegoEvaluator(grown).value(0.0)
    assert solved == [256, 512, 1024]


def test_a_settled_point_keeps_its_value_in_a_later_batch(monkeypatch):
    ev = SzegoEvaluator(ellipse())
    first = ev.value(0.3)
    _, solved = _count_work(monkeypatch)
    got = ev.values([0.3, 0.95j])
    # 0.3 keeps the value its 256 rung settled (tail 4.6e-15); only
    # 0.95j is solved, on meshes adapted to its foot: the ellipse is
    # smooth, so its adapted climb starts at 256, whose mesh clears
    # 0.95j, and its tail there, 4.7e-7, sends it to 512
    assert got[0] == first
    assert solved == [256, 512]
    assert _pairs(ev) == [(0.3 + 0j, 256), (0.95j, "foot")]
    assert ev.value(0.3) == first and solved == [256, 512]


def _localization_piece():
    # the ellipse cut by the radius-0.5 disc about its boundary point i
    dom = ellipse()
    return boolean_intersect(disc(dom.outer.point(0.25), 0.5), dom)[0]


@pytest.mark.parametrize("make, zs", [
    (annulus, [0.75, -0.7j]),
    (_localization_piece, [0.9j, 0.95j]),
], ids=["annulus", "cornered_piece"])
def test_curvatures_after_values_build_no_solver(monkeypatch, make, zs):
    # both batches settle on uniform pairs, so their records name the
    # cached solver of their finer rung, which solves them again and
    # takes their derivative solves, to the bits curvatures-first gives
    ev = SzegoEvaluator(make())
    ev.values(zs)
    built = []
    real = SzegoSolver.__init__

    def init(self, mesh):
        built.append(mesh.size)
        real(self, mesh)

    monkeypatch.setattr(SzegoSolver, "__init__", init)
    got = ev.curvatures(zs)
    assert built == []
    monkeypatch.undo()
    assert np.array_equal(got, SzegoEvaluator(make()).curvatures(zs))


@pytest.mark.parametrize("asks", [["curvatures"], ["values", "curvatures"]],
                         ids=["curvatures", "values_then_kappa"])
def test_a_second_curvatures_call_solves_nothing(monkeypatch, asks):
    # 0.3 settles on the uniform (256, 512) pair and 0.97j on a pair
    # adapted to its foot; once a record holds kappa, it is read back
    ev = SzegoEvaluator(ellipse())
    zs = [0.3, 0.97j]
    for ask in asks:
        first = getattr(ev, ask)(zs)
    _, solved = _count_work(monkeypatch)
    assert np.array_equal(ev.curvatures(zs), first)
    assert solved == []


def test_records_hold_no_density_and_no_mesh():
    # a smooth grid and a holed one: each record is a value, a kappa or
    # None, a rung and a family, the foot or None, and nothing more
    banned = (np.ndarray, BoundaryMesh)
    for dom in (fourier_blob(), blob_with_hole()):
        ev = SzegoEvaluator(dom)
        ev.values(grid_sample(dom, 0.15, 0.1))
        assert ev._settled
        for rec in ev._settled.values():
            assert not isinstance(rec, banned)
            assert type(rec).__slots__ == ("value", "kappa", "n", "family")
            fields = [rec.value, rec.kappa, rec.n, *(rec.family or ())]
            assert not any(isinstance(f, banned) for f in fields)


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
    # the pins were taken on the uniform 4096-node mesh; routing meets
    # them on meshes adapted to the foot
    ev = evaluator_for(ellipse())
    gaps = []
    for d, want in ((0.04, 0.502746), (0.02, 0.501311), (0.01, 0.500640)):
        cd = ev.value(1j * (1.0 - d)) * d
        assert cd == pytest.approx(want, abs=1e-6)
        gaps.append(cd - 0.5)
    for d in (0.005, 0.002):
        gaps.append(ev.value(1j * (1.0 - d)) * d - 0.5)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > 0


# the localization march toward the ellipse's top, t = 0.25
_MARCH = [0.9j, 0.95j, 0.98j]


def _blob_trend():
    # verify_suita's trend points, inward from the blob's point at t = 0
    blob = fourier_blob()
    v = blob.outer.velocity(0.0)
    return blob, [blob.outer.point(0.0) + d * 1j * v / abs(v)
                  for d in TREND_DISTANCES]


def _hole_march(dom, t):
    # the trend distances inward from the hole's point at t; the hole
    # runs counterclockwise, so the domain is on its right
    hole = dom.holes[0]
    v = hole.velocity(t)
    return [hole.point(t) - d * 1j * v / abs(v) for d in TREND_DISTANCES]


def test_foot_adapted_values_match_the_uniform_2048_pin():
    # the nearest point leads, and the (256, 512) pair adapted to its
    # foot clears all three, so it settles the whole batch, in the
    # batch's order; the uniform (2048, 4096) pair clears every point.
    # On the simply connected domains kappa is -4; on the hole side of
    # the holed ones it is not, and is checked against that pair's
    blob, trend = _blob_trend()
    cases = [(ellipse(), _MARCH), (blob, trend)]
    for dom, t in ((blob_with_hole(), 0.3), (annulus(), 0.1)):
        cases.append((dom, _hole_march(dom, t)))
    for dom, zs in cases:
        ev = SzegoEvaluator(dom)
        got = ev.values(zs)
        assert _pairs(ev) == [(complex(z), "foot") for z in zs]
        assert len({(ev._settled[z].family, ev._settled[z].n)
                    for z in zs}) == 1
        want, kappa = uniform_pair_values(dom, 2048, zs, kappa=True)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        if not dom.holes:
            kappa = -4.0
        assert np.max(np.abs(ev.curvatures(zs) - kappa)) <= 1e-12


def test_the_cornered_piece_settles_at_its_feet():
    # the foot is one more break of the corner grading
    piece = _localization_piece()
    ev = SzegoEvaluator(piece)
    got = ev.values(_MARCH)
    assert _pairs(ev) == [(z, "foot") for z in _MARCH]
    want = uniform_pair_values(piece, 2048, _MARCH)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-8


@pytest.mark.parametrize("make, zs, rel", [
    # -0.3j is far, past the clearance of the mesh adapted to 0.98j's
    # foot; 0.3, on the 256 rung, shares 0.98j's adapted pair
    (ellipse, [-0.3j, 0.3, 0.98j], 1e-12),
    (_localization_piece, [0.65j, 0.9j, 0.98j], 1e-8),
], ids=["ellipse", "cornered_piece"])
def test_a_mixed_batch_settles_alike_in_every_order(make, zs, rel):
    # the nearest point leads whatever the order, so each point settles
    # on the same pair; only the order of a block's columns moves bits
    runs = []
    for order in itertools.permutations(zs):
        ev = SzegoEvaluator(make())
        got = dict(zip(order, ev.values(order)))
        runs.append(([got[z] for z in zs],
                     [(ev._settled[complex(z)].family,
                       ev._settled[complex(z)].n) for z in zs]))
    want, pairs = runs[0]
    for got, settled_on in runs[1:]:
        assert settled_on == pairs
        assert np.max(np.abs(np.divide(got, want) - 1.0)) <= 1e-14
    pin = uniform_pair_values(make(), 2048, zs)
    assert np.max(np.abs(want / pin - 1.0)) <= rel


def test_equidistant_leads_settle_alike_in_either_order():
    # 0.52j and 0.98j are both 0.02000000000000024 from the piece's
    # boundary; the tie is broken by their feet, not by the batch's order,
    # so 0.75j and 0.9j join the same lead's adapted pair either way
    piece = _localization_piece()
    assert piece.foot(0.52j)[2] == piece.foot(0.98j)[2]
    zs = [0.52j, 0.75j, 0.9j, 0.98j]
    want = SzegoEvaluator(_localization_piece()).values(zs)
    got = SzegoEvaluator(_localization_piece()).values(zs[-1:] + zs[:-1])
    assert np.array_equal(np.roll(got, -1), want)


@pytest.mark.parametrize("make, start", [(ellipse, 256),
                                         (_localization_piece, 512)],
                         ids=["ellipse", "cornered_piece"])
def test_the_march_builds_one_adapted_pair_and_no_uniform_solver(
        monkeypatch, make, start):
    # the localization march on both of its domains: the uniform 256 and
    # 512 rungs only measure clearance, and the pair adapted to 0.98j's
    # foot settles all three points.  It starts on the first adapted
    # rung, 256 on the smooth ellipse and 512 on the cornered piece, and
    # its mesh clears all three
    meshes, solved = [], []
    real_mesh, real_init = evaluators.mesh_boundary, SzegoSolver.__init__

    def meshing(domain, n, foot=None):
        meshes.append((n, foot is not None))
        return real_mesh(domain, n, foot)

    def init(self, mesh):
        solved.append(mesh)
        real_init(self, mesh)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    monkeypatch.setattr(SzegoSolver, "__init__", init)
    ev = SzegoEvaluator(make())
    ev.values(_MARCH)
    assert meshes == [(256, False), (512, False),
                      (start, True), (2 * start, True)]
    assert len(solved) == 2 and ev._solvers == {}
    uniform = {id(mesh) for mesh in ev._meshes.values()}
    assert not any(id(mesh) in uniform for mesh in solved)


@pytest.mark.parametrize("far, pair", [(-0.3j, (256, 256)),
                                       (-0.9j, (512, 1024))])
def test_a_point_the_foot_mesh_cannot_clear_keeps_its_uniform_pair(far, pair):
    # the mesh adapted to 0.98j's foot stretches its nodes on the far
    # side, and both far points sit within 3 local spacings of a node
    # (their gaps are 0.39 and 0.055 of that on the 256-node mesh 0.98j
    # leads on), so the group 0.98j leads leaves them pending; each then
    # leads on its uniform rung, pair[0], 256 for -0.3j and 512 for
    # -0.9j, and keeps the bits of the rung that settles it, pair[1]:
    # -0.3j's tail on 256 is 5.0e-15, -0.9j's is 3.1e-5 on 512
    zs = [far, 0.95j, 0.98j]
    ev = SzegoEvaluator(ellipse())
    got = ev.values(zs)
    assert _pairs(ev) == [(0.95j, "foot"), (0.98j, "foot"), (far, pair[1])]
    solver = SzegoSolver(mesh_boundary(ellipse(), pair[1]))
    assert got[0] == 2.0 * np.pi * solver.solve([far])[0][0]


def test_a_batch_the_adapted_mesh_clears_settles_on_its_pair():
    # 0.5j, which the 256 rung clears, joins the group 0.97j leads: the
    # 256-node mesh adapted to 0.97j's foot clears it too, so the batch
    # does not split by uniform rung (the one adapted to 0.98j's foot
    # clears no point the 256 rung clears).  Each point has the bits of
    # a lone solve on the group's finer mesh (its block's right-hand
    # sides run MINRES one by one), and 0.97j the value it has alone
    zs = [0.5j, 0.95j, 0.97j]
    ev = SzegoEvaluator(ellipse())
    got = ev.values(zs)
    assert _pairs(ev) == [(complex(z), "foot") for z in zs]
    dom = ellipse()
    solver = SzegoSolver(mesh_boundary(dom, 512, dom.foot(0.97j)))
    assert np.array_equal(
        got, [2.0 * np.pi * solver.solve([z])[0][0] for z in zs])
    assert got[2] == SzegoEvaluator(ellipse()).value(0.97j)


def test_a_top_rung_doubling_failure_sends_only_that_point_to_its_foot(
        monkeypatch):
    # the uniform (1024, 2048) pair moves the value at 0.96j by 2.3e-9,
    # and at 0.3 and 0.9j by under 3e-15; 0.96j's tail is 2.6e-4 on 1024
    # nodes, so the group climbs, and 7.0e-8 on 2048, where TAIL_FACTOR
    # tail^2 is 4.9e-12, so at a 1e-12 tolerance neither test settles it
    # there and only 0.96j leaves the shared top rung; its adapted pair
    # agrees to 1e-15.  The 1024 rung clears no point for the shared
    # climb, so the whole batch is sent to that climb from it here, by a
    # ladder whose only rung below its top is 1024
    monkeypatch.setattr(SzegoEvaluator, "_LADDER", (1024, 1024))
    ev = SzegoEvaluator(ellipse())
    ev.tol = 1e-12
    ev.values([0.3, 0.9j, 0.96j])
    assert _pairs(ev) == [(0.3 + 0j, 2048), (0.9j, 2048), (0.96j, "foot")]


def test_only_the_latest_foot_solver_is_kept():
    # no foot group's solver outlives its settling: curvatures build
    # each group's adapted solver again, to the bits the same batch gets
    # when its curvatures come first
    for zs in ([0.97j, 0.98j], [0.95j, 0.97j, 0.99j],
               [0.3, 0.96j, 0.98j, -1.97]):
        ev = SzegoEvaluator(ellipse())
        ev.values(zs)
        first = SzegoEvaluator(ellipse()).curvatures(zs)
        assert np.array_equal(ev.curvatures(zs), first)


@pytest.mark.parametrize("asks", [["values"], ["curvatures"],
                                  ["values", "curvatures"]],
                         ids=["values", "curvatures", "values_then_kappa"])
def test_a_foot_group_drops_its_solver_before_the_next_group(asks):
    # four points near the ellipse's four vertices settle in four foot
    # groups, each on an adapted (256, 512) pair; each group's finer
    # solver goes once its curvatures are taken, before the next lead
    # builds its meshes, and curvatures asked later rebuild them one at
    # a time, so no two solvers are ever alive together
    ev = SzegoEvaluator(ellipse())
    with solver_lifetimes() as live:
        for ask in asks:
            getattr(ev, ask)([0.98j, -0.98j, 1.97, -1.97])
    assert live.peak_sizes == [512]
    assert live.peak_bytes == 16 * 512**2


def test_near_boundary_batches_build_no_uniform_mesh_past_1024(monkeypatch):
    built = []
    real = evaluators.mesh_boundary

    def meshing(domain, n, foot=None):
        built.append((n, foot is not None))
        return real(domain, n, foot)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    SzegoEvaluator(ellipse()).values([0.97j, 0.98j, 0.99j])
    # the uniform 256 and 512 rungs only measure clearance; the 256-node
    # mesh adapted to the foot of 0.99j does not clear it (its node at
    # -1j is 1.99 away, under 3 local spacings, 2.51), so the three
    # points share the (512, 1024) pair adapted to that foot
    assert built == [(256, False), (512, False), (256, True), (512, True),
                     (1024, True)]


def test_smooth_foot_groups_solve_no_system_past_512_nodes(monkeypatch):
    # the suites' near-boundary batches on smooth domains settle on
    # adapted (256, 512) pairs; the cornered localization piece keeps
    # its (512, 1024) start, whose finer mesh merges a node at a corner
    built = []
    real = SzegoSolver.__init__

    def init(self, mesh):
        per_curve = max(hi - lo for lo, hi in mesh.curve_slices)
        built.append((mesh.owner, per_curve))
        real(self, mesh)

    monkeypatch.setattr(SzegoSolver, "__init__", init)
    verify_suita(fourier_blob(), 0.15, spacing=0.1)
    assert built and max(n for _, n in built) <= 512
    built.clear()
    dom = ellipse()
    localization_experiment(dom, 0.25, 0.5, [0.1, 0.05, 0.02])
    smooth = [n for owner, n in built if owner is dom]
    assert smooth and max(smooth) <= 512
    assert [n for owner, n in built if owner is not dom] == [512, 1023]


def _grown_lens():
    return thicken(boolean_intersect(*two_disc_pair("symmetric"))[0], 0.01)


def test_a_point_its_foot_cannot_clear_falls_back_to_the_top_pair(
        monkeypatch):
    # meshes adapted to the far side of the ellipse leave 0.96j too
    # little clearance on every rung, so its foot path cannot start; the
    # uniform 1024 rung clears it, so it climbs from there, and its tail
    # on 1024 nodes, 2.6e-4, sends it on to 2048
    real = evaluators.mesh_boundary

    def far_side(domain, n, foot=None):
        if foot is not None:
            foot = (foot[0], (foot[1] + 0.5) % 1.0, foot[2])
        return real(domain, n, foot)

    monkeypatch.setattr(evaluators, "mesh_boundary", far_side)
    ev = SzegoEvaluator(ellipse())
    got = ev.value(0.96j)
    assert _pairs(ev) == [(0.96j, 2048)]
    solver = SzegoSolver(real(ellipse(), 2048))
    assert got == 2.0 * np.pi * solver.solve([0.96j])[0][0]
    # 0.98j is past the 1024 rung's clearance too, so it is refused
    with pytest.raises(GeometryError, match="need >"):
        ev.value(0.98j)


def test_a_ring_of_near_points_settles_in_foot_groups(monkeypatch):
    # 24 points 0.025 inside the ellipse, past the 1024 rung's clearance
    dom = ellipse()
    ring = []
    for t in np.arange(24) / 24:
        v = dom.outer.velocity(t)
        ring.append(dom.outer.point(t) + 0.025j * v / abs(v))
    adapted = []
    real = evaluators.mesh_boundary

    def meshing(domain, n, foot=None):
        if foot is not None:
            adapted.append(n)
        return real(domain, n, foot)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    got = SzegoEvaluator(dom).values(ring)
    assert len(adapted) < 2 * len(ring)
    want = uniform_pair_values(ellipse(), 2048, ring)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("make, zs, n", [
    # tails on 256 nodes under 5e-15
    (ellipse, [0.3, -0.2 + 0.3j], 256),
    # 0.9j leads on 512, where its tail is 3.1e-5; on 1024 it is 9.8e-10
    (ellipse, [0.3, 0.9j], 1024),
    # the C1 cap joins move the value at 0.584j by 4.9e-5 and 2.3e-5 on
    # the lower pairs, and by 1.4e-6 on (1024, 2048), against 1e-5
    (_grown_lens, [0.584j], 2048),
], ids=["256", "512", "1024"])
def test_uniform_rung_batches_keep_their_keys_and_bits(make, zs, n):
    # each batch settles on the uniform rung n, with the bits of lone
    # solves there
    ev = SzegoEvaluator(make())
    got = ev.values(zs)
    assert _pairs(ev) == [(complex(z), n) for z in zs]
    solver = SzegoSolver(mesh_boundary(make(), n))
    want = [2.0 * np.pi * solver.solve([z])[0][0] for z in zs]
    assert np.array_equal(got, want)


def test_a_smooth_grid_pays_one_rung(monkeypatch):
    # every row of the blob's grid on the 256 rung has a Fourier tail
    # under 2.1e-7, which the rule accepts, so the grid settles there,
    # values and curvatures alike, and no 512-node mesh is built or
    # solved.  Against the (2048, 4096) pin the values were measured
    # 8.9e-16 off (relative) and kappa 6.6e-14 (absolute; 2e-14 against
    # 2048-node solves, so most of it is the pin's own rounding); the
    # bounds are those gaps times 4.5, rounded up
    dom = fourier_blob()
    grid = grid_sample(dom, 0.15, 0.1)
    built, solved = _count_work(monkeypatch)
    ev = SzegoEvaluator(dom)
    kappas = ev.curvatures(grid)
    values = ev.values(grid)
    assert built == [256]
    assert set(solved) == {256} and len(solved) == 2 * len(grid)
    want, want_kappa = uniform_pair_values(dom, 2048, grid, kappa=True)
    assert np.max(np.abs(values / want - 1.0)) <= 4e-15
    assert np.max(np.abs(kappas - want_kappa)) <= 3e-13


@pytest.mark.parametrize("holes, zs", [
    # a 0.02 gap between the hole and the outer circle: on 256 nodes the
    # tails read 1.2e-7 but the values are 3.8e-8 off; the mesh keeps
    # CLEARANCE spacings across the gap from 1024 nodes on
    ([(0.78, 0.2)], [-0.64, -0.5, 0.5j, -0.3j]),
    # two holes 0.01 apart: on 512 nodes the tails read 5.5e-7 and the
    # values are 1.5e-7 off
    ([(-0.205, 0.2), (0.205, 0.2)], [0.5j, -0.6j, 0.7, -0.7j]),
], ids=["hole_near_the_rim", "holes_near_each_other"])
def test_curves_that_nearly_touch_keep_the_pair(holes, zs):
    # the tail understates the error where two curves come within
    # CLEARANCE node spacings, so there the values settle by the pair
    dom = disc_with_holes(holes)
    ev = SzegoEvaluator(dom)
    got = ev.values(zs)
    solver = SzegoSolver(mesh_boundary(dom, 4096))
    want = 2.0 * np.pi * solver.solve(zs)[0]
    del solver
    assert np.max(np.abs(got / want - 1.0)) <= ev.tol


@st.composite
def _blob_and_points(draw):
    """A Fourier blob r(t) e^{it} (r = 1 plus up to three modes of
    amplitude <= 0.06), with or without a round hole of radius 0.2
    centred within 0.1 of 0, and up to three points at least 0.1 from
    the hole and 0.15 from the outer curve."""
    modes = draw(st.lists(st.tuples(st.integers(2, 6),
                                    st.floats(-0.06, 0.06),
                                    st.floats(-0.06, 0.06)),
                          min_size=1, max_size=3))
    angles = 2.0 * np.pi * np.arange(256) / 256
    r = np.ones(256)
    for k, c, s in modes:
        r += c * np.cos(k * angles) + s * np.sin(k * angles)
    outer = TrigCurve(r * np.exp(1j * angles))
    polar = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    pts = draw(st.lists(polar, min_size=1, max_size=3))
    if not draw(st.booleans()):
        return Domain(outer), [0.65 * u * np.exp(2j * np.pi * v)
                               for u, v in pts]
    u, v = draw(polar)
    center = 0.1 * u * np.exp(2j * np.pi * v)
    hole = TrigCurve(center + 0.2 * np.exp(1j * angles))
    return Domain(outer, [hole]), [
        center + (0.3 + 0.25 * u) * np.exp(2j * np.pi * v) for u, v in pts]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_blob_and_points())
def test_settled_values_are_within_tol_of_2048_node_solves(case):
    dom, zs = case
    ev = SzegoEvaluator(dom)
    got = ev.values(zs)
    want = 2.0 * np.pi * SzegoSolver(mesh_boundary(dom, 2048)).solve(zs)[0]
    assert np.max(np.abs(got / want - 1.0)) <= ev.tol
