"""Verification suites: curvature bounds, product inequalities, limits."""

import io
import logging

import numpy as np
import pytest

from caratheodory.errors import GeometryError, SolveError
from caratheodory.geometry import boolean_intersect, boolean_union, curve_eval
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    blob_with_hole,
    converge_thickening,
    disc,
    ellipse,
    fourier_blob,
    localization_experiment,
    two_disc_pair,
    unit_disc,
    verify_solynin_two_discs,
    verify_submult,
    verify_suita,
)
from caratheodory.geometry import grid_sample
from caratheodory.harness import reports
from caratheodory.harness.reports import write_csv
from caratheodory.kernels import SzegoEvaluator, evaluator_for, evaluators
from curvature_reference import annulus_kappa, annulus_series
from solver_lifetimes import solver_lifetimes


# -- suita ---------------------------------------------------------------

def test_the_suita_scan_builds_no_uniform_mesh_past_1024(monkeypatch):
    # the trend's near points settle at their feet, and its curvatures
    # are asked as one batch, after the grid's
    uniform, asked = [], []
    real_mesh, real_kappa = evaluators.mesh_boundary, SzegoEvaluator.curvatures

    def meshing(domain, n, foot=None):
        if foot is None:
            uniform.append(n)
        return real_mesh(domain, n, foot)

    def spying(self, zs):
        asked.append(np.size(zs))
        return real_kappa(self, zs)

    monkeypatch.setattr(evaluators, "mesh_boundary", meshing)
    monkeypatch.setattr(SzegoEvaluator, "curvatures", spying)
    rep = verify_suita(fourier_blob(), 0.15, spacing=0.1)
    assert rep.passed
    assert max(uniform) <= 1024
    assert len(asked) == 2 and asked[1] == len(reports.TREND_DISTANCES)
    assert all(type(v) is float for v in rep.trend_values)


def test_suita_bound_on_the_ellipse():
    rep = verify_suita(ellipse(), 0.15, spacing=0.35)
    assert rep.passed and rep.trend_ok
    assert rep.tol == 1e-3
    assert rep.domain_label == "ellipse a=2 b=1"
    # simply connected, so kappa is -4 exactly (Suita); what is left is
    # rounding
    assert rep.kappa_min == pytest.approx(-4.0, abs=1e-9)
    assert rep.kappa_max == pytest.approx(-4.0, abs=1e-9)
    assert rep.trend_distances == (0.08, 0.04, 0.02)
    assert max(rep.trend_values) <= 1e-9


def test_suita_bound_on_the_blob():
    rep = verify_suita(fourier_blob(), 0.15, spacing=0.25)
    assert rep.passed and rep.trend_ok
    # simply connected, so kappa is -4 exactly (Suita)
    assert rep.kappa_min == pytest.approx(-4.0, abs=1e-9)
    assert rep.kappa_max == pytest.approx(-4.0, abs=1e-9)
    assert max(rep.trend_values) <= 1e-9


def test_suita_bound_on_the_annulus():
    rep = verify_suita(annulus(), 0.12, spacing=0.15)
    assert rep.passed and rep.trend_ok
    # exact values from the series of the annulus metric, radial in |z|:
    # kappa in [-4.0000373544, -4.0000044384] on the grid, and the trend
    # points 1 - d give |kappa + 4| = 7.77e-7, 4.80e-8, 2.93e-9, falling
    grid = grid_sample(annulus(), 0.12, 0.15)
    exact = [annulus_kappa(0.5, abs(z)) for z in grid]
    assert rep.kappa_min == pytest.approx(min(exact), abs=1e-10)
    assert rep.kappa_max == pytest.approx(max(exact), abs=1e-10)
    trend = [abs(annulus_kappa(0.5, 1.0 - d) + 4.0) for d in rep.trend_distances]
    assert np.allclose(rep.trend_values, trend, rtol=0, atol=1e-10)


@pytest.mark.parametrize("delta", [0.0, np.nan])
def test_suita_names_a_delta_that_stands_in_for_the_spacing(delta):
    with pytest.raises(GeometryError, match="delta is the spacing"):
        verify_suita(ellipse(), delta)


def test_suita_rejects_cornered_domains():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    with pytest.raises(GeometryError, match="smooth domain"):
        verify_suita(lens)


# -- solynin -------------------------------------------------------------

def test_solynin_on_crossing_discs():
    rep = verify_solynin_two_discs(*two_disc_pair("symmetric"))
    assert not rep.nested
    assert rep.passed
    assert rep.grid.size == 281
    assert len(rep.rows) == 281 and len(rep.rows[0]) == 7
    assert np.all(rep.ratios < 1.0)
    assert rep.max_ratio == pytest.approx(0.901572095052, abs=1e-9)


def test_solynin_on_nested_discs_is_an_identity():
    rep = verify_solynin_two_discs(*two_disc_pair("nested"))
    assert rep.nested and rep.passed
    assert rep.grid.size == 177
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rep.ratios - 1.0)) <= 1e-10


def test_solynin_survives_near_tangency():
    rep = verify_solynin_two_discs(*two_disc_pair("near_tangent"),
                                   delta=0.0005, spacing=0.005)
    assert not rep.nested
    assert rep.passed
    assert rep.grid.size == 13
    assert rep.max_ratio == pytest.approx(0.035610553071, abs=1e-9)


def test_solynin_input_validation():
    with pytest.raises(GeometryError, match="disc-tagged"):
        verify_solynin_two_discs(ellipse(), unit_disc())
    with pytest.raises(GeometryError, match="do not overlap"):
        verify_solynin_two_discs(disc(-3.0, 1.0), disc(3.0, 1.0))


# -- submultiplicativity -------------------------------------------------

def test_submult_on_crossing_discs():
    # the pins below are the sweep at spacing 0.15, not the 0.12 default
    rep = verify_submult(*two_disc_pair("symmetric"), spacing=0.15)
    assert rep.passed
    assert rep.dropped == 0
    assert len(rep.rows) == 37
    assert rep.max_ratio == pytest.approx(0.879085, abs=1e-6)
    assert rep.C_hat == pytest.approx(8.0, abs=1e-4)
    assert rep.bound == pytest.approx(np.sqrt(2.0), abs=1e-5)


def test_submult_on_nested_discs():
    rep = verify_submult(*two_disc_pair("nested"))
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.C_hat == pytest.approx(8.0, abs=1e-4)


def test_submult_with_the_szego_method_matches_the_closed_forms(
        monkeypatch):
    # every value and curvature from the Szego solve, built in place of
    # each domain's authority: kappa is -4 on each simply connected disc,
    # so C_hat = 8, and the ratio is the closed forms' 0.84375 up to the
    # solver's doubling tolerance
    auto = verify_submult(*two_disc_pair("symmetric"), spacing=0.5)
    monkeypatch.setattr(reports, "evaluator_for", SzegoEvaluator)
    rep = verify_submult(*two_disc_pair("symmetric"), spacing=0.5)
    assert len(rep.rows) == 3 and rep.dropped == 0
    assert rep.C_hat == pytest.approx(8.0, abs=1e-9)
    assert auto.max_ratio == pytest.approx(0.84375, rel=1e-12)
    assert rep.max_ratio == pytest.approx(auto.max_ratio, rel=1e-6)


@pytest.mark.parametrize("name, delta, spacing", [
    ("symmetric", 0.05, 0.06),
    ("asymmetric", 0.05, 0.06),
    ("nested", 0.05, 0.06),
    ("near_tangent", 0.0005, 0.005),
])
def test_solynin_is_the_product_sweep_on_discs(name, delta, spacing):
    # the Solynin baseline has no metric code of its own: its rows, grid
    # and max ratio are verify_submult's over the same pair and grid
    sol = verify_solynin_two_discs(*two_disc_pair(name), delta, spacing)
    sub = verify_submult(*two_disc_pair(name), delta, spacing)
    assert sub.dropped == 0
    assert np.array_equal(np.array(sol.rows), np.array(sub.rows))
    assert np.array_equal(sol.grid, sub.grid)
    assert sol.max_ratio == sub.max_ratio


def test_solynin_takes_no_curvature(monkeypatch):
    # the baseline has no C_hat, so its sweep skips the curvature pass
    def refuse(ev, z):
        raise AssertionError("curvature_at called")

    monkeypatch.setattr(reports, "curvature_at", refuse)
    assert verify_solynin_two_discs(*two_disc_pair("symmetric")).passed


def test_the_sweep_asks_each_curvature_batch_once(monkeypatch):
    # one curvatures call per domain and component, no per-point reads
    asked = []
    real = SzegoEvaluator.curvatures

    def spying(self, zs):
        asked.append(np.size(zs))
        return real(self, zs)

    def refuse(ev, z):
        raise AssertionError("curvature_at called")

    monkeypatch.setattr(SzegoEvaluator, "curvatures", spying)
    monkeypatch.setattr(reports, "curvature_at", refuse)
    monkeypatch.setattr(reports, "evaluator_for", SzegoEvaluator)
    rep = verify_submult(*two_disc_pair("symmetric"), spacing=0.5)
    assert rep.dropped == 0
    assert asked == [len(rep.rows)] * 2


def test_a_failed_curvature_batch_falls_back_point_by_point():
    class OneBadPoint:
        def curvatures(self, zs):
            zs = np.asarray(zs)
            if np.any(zs == 2.0):
                raise GeometryError("bad point")
            return np.full(zs.size, -4.0)

        def values(self, zs):
            return np.ones(np.size(zs))

    got = reports._kappa_or_nan(OneBadPoint(), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(got, [-4.0, np.nan, -4.0], equal_nan=True)


def test_the_pointwise_curvature_retry_asks_no_values():
    # each retried point costs one curvatures call and no values call
    asked = []

    class OneBadPoint:
        def curvatures(self, zs):
            asked.append(list(zs))
            if 2.0 in list(zs):
                raise GeometryError("bad point")
            return np.full(len(zs), -4.0)

        def values(self, zs):
            raise AssertionError("values called")

    got = reports._kappa_or_nan(OneBadPoint(), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(got, [-4.0, np.nan, -4.0], equal_nan=True)
    assert asked == [[1.0, 2.0, 3.0], [1.0], [2.0], [3.0]]


def _just_inside_the_outer_curve(dom):
    # 1e-4 inward of the outer curve at t = 0.3, past every mesh's clearance
    return dom.outer.point(0.3) - 1e-4 * curve_eval(dom.outer, 0.3).normal


@pytest.mark.parametrize("make, delta, spacing, bad", [
    (ellipse, 0.15, 0.1, lambda dom: 0.999j),
    (blob_with_hole, 0.02, 0.05, _just_inside_the_outer_curve),
], ids=["ellipse", "blob_with_hole"])
def test_a_point_that_cannot_settle_leaves_the_batch_whole(
        monkeypatch, make, delta, spacing, bad):
    # the refused point is the nearest, so it leads first; it is dropped,
    # the rest settle as the clean batch does, in as many climbs and to
    # the same bits, and the retry settles nothing again
    climbs = []
    real = SzegoEvaluator._climb

    def counting(self, zs, *rest):
        climbs.append(len(zs))
        return real(self, zs, *rest)

    monkeypatch.setattr(SzegoEvaluator, "_climb", counting)
    grid = grid_sample(make(), delta, spacing)
    want = reports._values_or_nan(SzegoEvaluator(make()), grid)
    clean, climbs[:] = list(climbs), []
    dom = make()
    ev = SzegoEvaluator(dom)
    with pytest.raises((GeometryError, SolveError), match="too close"):
        ev.values(np.append(grid, bad(dom)))
    assert len(ev._settled) == grid.size
    got = reports._values_or_nan(ev, np.append(grid, bad(dom)))
    assert got[:-1].tobytes() == want.tobytes()
    assert np.isnan(got[-1])
    assert climbs == clean


def test_a_sweep_over_two_components_matches_each_domain_evaluated_alone():
    # the ellipse cuts the annulus in two pieces; every row, C_hat and
    # the count of dropped points are those of each domain's authority
    # evaluated on its own over that component's grid, bit for bit
    d1, d2 = annulus(), ellipse(1.5, 0.25)
    rep = verify_submult(d1, d2, delta=0.05, spacing=0.2)
    comps = boolean_intersect(d1, d2)
    assert len(comps) == 2
    uni = boolean_union(d1, d2)
    rows, c_hat = [], 0.0
    for comp in comps:
        pts = grid_sample(comp, 0.05, 0.2)
        k_1 = evaluator_for(d1).curvatures(pts)
        k_2 = evaluator_for(d2).curvatures(pts)
        c_hat = max(c_hat, float(np.max(-(k_1 + k_2))))
        cols = [evaluator_for(dom).values(pts) for dom in (comp, uni, d1, d2)]
        rows += [(z.real, z.imag, a, b, u, v, a * b / (u * v))
                 for z, a, b, u, v in zip(pts, *cols)]
    assert len(rows) == 4 and rep.dropped == 0
    assert rep.rows == rows
    assert rep.C_hat == c_hat


def test_the_product_sweep_holds_one_domains_solvers_at_a_time():
    # the union's uniform (256, 512) pair and the blob's solvers are
    # never alive together: each evaluator goes before the next is
    # built.  The peak is the union's pair, 316 and 632 nodes: the union
    # has corners, so its point settles by the pair, while the blob's
    # 256 rung, 256 + 76 nodes (its hole is 0.29 of its outer length),
    # settles its point by the density's tail and builds no 512 rung
    with solver_lifetimes() as live:
        rep = verify_submult(*blob_disc_pair(), spacing=0.5)
    assert len(rep.rows) == 1
    assert live.peak_sizes == [316, 632]
    assert live.peak_bytes == 16 * (316**2 + 632**2) == 7_988_480


def test_submult_needs_an_overlap():
    with pytest.raises(GeometryError, match="do not intersect"):
        verify_submult(disc(-3.0, 1.0), disc(3.0, 1.0))


def test_submult_with_an_empty_intersection_grid():
    # spacing 3 leaves no lattice point in the blob-disc intersection; the
    # empty batch must reach the suite's own error, not a numpy one
    with pytest.raises(GeometryError, match="every grid point failed"):
        verify_submult(*blob_disc_pair(), spacing=3.0)


# -- thickening convergence ----------------------------------------------

def test_thickening_a_disc_has_exact_values():
    rep = converge_thickening(unit_disc(), 0.0, [0.2, 0.1, 0.05])
    assert rep.point == 0.0
    assert rep.eps_list == (0.2, 0.1, 0.05)
    assert np.allclose(rep.values, (1 / 1.2, 1 / 1.1, 1 / 1.05), rtol=1e-12)
    assert rep.limit_value == pytest.approx(1.0, rel=1e-12)
    assert rep.monotone
    assert rep.rel_gap_at_min_eps == pytest.approx(0.05 / 1.05, rel=1e-9)


def test_thickening_validation():
    with pytest.raises(GeometryError, match="must be positive"):
        converge_thickening(unit_disc(), 0.0, [])
    with pytest.raises(GeometryError, match="must be positive"):
        converge_thickening(unit_disc(), 0.0, [0.1, -0.1])
    with pytest.raises(GeometryError, match="strictly decreasing"):
        converge_thickening(unit_disc(), 0.0, [0.1, 0.2])
    with pytest.raises(GeometryError, match="not inside"):
        converge_thickening(unit_disc(), 3.0, [0.1])
    # a nan once got past both checks and reached the offset's k-d tree
    with pytest.raises(GeometryError, match="finite"):
        converge_thickening(ellipse(), 0.3, [0.1, np.nan])


@pytest.fixture(scope="module")
def annulus_thickening():
    return converge_thickening(annulus(), 0.7, [0.08, 0.04, 0.02, 0.01])


def test_annulus_thickening_closes_the_gap(annulus_thickening):
    # deliberate check kept strict: it FAILS.  the hole shrinks by eps
    # while the outer circle grows by eps, and the metric of an annulus
    # is so sensitive to the modulus that at eps = 0.01 the value still
    # sits 4.2% under the limit.  the companion below pins the exact
    # trajectory against the independent series.
    assert annulus_thickening.rel_gap_at_min_eps < 0.01


def test_annulus_thickening_tracks_the_series(annulus_thickening):
    rep = annulus_thickening
    assert rep.monotone
    assert rep.limit_value == pytest.approx(3.240787521, abs=1e-8)
    for e, v in zip(rep.eps_list, rep.values):
        q, r = 0.5 - e, 1.0 + e
        want = annulus_series(q / r, 0.7 / r)[0] / r
        assert v == pytest.approx(want, rel=1e-6)
    gaps = [(rep.limit_value - v) / rep.limit_value for v in rep.values]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3] > 0


# -- localization --------------------------------------------------------

def test_localization_on_the_disc():
    got = localization_experiment(unit_disc(), 0.0, 0.5, [0.1, 0.05, 0.02])
    assert np.all(got >= 1.0 - 1e-9)
    assert np.allclose(got, [1.055730, 1.013007, 1.002010], atol=1e-5)


def test_localization_on_the_ellipse():
    got = localization_experiment(ellipse(), 0.25, 0.5, [0.1, 0.05, 0.02])
    assert np.all(got >= 1.0 - 1e-9)
    assert np.allclose(got, [1.073072, 1.017576, 1.002772], atol=1e-5)


def test_localization_warns_outside_the_asymptotic_regime(caplog):
    with caplog.at_level(logging.WARNING, logger="caratheodory.harness.reports"):
        got = localization_experiment(unit_disc(), 0.0, 0.5, [0.4])
    assert got[0] == pytest.approx(3.652591, abs=1e-5)
    assert "not in the asymptotic regime" in caplog.text


def test_localization_validation():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    corner = lens.outer.corner_params[0]
    with pytest.raises(GeometryError, match="sits on a corner"):
        localization_experiment(lens, corner, 0.5, [0.1])
    with pytest.raises(GeometryError, match="must be positive"):
        localization_experiment(unit_disc(), 0.0, 0.5, [])
    with pytest.raises(GeometryError, match="strictly decreasing"):
        localization_experiment(unit_disc(), 0.0, 0.5, [0.05, 0.1])
    with pytest.raises(GeometryError, match="reaches outside"):
        localization_experiment(unit_disc(), 0.0, 0.5, [0.6])
    # a nan distance is refused as such, not blamed on the radius
    with pytest.raises(GeometryError, match="distances must be positive and finite"):
        localization_experiment(ellipse(), 0.25, 0.5, [0.1, np.nan])


@pytest.mark.parametrize("t, radius, why", [
    (np.nan, 0.5, "boundary_param must be finite"),
    (np.inf, 0.5, "boundary_param must be finite"),
    (0.25, np.nan, "neighborhood_radius must be positive and finite"),
    (0.25, np.inf, "neighborhood_radius must be positive and finite"),
])
def test_localization_refuses_a_point_or_radius_that_is_not_finite(
        monkeypatch, t, radius, why):
    # refused by name before any geometry is built, not by the distance
    # tree's "data must be finite"
    def refuse(*args):
        raise AssertionError("geometry built")

    monkeypatch.setattr(reports, "disc", refuse)
    monkeypatch.setattr(reports, "boolean_intersect", refuse)
    with pytest.raises(GeometryError, match=why):
        localization_experiment(ellipse(), t, radius, [0.1])


# -- csv -----------------------------------------------------------------

def test_csv_format_is_stable():
    buf = io.StringIO()
    write_csv(buf, ["re", "im", "tag"], [(1.0, 0.25, "x"), (2, -0.125, "y")])
    assert buf.getvalue() == "re,im,tag\n1,0.25,x\n2,-0.125,y\n"
