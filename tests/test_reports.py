"""Verification suites: curvature bounds, product inequalities, limits."""

import io
import logging

import numpy as np
import pytest

from caratheodory.errors import GeometryError
from caratheodory.geometry import boolean_intersect
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
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
from caratheodory.harness.reports import write_csv
from curvature_reference import annulus_kappa, annulus_series


# -- suita ---------------------------------------------------------------

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


def test_submult_with_the_szego_method_matches_the_closed_forms():
    # every value and curvature from the Szego solve: kappa is -4 on each
    # simply connected disc, so C_hat = 8, and the ratio is auto's 0.84375
    # (closed forms) up to the solver's doubling tolerance
    auto = verify_submult(*two_disc_pair("symmetric"), spacing=0.5)
    rep = verify_submult(*two_disc_pair("symmetric"), spacing=0.5,
                         method="szego")
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


# -- csv -----------------------------------------------------------------

def test_csv_format_is_stable():
    buf = io.StringIO()
    write_csv(buf, ["re", "im", "tag"], [(1.0, 0.25, "x"), (2, -0.125, "y")])
    assert buf.getvalue() == "re,im,tag\n1,0.25,x\n2,-0.125,y\n"
