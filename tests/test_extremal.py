"""LP lower bounds: pole placement, certificates, degree ladders."""

import logging

import numpy as np
import pytest

from caratheodory.errors import GeometryError
from caratheodory.geometry import Domain, TrigCurve, boolean_intersect, boolean_union
from caratheodory.kernels import LPEvaluator, SzegoEvaluator, disc_metric
from caratheodory.kernels.closed_forms import SectorPullback
from caratheodory.extremal import ExtremalProblem, choose_poles, lp_caratheodory_lower
from caratheodory.harness import annulus, disc, ellipse, fourier_blob, two_disc_pair, unit_disc
from caratheodory.harness.reports import _values_or_nan


def _circle(center, radius, n=128):
    t = np.arange(n) / n
    return TrigCurve(center + radius * np.exp(2j * np.pi * t))


def _certified(domain, a, degree, samples=512, angles=64):
    return lp_caratheodory_lower(
        ExtremalProblem(domain, a, degree, samples, angles))


def test_pole_anchors_sit_at_hole_centroids():
    assert choose_poles(unit_disc()) == []
    (p,) = choose_poles(annulus())
    assert abs(p) < 1e-10
    two = Domain(_circle(0.0, 1.5, 256),
                 [_circle(-0.35, 0.2), _circle(0.4 + 0.25j, 0.15)],
                 label="two holes")
    p1, p2 = choose_poles(two)
    assert abs(p1 - (-0.35)) < 1e-10
    assert abs(p2 - (0.4 + 0.25j)) < 1e-10


def test_problem_validation():
    with pytest.raises(GeometryError, match="degree must be at least 1"):
        ExtremalProblem(unit_disc(), 0.0, 0)
    with pytest.raises(GeometryError, match="at least 16 constraint angles"):
        ExtremalProblem(unit_disc(), 0.0, 5, 512, 8)
    with pytest.raises(GeometryError, match="not inside the domain"):
        ExtremalProblem(unit_disc(), 2.0, 5)
    with pytest.raises(GeometryError, match="boundary samples"):
        ExtremalProblem(unit_disc(), 0.0, 24, 32, 64)


def test_disc_certificate_at_the_center():
    # the optimal face is f = (1+it)w with |t| <= tan(pi/512): the cuts
    # at angles 2*pi*l/64 meet samples 2*pi/512 apart.  Both vertices give
    # sup_check = sec(pi/512), so certified = cos(pi/64)*cos(pi/512)
    # whichever one HiGHS returns
    exact = np.cos(np.pi / 64) * np.cos(np.pi / 512)
    cert = _certified(unit_disc(), 0.0, 5)
    assert cert.raw_lp_value == pytest.approx(1.0, abs=1e-8)
    assert cert.certified_value == pytest.approx(exact, abs=1e-8)
    assert 0.995 < cert.certified_value <= 1.0
    assert 1.0 <= cert.sup_check < 1.001
    # the whole construction is scale covariant
    cert2 = _certified(disc(0.0, 2.0), 0.0, 5)
    assert cert2.certified_value == pytest.approx(cert.certified_value / 2.0, rel=1e-9)
    assert cert2.certified_value == pytest.approx(exact / 2.0, abs=1e-8)


def test_annulus_certificate_approaches_the_solver_value():
    cert = _certified(annulus(), 0.7, 20)
    assert cert.certified_value == pytest.approx(3.232001578, abs=1e-6)
    assert cert.certified_value <= 3.240787521
    assert abs(cert.certified_value - 3.240787521) / 3.240787521 < 0.005


def test_certified_values_rise_with_degree_on_the_disc():
    # deliberate check kept strict: it FAILS.  the raw LP optimum is
    # monotone in the basis (see the companion below), but the certified
    # value divides by a sup check that grows with degree, and at degree
    # 24 that rescale wins by ~2.7e-5.  the companion records both ladders.
    vals = [_certified(unit_disc(), 0.3, n).certified_value for n in (3, 6, 12, 24)]
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]


def test_degree_ladders_on_the_disc():
    certs = [_certified(unit_disc(), 0.3, n) for n in (3, 6, 12, 24)]
    raw = [c.raw_lp_value for c in certs]
    cer = [c.certified_value for c in certs]
    sup = [c.sup_check for c in certs]
    want_raw = [1.069341492421, 1.098129300610, 1.098902701322, 1.098905570961]
    want_cer = [1.067867179, 1.096717530, 1.097568280, 1.097541796]
    assert np.allclose(raw, want_raw, atol=1e-8)
    assert np.allclose(cer, want_cer, atol=1e-8)
    assert raw[0] < raw[1] < raw[2] < raw[3]
    # raw*cos(pi/64)/certified puts 1.000009789 at degree 12, not degree 3
    assert sup[2] == pytest.approx(1.000009789, abs=1e-8)
    assert sup[3] == pytest.approx(1.000036531, abs=1e-8)
    # every certificate stays below the true metric
    truth = disc_metric(0.0, 1.0, 0.3)
    assert all(c <= truth + 1e-9 for c in cer)


def test_certified_values_rise_with_degree_on_the_annulus():
    vals = [_certified(annulus(), 0.7, n).certified_value for n in (3, 6, 12, 24)]
    want = [2.690550988, 3.066664070, 3.216403766, 3.232238374]
    assert np.allclose(vals, want, atol=1e-7)
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_lens_field_dominates_the_circumscribed_disc():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    pts = 1j * np.linspace(0.0, 0.6, 10)
    vals = LPEvaluator(lens, degree=12, samples_per_curve=256).values(pts)
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "intersection")
    r_circ = np.sqrt(3.0) / 2.0
    for z, v in zip(pts, vals):
        assert v >= disc_metric(0.0, r_circ + 1e-9, z)
        assert v <= pull.density(z) + 1e-9


def test_union_field_marches_up_toward_the_crossing_point():
    uni = boolean_union(*two_disc_pair("symmetric"))
    pts = 1j * np.linspace(0.0, 0.75, 10)
    vals = LPEvaluator(uni, degree=12, samples_per_curve=256).values(pts)
    want = [0.8317, 0.8378, 0.8570, 0.8905, 0.9407,
            1.0118, 1.1118, 1.2483, 1.4339, 1.6907]
    assert np.allclose(vals, want, atol=6e-5)
    assert np.all(np.diff(vals) > 0)
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "union")
    assert np.all(vals <= pull.density(pts) + 1e-9)


def test_field_reports_nan_where_the_certificate_fails(caplog):
    # the harness's nan guard is the one place failed points become nan
    ev = LPEvaluator(unit_disc(), degree=5, samples_per_curve=128, angle_count=16)
    with caplog.at_level(logging.WARNING, logger="caratheodory.harness.reports"):
        vals = _values_or_nan(ev, np.array([0.5, 2.5]))
    assert np.isfinite(vals[0]) and vals[0] > 0
    assert np.isnan(vals[1])
    assert "dropping 2.5 from 'lp'" in caplog.text


def test_blob_certificate_stays_under_the_solver_value():
    lp = _certified(fourier_blob(), 0.1, 24).certified_value
    sz = SzegoEvaluator(fourier_blob()).value(0.1)
    assert lp == pytest.approx(1.033292879, abs=1e-6)
    assert sz == pytest.approx(1.036270608, abs=1e-6)
    assert lp <= sz + 1e-6
    assert (sz - lp) / sz < 0.01


def test_certificates_respect_domain_inclusion():
    # B(0,1) sits inside the ellipse, so its metric and its bound sit above
    small = _certified(unit_disc(), 0.3, 5).certified_value
    big = _certified(ellipse(), 0.3, 5).certified_value
    assert small > big
