"""Certificates: pole placement, lower bounds against closed forms and the
solver, degree ladders.

On the unit disc the basis is orthonormal in closed form, z^k/sqrt(2 pi),
so the degree-N certificate at r is (1 - r^(2N+2))/(1 - r^2).  On the
annulus q < |z| < 1 so are the z^k, k in Z, with norms 2 pi (1 +
q^(2k+1)), so it is sum_{|k| <= N} r^(2k)/(1 + q^(2k+1)).
"""

import logging

import numpy as np
import pytest

from caratheodory.errors import ExtremalError, GeometryError
from caratheodory.geometry import (
    Domain,
    TrigCurve,
    boolean_intersect,
    boolean_union,
    thicken,
)
from caratheodory.kernels import LPEvaluator, SzegoEvaluator, disc_metric
from caratheodory.kernels.closed_forms import SectorPullback
from caratheodory.extremal import (
    ExtremalProblem,
    choose_poles,
    lp,
    lp_caratheodory_lower,
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
from caratheodory.harness.reports import _values_or_nan


def _circle(center, radius, n=128):
    t = np.arange(n) / n
    return TrigCurve(center + radius * np.exp(2j * np.pi * t))


def _certified(domain, a, degree):
    return float(lp_caratheodory_lower(ExtremalProblem(domain, degree), [a])[0])


def _disc_bound(r, degree):
    return (1.0 - r ** (2 * degree + 2)) / (1.0 - r * r)


def _annulus_bound(q, a, degree):
    k = np.arange(-degree, degree + 1)
    return float(np.sum(abs(a) ** (2 * k) / (1.0 + q ** (2 * k + 1))))


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
        ExtremalProblem(unit_disc(), 0)
    with pytest.raises(GeometryError, match="not inside the domain"):
        lp_caratheodory_lower(ExtremalProblem(unit_disc(), 5), [0.5, 2.0])


def test_disc_certificate_at_the_center():
    # only the constant survives at the centre: 2 pi |1/sqrt(2 pi)|^2
    problem = ExtremalProblem(unit_disc(), 5)
    (cert,) = lp_caratheodory_lower(problem, [0.0])
    assert cert == pytest.approx(1.0, abs=1e-12)
    assert cert == min(problem.mesh_values(0.0))
    # the length doubles on disc(0, 2), so the value halves
    cert2 = _certified(disc(0.0, 2.0), 0.0, 5)
    assert cert2 == pytest.approx(0.5, abs=1e-12)


def test_annulus_certificate_approaches_the_solver_value():
    cert = _certified(annulus(), 0.7, 20)
    assert cert == pytest.approx(_annulus_bound(0.5, 0.7, 20), rel=1e-12)
    truth = _annulus_bound(0.5, 0.7, 200)  # the whole series
    assert truth == pytest.approx(3.240787521, abs=1e-9)
    assert cert <= truth
    assert (truth - cert) / truth < 0.005


def test_certified_values_rise_with_degree_on_the_disc():
    # the spans are nested, so the bound cannot fall as the degree grows
    vals = [_certified(unit_disc(), 0.3, n) for n in (3, 6, 12, 24)]
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]


def test_degree_ladders_on_the_disc():
    degrees = (3, 6, 12, 24)
    vals = [_certified(unit_disc(), 0.3, n) for n in degrees]
    want = [_disc_bound(0.3, n) for n in degrees]
    assert np.allclose(vals, want, rtol=1e-12, atol=0.0)
    # every certificate stays below the true metric
    truth = disc_metric(0.0, 1.0, 0.3)
    assert all(c <= truth + 1e-12 for c in vals)


def test_certified_values_rise_with_degree_on_the_annulus():
    degrees = (3, 6, 12, 24)
    vals = [_certified(annulus(), 0.7, n) for n in degrees]
    want = [_annulus_bound(0.5, 0.7, n) for n in degrees]
    assert np.allclose(vals, want, rtol=1e-12, atol=0.0)
    assert vals[0] < vals[1] < vals[2] < vals[3]


@pytest.mark.parametrize("dom, a", [
    (boolean_intersect(*two_disc_pair("symmetric"))[0], 0.2 + 0.1j),
    (blob_with_hole(), 0.55 + 0.1j),
], ids=["lens", "blob_with_hole"])
def test_certified_values_never_fall_with_degree(dom, a):
    # no closed form here, but the spans are nested on the same meshes
    vals = [_certified(dom, a, n) for n in (3, 6, 12, 24)]
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]
    assert vals[-1] <= SzegoEvaluator(dom).value(a) + 1e-9


def test_lens_field_dominates_the_circumscribed_disc():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    pts = 1j * np.linspace(0.0, 0.6, 10)
    vals = LPEvaluator(lens, degree=12).values(pts)
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "intersection")
    r_circ = np.sqrt(3.0) / 2.0
    for z, v in zip(pts, vals):
        assert v >= disc_metric(0.0, r_circ + 1e-9, z)
        assert v <= pull.density(z) + 1e-9


def test_union_field_marches_up_toward_the_crossing_point():
    uni = boolean_union(*two_disc_pair("symmetric"))
    pts = 1j * np.linspace(0.0, 0.75, 10)
    vals = LPEvaluator(uni, degree=12).values(pts)
    assert np.all(np.diff(vals) > 0)
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "union")
    assert np.all(vals <= pull.density(pts) + 1e-9)


def test_field_reports_nan_where_the_certificate_fails(caplog):
    # the harness's nan guard is the one place failed points become nan
    ev = LPEvaluator(unit_disc(), degree=5)
    with caplog.at_level(logging.WARNING, logger="caratheodory.harness.reports"):
        vals = _values_or_nan(ev, np.array([0.5, 2.5]))
    assert np.isfinite(vals[0]) and vals[0] > 0
    assert np.isnan(vals[1])
    assert "dropping 2.5 from 'lp'" in caplog.text


def test_one_evaluator_builds_one_basis(monkeypatch):
    # the basis depends on the boundary and the degree, not on the point
    built, mesh = [], lp.mesh_boundary
    monkeypatch.setattr(lp, "mesh_boundary",
                        lambda *args: built.append(args[1]) or mesh(*args))
    ev = LPEvaluator(annulus(), degree=5)
    pts = np.linspace(0.55, 0.95, 10) * np.exp(0.6j * np.arange(10))
    batch = ev.values(pts)
    again = ev.values(pts[::-1])
    guarded = _values_or_nan(ev, np.append(pts[:3], 2.5))  # retried pointwise
    # a point's certificate has the same bits alone as in any batch
    alone = np.array([ev.value(z) for z in pts])
    assert alone.tobytes() == batch.tobytes() == again[::-1].tobytes()
    assert guarded[:3].tobytes() == batch[:3].tobytes()
    assert np.isnan(guarded[3])
    assert built == [2048, 4096]


def test_blob_certificate_stays_under_the_solver_value():
    # measured 2.2e-5 below the solver value at degree 24
    lp = _certified(fourier_blob(), 0.1, 24)
    sz = SzegoEvaluator(fourier_blob()).value(0.1)
    assert sz == pytest.approx(1.036270608, abs=1e-6)
    assert lp <= sz + 1e-9
    assert (sz - lp) / sz < 1e-4


def test_certificates_respect_domain_inclusion():
    # B(0,1) sits inside the ellipse, so its metric and its bound sit above
    small = _certified(unit_disc(), 0.3, 5)
    big = _certified(ellipse(), 0.3, 5)
    assert small > big


def test_certificates_refuse_meshes_that_disagree(monkeypatch):
    # the uniform rule converges only algebraically over the C1 cap joins
    # of a thickened lens, so there the m and 2m values part measurably
    grown = thicken(boolean_intersect(*two_disc_pair("symmetric"))[0], 0.01)
    problem = ExtremalProblem(grown, 24)
    lo, hi = sorted(problem.mesh_values(0.7j))
    assert 1e-9 < (hi - lo) / hi < lp._MESH_AGREEMENT
    monkeypatch.setattr(lp, "_MESH_AGREEMENT", 1e-9)
    with pytest.raises(ExtremalError, match="moves by"):
        lp_caratheodory_lower(problem, [0.7j])
