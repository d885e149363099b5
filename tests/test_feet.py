"""Boundary feet: Newton's batch against single points and a bounded
polish, and the fallback at corners."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from caratheodory.errors import GeometryError
from caratheodory.geometry import boolean_intersect, boolean_union, grid_sample
from caratheodory.geometry import domain as domain_module
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    disc,
    ellipse,
    fourier_blob,
    unit_disc,
)


def _localization_piece():
    dom = ellipse()
    return boolean_intersect(disc(dom.outer.point(0.25), 0.5), dom)[0]


def _polished(curve, z):
    """Distance from z to the curve by a bounded scalar minimization of
    |gamma(t) - z|^2 between the neighbours of the nearest node of the
    2048-node polyline."""
    params, pts = curve.polyline(2048)
    j = int(np.argmin(np.abs(pts - z)))
    lo = params[j - 1] if j > 0 else params[-1] - 1.0
    hi = params[(j + 1) % len(params)]
    if hi <= lo:
        hi += 1.0
    r = minimize_scalar(lambda t: abs(curve.point(t % 1.0) - z) ** 2,
                        bounds=(lo, hi), method="bounded",
                        options={"xatol": 1e-12})
    return float(np.sqrt(r.fun))


@pytest.mark.parametrize("make, delta", [
    (fourier_blob, 0.15), (_localization_piece, 0.0), (annulus, 0.02),
], ids=["blob", "cornered piece", "annulus"])
def test_a_batch_foot_has_the_bits_of_a_lone_one(make, delta):
    # each point's Newton iterates sum its own series terms only, so the
    # batch it rides in never moves its last bit
    zs = grid_sample(make(), delta, 0.05)[::7]
    batch = make().feet(zs)
    assert len(batch) > 10
    for z, foot in zip(zs, batch):
        assert make().foot(z) == foot


@pytest.mark.parametrize("make, delta", [
    (fourier_blob, 0.15), (ellipse, 0.02), (annulus, 0.02),
], ids=["blob", "ellipse", "annulus"])
def test_newton_feet_match_a_bounded_polish(make, delta):
    dom = make()
    zs = grid_sample(dom, delta, 0.1)
    got = np.array([d for _, _, d in dom.feet(zs)])
    want = np.array([min(_polished(c, z) for c in dom.curves) for z in zs])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-10
    # the polish stops short of the minimum; Newton is never above it
    # by more than the rounding of one distance
    assert np.max(got - want) <= 1e-15


@pytest.mark.parametrize("delta, spacing", [
    (np.nan, 0.2), (np.inf, 0.2), (0.1, np.nan), (0.1, np.inf),
])
def test_grid_sample_refuses_a_clearance_or_spacing_that_is_not_finite(
        delta, spacing):
    # nan < 0 is False, so a nan delta once read as no clearance at all
    with pytest.raises(GeometryError, match="finite"):
        grid_sample(unit_disc(), delta, spacing)


def test_a_foot_at_a_corner_takes_the_bounded_fallback(monkeypatch):
    polished = []
    real = domain_module._bounded_foot

    def spying(curve, z, lo, hi):
        polished.append(z)
        return real(curve, z, lo, hi)

    monkeypatch.setattr(domain_module, "_bounded_foot", spying)
    curve = _localization_piece().outer
    corner = curve.corner_params[1]
    p = curve.point(corner)
    v_in, v_out = curve.velocity(corner - 1e-9), curve.velocity(corner + 1e-9)
    outward = -1j * (v_in / abs(v_in) + v_out / abs(v_out))
    outward /= abs(outward)
    # just outside the corner, and just inside it, where the nearest
    # point lies on a side
    zs = np.array([p + 1e-3 * outward, p - 1e-3 * outward])
    d, t = domain_module._curve_feet(curve, zs)
    assert polished == [zs[0]]
    # the polish's own accuracy at a kink, as before Newton took over
    assert d[0] == pytest.approx(1e-3, rel=1e-4)
    assert t[0] == pytest.approx(corner, abs=1e-6)
    assert d[1] < 1e-3 and abs(t[1] - corner) > 1e-5


@pytest.mark.parametrize("make", [
    _localization_piece,
    lambda: boolean_intersect(*blob_disc_pair())[0],
    lambda: boolean_union(*blob_disc_pair()),
], ids=["cornered piece", "blob-disc intersection", "blob-disc union"])
def test_the_bounded_polish_has_the_bits_of_scipy(monkeypatch, make):
    # the ported Brent search repeats scipy's operations, so each foot it
    # polishes near a corner keeps the bits minimize_scalar gave
    polished = []
    real = domain_module._bounded_foot

    def spying(curve, z, lo, hi):
        polished.append((curve, z, lo, hi))
        return real(curve, z, lo, hi)

    monkeypatch.setattr(domain_module, "_bounded_foot", spying)
    dom = make()
    zs = []
    for curve in dom.curves:
        for corner in curve.corner_params:
            p = curve.point(corner)
            for r in (1e-3, 0.01, 0.05):
                zs.extend(p + r * np.exp(2j * np.pi * np.arange(12) / 12))
    inside = [z for z in zs if dom.contains(z)]
    dom.feet(inside)
    assert len(polished) >= 3
    for curve, z, lo, hi in polished:
        def f(t):
            return abs(curve.point(t % 1.0) - z) ** 2

        want = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-12})
        got = domain_module._minimize_bounded(f, lo, hi)
        assert got == (want.x, want.fun)


def test_feet_refuse_a_point_outside():
    with pytest.raises(GeometryError, match="not inside"):
        ellipse().feet([0.3, 2.5])
    dom = ellipse()
    assert dom.feet([0.3, 0.3, 0.5j]) == [dom.foot(0.3)] * 2 + [dom.foot(0.5j)]


def test_feet_skip_the_winding_for_points_found_inside(monkeypatch):
    # a grid's feet test containment only for the points that its own
    # contains_many call has not found inside: none
    wound = []
    real = domain_module._winding_many

    def spying(poly, z):
        wound.append(np.size(z))
        return real(poly, z)

    monkeypatch.setattr(domain_module, "_winding_many", spying)
    dom = fourier_blob()
    zs = grid_sample(dom, 0.15, 0.1)
    assert len(wound) == 1 and wound[0] > zs.size
    # the feet keep their bits; a fresh domain tests every point once
    fresh = fourier_blob()
    assert fresh.feet(zs) == dom.feet(zs)
    assert wound[1:] == [zs.size]


def test_feet_reuse_the_distances_containment_measured(monkeypatch):
    # points within one node spacing of the 2048-node polyline get their
    # distance in contains_many; feet serve those without a second solve
    dom = ellipse()
    ts = np.linspace(0.0, 1.0, 9, endpoint=False)
    p, v = dom.outer.jet(ts, 1)
    zs = p + 2e-3 * 1j * v / np.abs(v)  # inward, under one node spacing
    assert dom.contains_many(zs).all()
    solved = []
    real = domain_module._curve_feet

    def spying(curve, z):
        solved.append(np.size(z))
        return real(curve, z)

    monkeypatch.setattr(domain_module, "_curve_feet", spying)
    feet = dom.feet(zs)
    assert solved == []
    # each stored foot has the bits of a lone point's
    for z, foot in zip(zs, feet):
        d, t = real(dom.outer, np.array([z]))
        assert foot == (0, float(t[0]), float(d[0]))
    dom.feet([0.3])
    assert solved == [1]
