"""Boundary feet: Newton's batch against single points and a bounded
polish, and the bisection at corners."""

import functools

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from caratheodory.errors import GeometryError
from caratheodory.geometry import (
    Domain,
    boolean_intersect,
    boolean_union,
    grid_sample,
    mesh_boundary,
)
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


@functools.cache
def _blob_disc_union():
    return boolean_union(*blob_disc_pair())


def _fresh_union():
    # a new domain on the union's curves: it remembers no feet
    uni = _blob_disc_union()
    return Domain(uni.outer, uni.holes)


def _reflex_corner_points(dom, corner):
    """Interior points at r = 0.02, 0.05 and 0.1 along the bisector of a
    reflex corner of dom's outer curve, and those r.  Their nearest
    boundary point is the corner itself."""
    curve = dom.outer
    v_in, v_out = curve.velocity(corner - 1e-9), curve.velocity(corner + 1e-9)
    inward = 1j * (v_in / abs(v_in) + v_out / abs(v_out))
    inward /= abs(inward)
    r = np.array([0.02, 0.05, 0.1])
    zs = curve.point(corner) + r * inward
    assert dom.contains_many(zs).all()
    return zs, r


def _near_the_union_corners(dom):
    """The bisector points of each corner of the blob-disc union, whose
    feet are bisected, and a coarse grid, whose feet Newton finds."""
    zs = [_reflex_corner_points(dom, c)[0] for c in dom.outer.corner_params]
    return np.concatenate(zs + [grid_sample(dom, 0.0, 0.2)[::7]])


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


@pytest.mark.parametrize("make, points", [
    (fourier_blob, lambda dom: grid_sample(dom, 0.15, 0.05)[::7]),
    (_localization_piece, lambda dom: grid_sample(dom, 0.0, 0.05)[::7]),
    (annulus, lambda dom: grid_sample(dom, 0.02, 0.05)[::7]),
    (_fresh_union, _near_the_union_corners),
], ids=["blob", "cornered piece", "annulus", "union corners"])
def test_a_batch_foot_has_the_bits_of_a_lone_one(make, points):
    # each point's Newton and bisection iterates sum its own series terms
    # only, so the batch it rides in never moves its last bit
    zs = points(make())
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
    real = domain_module._bisect_feet

    def spying(curve, zs, lo, hi):
        polished.extend(zs)
        return real(curve, zs, lo, hi)

    monkeypatch.setattr(domain_module, "_bisect_feet", spying)
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
    # loose bounds, which any bounded search meets at a kink
    assert d[0] == pytest.approx(1e-3, rel=1e-4)
    assert t[0] == pytest.approx(corner, abs=1e-6)
    assert d[1] < 1e-3 and abs(t[1] - corner) > 1e-5


@pytest.mark.parametrize("i", [0, 1])
def test_a_foot_at_a_reflex_corner_lands_on_the_corner(i):
    # a foot even 1e-9 off the corner misses the mesh's corner merge, and
    # the adapted mesh gets a spurious run of nodes beside the corner.
    # Corner 0 sits at parameter 0, where the bisection ends just below 0
    # and % 1.0 alone would round t up to 1.0
    uni = _fresh_union()
    corner = uni.outer.corner_params[i]
    zs, rs = _reflex_corner_points(uni, corner)
    for (k, t, d), r in zip(uni.feet(zs), rs):
        assert k == 0 and 0.0 <= t < 1.0
        assert abs(d / r - 1.0) <= 1e-12
        assert abs((t - corner + 0.5) % 1.0 - 0.5) <= 1e-12
        foot = (k, t, d)
        assert mesh_boundary(uni, 512, foot).size == mesh_boundary(uni, 512).size


@pytest.mark.parametrize("make", [
    _localization_piece,
    lambda: boolean_intersect(*blob_disc_pair())[0],
    _fresh_union,
], ids=["cornered piece", "blob-disc intersection", "blob-disc union"])
def test_bisected_feet_are_no_farther_than_scipys_polish(monkeypatch, make):
    # near a corner the bisection finds the minimum in the bracket that
    # minimize_scalar finds, no farther from the point, and a kink's
    # to rounding where scipy stops about 1e-8 short of it
    bisected = []
    real = domain_module._bisect_feet

    def spying(curve, zs, lo, hi):
        d, t = real(curve, zs, lo, hi)
        bisected.extend(zip([curve] * zs.size, zs, lo, hi, d, t))
        return d, t

    monkeypatch.setattr(domain_module, "_bisect_feet", spying)
    dom = make()
    zs = []
    for curve in dom.curves:
        for corner in curve.corner_params:
            p = curve.point(corner)
            for r in (1e-3, 0.01, 0.05):
                zs.extend(p + r * np.exp(2j * np.pi * np.arange(12) / 12))
    inside = [z for z in zs if dom.contains(z)]
    dom.feet(inside)
    assert len(bisected) >= 3
    for curve, z, lo, hi, d, t in bisected:
        want = minimize_scalar(lambda s: abs(curve.point(s % 1.0) - z) ** 2,
                               bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-12})
        assert lo <= t <= hi
        # apart from the rounding of a point, about 1e-16
        assert d <= np.sqrt(want.fun) + 1e-15
        assert d >= np.sqrt(want.fun) * (1.0 - 1e-4)


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
