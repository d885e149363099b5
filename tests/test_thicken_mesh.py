"""Boundary meshing, quadrature accuracy, and outward thickening."""

import math

import numpy as np
import pytest
from scipy.special import ellipe

from caratheodory.errors import GeometryError
from caratheodory.geometry import (
    Domain,
    TrigCurve,
    boolean_intersect,
    boolean_union,
    grid_sample,
    mesh_boundary,
    thicken,
)
from caratheodory.harness import (
    annulus,
    blob_with_hole,
    disc,
    disc_with_holes,
    ellipse,
    fourier_blob,
    two_disc_pair,
    unit_disc,
)


def test_uniform_circle_weights():
    mesh = mesh_boundary(unit_disc(), 32)
    assert mesh.size == 32
    # constant-speed circle, so every trapezoid weight is 2 pi / 32
    assert np.max(np.abs(mesh.weights - np.pi / 16)) < 1e-12


def test_circle_perimeter_and_unit_tangents():
    mesh = mesh_boundary(unit_disc(), 256)
    assert abs(np.sum(mesh.weights) - 2 * np.pi) < 1e-12
    assert np.max(np.abs(np.abs(mesh.tangents) - 1.0)) < 1e-12


def _hole_count(n, hole, outer):
    # each hole at the outer curve's mean spacing, even, and never fewer
    # than 32 nodes nor than n / 8
    return max(32, n // 8, 2 * math.ceil(n * hole.length / (2 * outer.length)))


def test_annulus_mesh_covers_both_curves():
    mesh = mesh_boundary(annulus(), 64)
    # the hole is half the outer circle's length: 64 + 32 nodes
    assert mesh.size == 96
    assert len(mesh.curve_slices) == 2
    # hole curve is traversed clockwise but weights stay positive
    assert np.all(mesh.weights > 0)
    assert abs(np.sum(mesh.weights) - 2 * np.pi * 1.5) < 1e-10


@pytest.mark.parametrize("n", [64, 256, 4096])
def test_smooth_mesh_nodes_are_the_polyline_points(n):
    # fewer nodes than samples, as many, and past them (a 512-sample
    # curve folds its high modes onto their aliases): the FFT nodes are
    # polyline(n)'s, and the tangents those of the series
    fine = Domain(TrigCurve(fourier_blob().outer.uniform_eval(512)))
    for dom in (blob_with_hole(), fine):
        mesh = mesh_boundary(dom, n)
        for k, curve in enumerate(mesh.owner.curves):
            lo, hi = mesh.curve_slices[k]
            m = n if k == 0 else _hole_count(n, curve, dom.outer)
            assert hi - lo == m
            assert np.array_equal(mesh.nodes[lo:hi], curve.polyline(m)[1])
            v = curve.velocity(np.arange(m) / m)
            want = v / np.abs(v) if k == 0 else -v / np.abs(v)
            assert np.max(np.abs(mesh.tangents[lo:hi] - want)) <= 1e-13


def test_each_hole_is_meshed_at_the_outer_spacing():
    # radius 0.15 holes are 0.15 of the outer length: 2 ceil(19.2) = 40
    # nodes each at 256, where the outer curve's budget on every curve
    # would make 768
    dom = disc_with_holes([(-0.45, 0.15), (0.45, 0.15)])
    mesh = mesh_boundary(dom, 256)
    assert [hi - lo for lo, hi in mesh.curve_slices] == [256, 40, 40]
    for n in (64, 512, 2048):
        sizes = [hi - lo for lo, hi in mesh_boundary(dom, n).curve_slices]
        assert sizes == [n] + [_hole_count(n, h, dom.outer)
                               for h in dom.holes]
    # a short hole keeps n / 8 nodes, so its mesh still doubles with n
    small = annulus(0.02)
    assert [mesh_boundary(small, n).size for n in (128, 256, 512, 1024)] \
        == [160, 288, 576, 1152]


def test_the_curve_adapted_to_a_foot_keeps_the_whole_budget():
    # the Mobius map's reach scales with the adapted curve's own node
    # count, so a foot on a hole gives that hole n nodes; the other
    # curves keep their shares
    dom = disc_with_holes([(-0.45, 0.15), (0.45, 0.15)])
    mesh = mesh_boundary(dom, 256, dom.foot(0.61))
    assert [hi - lo for lo, hi in mesh.curve_slices] == [256, 40, 256]
    mesh = mesh_boundary(dom, 256, dom.foot(0.99))
    assert [hi - lo for lo, hi in mesh.curve_slices] == [256, 40, 40]


def test_mesh_size_validation():
    for bad in (8, 30, 33):
        with pytest.raises(GeometryError, match="even and at least 32"):
            mesh_boundary(unit_disc(), bad)


def test_ellipse_weights_converge_spectrally():
    # perimeter of the 2-by-1 ellipse via the complete elliptic integral
    exact = 8.0 * ellipe(0.75)
    errs = [abs(np.sum(mesh_boundary(ellipse(), n).weights) - exact) for n in (32, 64, 128)]
    assert errs[0] / errs[1] > 100.0
    assert errs[2] < 1e-13  # already at the noise floor


def test_graded_lens_mesh_clusters_at_corners():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    mesh = mesh_boundary(lens, 128)
    # two unit-circle arcs of opening 2 pi / 3 each
    assert abs(np.sum(mesh.weights) - 4 * np.pi / 3) < 1e-6
    gaps = np.abs(np.diff(mesh.nodes))
    # cubic grading pushes the smallest node gap to O(n^-3) near corners
    assert np.min(gaps) < (4 * np.pi / 3) * (1.0 / 128) ** 3 * 1.05
    assert np.max(gaps) < 0.12


def _localization_piece():
    dom = ellipse()
    return boolean_intersect(disc(dom.outer.point(0.25), 0.5), dom)[0]


def test_the_foot_is_the_nearest_boundary_point():
    k, t, d = ellipse().foot(0.98j)
    assert (k, t, d) == (0, pytest.approx(0.25, abs=1e-9),
                         pytest.approx(0.02, abs=1e-9))
    # nearer the hole than the outer circle
    k, t, d = annulus().foot(0.7j)
    assert k == 1 and d == pytest.approx(0.2, abs=1e-9)
    assert annulus().curves[1].point(t) == pytest.approx(0.5j, abs=1e-9)


@pytest.mark.parametrize("make, z", [
    (ellipse, 0.98j), (fourier_blob, 0.98 * fourier_blob().outer.point(0.1)),
    (annulus, 0.52j),
], ids=["ellipse", "blob", "annulus hole"])
def test_foot_adapted_weights_sum_to_the_curve_length(make, z):
    dom = make()
    mesh = mesh_boundary(dom, 512, dom.foot(z))
    for (lo, hi), curve in zip(mesh.curve_slices, dom.curves):
        assert abs(np.sum(mesh.weights[lo:hi]) - curve.length) <= \
            1e-12 * curve.length
    # the nodes crowd at the foot: the node nearest z sits far closer
    # together than on the uniform mesh
    j = np.argmin(np.abs(mesh.nodes - z))
    assert mesh.spacing[j] < 0.2 * mesh_boundary(dom, 512).h_max


def test_a_cornered_foot_is_one_more_grading_break():
    piece = _localization_piece()
    plain = mesh_boundary(piece, 512)
    foot = piece.foot(0.98j)
    mesh = mesh_boundary(piece, 512, foot)
    assert abs(np.sum(mesh.weights) - np.sum(plain.weights)) < 1e-6
    # cubic grading crowds the nodes at the foot as at a corner
    gap = np.min(np.abs(mesh.nodes - piece.outer.point(foot[1])))
    assert gap < 1e-4 * plain.h_max


@pytest.mark.parametrize("make, z", [
    (ellipse, 0.98j), (_localization_piece, None),
], ids=["ellipse foot", "cornered piece"])
def test_mesh_points_and_velocities_come_from_one_jet(make, z):
    # one jet for both, with the bits of separate point and
    # velocity calls at the same parameters
    dom = make()
    foot = None if z is None else dom.foot(z)
    curve = dom.outer
    asked = []
    real = curve.jet

    def spying(t, order):
        asked.append((np.copy(t), order))
        return real(t, order)

    curve.jet = spying
    mesh = mesh_boundary(dom, 512, foot)
    ((t, order),) = asked
    assert order == 1
    v = curve.velocity(t)
    assert np.array_equal(mesh.nodes, curve.point(t))
    assert np.array_equal(mesh.tangents, v / np.abs(v))


def test_dist_to_boundary_values():
    assert unit_disc().dist_to_boundary(0.3) == pytest.approx(0.7, abs=1e-9)
    assert annulus().dist_to_boundary(0.7) == pytest.approx(0.2, abs=1e-9)
    assert disc(0.0, 2.0).dist_to_boundary(1.5) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(GeometryError, match="not inside"):
        unit_disc().dist_to_boundary(1.5)


def test_grid_sample_clearance_is_the_domain_distance():
    dom = ellipse()
    delta = 0.16
    kept = grid_sample(dom, delta, 0.1)
    assert kept.size == 485
    assert all(dom.dist_to_boundary(z) >= delta for z in kept)
    # delta 0 keeps every interior lattice point
    kept_set = set(kept.tolist())
    dropped = [z for z in grid_sample(dom, 0.0, 0.1) if z not in kept_set]
    assert len(dropped) > 0
    assert all(dom.dist_to_boundary(z) < delta for z in dropped)


def test_thicken_keeps_disc_and_annulus_exact():
    grown = thicken(unit_disc(), 0.2)
    assert grown.primitive[0] == "disc"
    _, radius = grown.primitive[1]
    assert radius == pytest.approx(1.2, abs=1e-12)
    grown = thicken(annulus(), 0.01)
    assert grown.primitive[0] == "annulus"
    _, r_in, r_out = grown.primitive[1]
    # growing the domain shrinks the hole and expands the outer circle
    assert r_in == pytest.approx(0.49, abs=1e-12)
    assert r_out == pytest.approx(1.01, abs=1e-12)


def test_thickened_domains_nest():
    blob = fourier_blob()
    g1 = thicken(blob, 0.05)
    g2 = thicken(blob, 0.1)
    t = np.linspace(0, 1, 50, endpoint=False)
    bd0 = np.array([blob.outer.point(tt) for tt in t])
    bd1 = np.array([g1.outer.point(tt) for tt in t])
    assert np.all(g1.contains_many(bd0, boundary="exclude"))
    assert np.all(g2.contains_many(bd1, boundary="exclude"))


def test_thickened_lens_contains_the_lens():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    grown = thicken(lens, 0.02)
    assert grown.holes == ()
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 100:
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.9, 0.9))
        if abs(z + 0.5) < 0.995 and abs(z - 0.5) < 0.995:
            pts.append(z)
    assert np.all(grown.contains_many(np.array(pts), boundary="exclude"))


def test_thicken_reach_limits():
    # hole of radius 1/2 cannot shrink by 0.6
    with pytest.raises(GeometryError, match="reach"):
        thicken(annulus(), 0.6)
    # blob boundary has concave stretches that weld onto themselves
    with pytest.raises(GeometryError, match="reach"):
        thicken(fourier_blob(), 0.8)
    with pytest.raises(GeometryError, match="positive"):
        thicken(unit_disc(), -0.1)
    for eps in (np.nan, np.inf):
        with pytest.raises(GeometryError, match="finite"):
            thicken(unit_disc(), eps)


def test_a_cornered_offset_is_not_thickened_again():
    # a trimmed offset arc is a SubArc over an OffsetArc; offsetting it
    # again needs the offset's third derivative, so thicken refuses it at
    # construction instead of the first curve evaluation failing
    once = thicken(boolean_union(*two_disc_pair("asymmetric")), 0.05)
    with pytest.raises(GeometryError, match="offset of an offset arc"):
        thicken(once, 0.05)
    # smooth offsets are re-interpolated, so they thicken again
    assert thicken(thicken(fourier_blob(), 0.05), 0.05).holes == ()
