"""Boundary meshing, quadrature accuracy, and outward thickening."""

import numpy as np
import pytest
from scipy.special import ellipe

from caratheodory.errors import GeometryError
from caratheodory.geometry import (
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


def test_annulus_mesh_covers_both_curves():
    mesh = mesh_boundary(annulus(), 64)
    assert mesh.size == 128
    assert len(mesh.curve_slices) == 2
    # hole curve is traversed clockwise but weights stay positive
    assert np.all(mesh.weights > 0)
    assert abs(np.sum(mesh.weights) - 2 * np.pi * 1.5) < 1e-10


@pytest.mark.parametrize("n", [64, 256, 4096])
def test_smooth_mesh_nodes_are_the_polyline_points(n):
    # fewer nodes than samples, as many, and past them: the FFT nodes are
    # polyline(n)'s, and the tangents those of the dense series
    mesh = mesh_boundary(blob_with_hole(), n)
    for k, curve in enumerate(mesh.owner.curves):
        lo, hi = mesh.curve_slices[k]
        assert np.array_equal(mesh.nodes[lo:hi], curve.polyline(n)[1])
        v = curve.velocity(np.arange(n) / n)
        want = v / np.abs(v) if k == 0 else -v / np.abs(v)
        assert np.max(np.abs(mesh.tangents[lo:hi] - want)) <= 1e-13


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


def test_a_cornered_offset_is_not_thickened_again():
    # a trimmed offset arc is a SubArc over an OffsetArc; offsetting it
    # again needs the offset's third derivative, so thicken refuses it at
    # construction instead of the first curve evaluation failing
    once = thicken(boolean_union(*two_disc_pair("asymmetric")), 0.05)
    with pytest.raises(GeometryError, match="offset of an offset arc"):
        thicken(once, 0.05)
    # smooth offsets are re-interpolated, so they thicken again
    assert thicken(thicken(fourier_blob(), 0.05), 0.05).holes == ()
