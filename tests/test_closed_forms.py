"""Closed-form densities: discs, annuli, and two-disc sector pullbacks."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from caratheodory.errors import GeometryError, TangencyError
from caratheodory.geometry import boolean_intersect, boolean_union
from caratheodory.kernels import (
    SzegoEvaluator,
    annulus_metric,
    disc_metric,
    evaluator_for,
)
from caratheodory.kernels.closed_forms import SectorPullback, circle_intersection, poincare_annulus
from caratheodory.harness import disc, two_disc_pair


def test_disc_metric_values():
    assert disc_metric(0.0, 1.0, 0.0) == pytest.approx(1.0)
    assert disc_metric(0.0, 1.0, 0.5) == pytest.approx(4.0 / 3.0)
    assert disc_metric(1 + 1j, 2.0, 1 + 1j) == pytest.approx(0.5)
    got = disc_metric(0.0, 1.0, np.array([0.0, 0.5j, -0.5]))
    assert np.allclose(got, [1.0, 4.0 / 3.0, 4.0 / 3.0])
    with pytest.raises(GeometryError, match="outside the disc"):
        disc_metric(0.0, 1.0, 1.5)


def test_annulus_density_is_rotation_invariant():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0, 2 * np.pi, 100)
    vals = poincare_annulus(0.5, 0.7 * np.exp(1j * theta))
    assert np.max(np.abs(vals - vals[0])) < 1e-12
    with pytest.raises(GeometryError, match="outside the annulus"):
        poincare_annulus(0.5, 0.3)
    with pytest.raises(GeometryError, match="inner radius"):
        poincare_annulus(1.5, 0.7)


def test_thin_annulus_approaches_the_punctured_disc():
    # pinhole limit: density of the punctured disc is 1/(2 |z| log(1/|z|))
    got = poincare_annulus(1e-4, 0.5)
    want = 1.0 / (2 * 0.5 * np.log(2.0))
    assert got == pytest.approx(1.456224, abs=1e-5)
    assert abs(got - want) / want < 0.01


def test_annulus_density_minimizes_at_the_geometric_mean_radius():
    # the radial slice of the density itself bottoms out at sqrt(r_in).
    # deliberate check kept strict: it FAILS, and the companion test below
    # records the measured behavior. the scale-invariant quantity lambda |z|
    # is what balances at the geometric mean; the bare density bottoms out
    # further out (near r = 0.7418 for r_in = 0.5).
    res = minimize_scalar(
        lambda r: poincare_annulus(0.5, r), bounds=(0.51, 0.99), method="bounded"
    )
    assert abs(res.x - np.sqrt(0.5)) < 1e-3


def test_radial_profiles_of_the_annulus_density():
    # companion to the test above: what the density actually does
    res = minimize_scalar(
        lambda r: poincare_annulus(0.5, r), bounds=(0.51, 0.99), method="bounded"
    )
    assert res.x == pytest.approx(0.741810735, abs=1e-6)
    assert poincare_annulus(0.5, res.x) == pytest.approx(3.128403821, abs=1e-6)
    assert poincare_annulus(0.5, np.sqrt(0.5)) == pytest.approx(3.204862591, abs=1e-6)
    # the invariant combination lambda(z) |z| does balance at sqrt(r_in)
    res2 = minimize_scalar(
        lambda r: r * poincare_annulus(0.5, r), bounds=(0.51, 0.99), method="bounded"
    )
    assert res2.x == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_annulus_metric_scales_and_translates():
    want = poincare_annulus(0.5, 0.7)
    assert annulus_metric(1 + 1j, 0.5, 1.0, 1 + 1j + 0.7) == pytest.approx(want, rel=1e-12)
    assert annulus_metric(0.0, 1.0, 2.0, 1.4) == pytest.approx(want / 2.0, rel=1e-12)
    with pytest.raises(GeometryError):
        annulus_metric(0.0, 0.5, 1.0, 0.3)


def test_circle_intersection_points():
    p, q = circle_intersection(-0.5, 1.0, 0.5, 1.0)
    got = sorted((p, q), key=lambda z: z.imag)
    assert abs(got[0] + 1j * np.sqrt(3) / 2) < 1e-12
    assert abs(got[1] - 1j * np.sqrt(3) / 2) < 1e-12
    with pytest.raises(GeometryError, match="disjoint or nested"):
        circle_intersection(-3.0, 1.0, 3.0, 1.0)
    with pytest.raises(GeometryError, match="disjoint or nested"):
        circle_intersection(0.0, 0.3, 0.0, 1.0)
    # exact tangency reads as no crossing; a hair inside it is caught
    # by the degenerate-height gate instead
    with pytest.raises(GeometryError, match="disjoint or nested"):
        circle_intersection(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(TangencyError, match="tangentially"):
        circle_intersection(0.0, 1.0, 2.0 - 1e-15, 1.0)


def test_sector_pullback_densities_at_the_waist_center():
    lens = SectorPullback((-0.5, 1.0), (0.5, 1.0), "intersection")
    uni = SectorPullback((-0.5, 1.0), (0.5, 1.0), "union")
    # opening angles 2 pi/3 and 4 pi/3 pull back to sqrt(3) and sqrt(3)/2
    assert lens.density(0.0) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert uni.density(0.0) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
    assert lens.contains(0.0) and not lens.contains(0.8)
    assert uni.contains(0.8) and not uni.contains(1.2j)
    with pytest.raises(GeometryError, match="region must be"):
        SectorPullback((-0.5, 1.0), (0.5, 1.0), "xor")
    with pytest.raises(GeometryError, match="outside the requested"):
        lens.density(0.8)


def test_poincare_two_disc_region_values():
    d1, d2 = (-0.5, 1.0), (0.5, 1.0)
    assert SectorPullback(d1, d2, "intersection").density(0.0) == pytest.approx(
        1.732050808, abs=1e-8
    )
    assert SectorPullback(d1, d2, "union").density(0.0) == pytest.approx(
        0.866025404, abs=1e-8
    )


def test_lens_closed_form_matches_the_kernel_solver():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "intersection")
    ev = SzegoEvaluator(lens)
    for z in (0.0, 0.2 + 0.3j, -0.1 - 0.5j):
        assert ev.value(z) == pytest.approx(pull.density(z), rel=1e-8)


def test_union_closed_form_matches_the_kernel_solver():
    uni = boolean_union(*two_disc_pair("symmetric"))
    pull = SectorPullback((-0.5, 1.0), (0.5, 1.0), "union")
    ev = SzegoEvaluator(uni)
    for z in (0.0, 0.9, -0.3 + 0.4j):
        assert ev.value(z) == pytest.approx(pull.density(z), rel=1e-4)


def test_union_of_nearly_equal_discs_approaches_one_disc():
    uni = boolean_union(disc(0.0, 1.0), disc(0.002, 1.0))
    ev = evaluator_for(uni)
    got = ev.value(0.0) / disc_metric(0.0, 1.0, 0.0)
    assert got == pytest.approx(0.999365282, abs=1e-8)
    assert abs(got - 1.0) < 1e-3
    assert abs(ev.value(0.3) / disc_metric(0.0, 1.0, 0.3) - 1.0) < 2e-3
