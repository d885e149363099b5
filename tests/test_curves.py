"""Tests for trigonometric curve fitting and pointwise curve data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caratheodory.errors import GeometryError
from caratheodory.geometry import (
    CircleArc,
    OffsetArc,
    SubArc,
    boolean_intersect,
    boolean_union,
    curve_eval,
    curve_from_samples,
    thicken,
)
from caratheodory.geometry.curves import (
    _PAIR_BLOCK,
    TrigCurve,
    _has_close_pair,
    _meet,
    crossing_pairs,
    polyline_self_intersects,
)
from caratheodory.harness import (
    blob_disc_pair,
    blob_with_hole,
    disc,
    ellipse,
    fourier_blob,
    two_disc_pair,
)
from crossing_reference import all_pairs_crossings, count_tested_pairs


def _circle_samples(n=256, center=0.0, radius=1.0):
    t = np.arange(n) / n
    return center + radius * np.exp(2j * np.pi * t)


def test_fitted_circle_interpolates_off_sample_points():
    curve = curve_from_samples(_circle_samples())
    # band-limited data, so the trig interpolant is exact off the grid too
    for t in (0.1234, 0.5, 0.876543):
        assert abs(curve.point(t) - np.exp(2j * np.pi * t)) < 1e-10


def test_fitted_circle_velocity_and_curvature():
    curve = curve_from_samples(_circle_samples(radius=2.0))
    ev = curve_eval(curve, 0.3)
    assert abs(abs(ev.tangent) - 1.0) < 1e-12
    assert ev.curvature == pytest.approx(0.5, abs=1e-9)


def test_curve_eval_circle_frame():
    curve = curve_from_samples(_circle_samples())
    ev = curve_eval(curve, 0.0)
    assert abs(ev.point - 1.0) < 1e-12
    assert abs(ev.tangent - 1j) < 1e-10  # counterclockwise
    assert abs(ev.normal - 1.0) < 1e-10  # outward
    assert ev.curvature == pytest.approx(1.0, abs=1e-9)


def test_curve_eval_ellipse_vertex_curvature():
    dom = ellipse()
    # semi-axes 2 and 1, so kappa = a/b^2 = 2 at the major-axis vertex
    ev = curve_eval(dom.outer, 0.0)
    assert abs(ev.point - 2.0) < 1e-12
    assert ev.curvature == pytest.approx(2.0, abs=1e-6)


def test_smooth_curve_has_no_corners():
    assert ellipse().outer.corner_params == ()


def test_corner_parameter_is_rejected():
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    corners = lens.outer.corner_params
    assert len(corners) == 2
    with pytest.raises(GeometryError, match="corner"):
        curve_eval(lens.outer, corners[0])


def test_self_intersecting_samples_are_rejected():
    # limacon with an inner loop: positive signed area, so it gets past
    # the orientation check and trips the crossing detector at the pole
    t = np.arange(256) / 256.0
    limacon = (1.0 + 2.0 * np.cos(2 * np.pi * t)) * np.exp(2j * np.pi * t)
    with pytest.raises(GeometryError, match="self-intersecting"):
        curve_from_samples(limacon)


def test_duplicate_samples_are_rejected():
    # the figure eight hits its waist twice on this grid
    t = np.arange(256) / 256.0
    fig8 = np.sin(2 * np.pi * t) + 1j * np.sin(4 * np.pi * t)
    with pytest.raises(GeometryError, match="not distinct"):
        curve_from_samples(fig8)


def test_duplicate_samples_are_rejected_past_2048_samples():
    # the repeated waist sample is far from its neighbours in index
    t = np.arange(4096) / 4096.0
    fig8 = np.sin(2 * np.pi * t) + 1j * np.sin(4 * np.pi * t)
    with pytest.raises(GeometryError, match="not distinct"):
        curve_from_samples(fig8)


def _close_pair_brute_force(z, tol):
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.any(gaps <= tol))


@pytest.mark.parametrize("seed", range(20))
def test_the_sample_gap_sweep_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    # coarse lattices give ties in real part and exact repeats
    z = (rng.integers(0, 12, n) + 1j * rng.integers(0, 12, n)) / 4.0
    if seed % 2:
        z = z + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for tol in (0.0, 1e-12, 0.01, 0.3, 1.0):
        assert _has_close_pair(z, tol) == _close_pair_brute_force(z, tol)


@pytest.mark.parametrize("gap, close", [(0.5e-12, True), (2e-12, False)])
def test_a_sample_pair_is_close_only_within_1e_12_of_scale(gap, close):
    z = _circle_samples()
    scale = np.max(np.abs(z - z.mean()))
    for k, angle in ((10, 0.3), (200, 2.0)):
        moved = z.copy()
        moved[k + 1] = moved[k] + gap * scale * np.exp(1j * angle)
        assert _has_close_pair(moved, 1e-12 * scale) is close
        assert _close_pair_brute_force(moved, 1e-12 * scale) is close


def test_too_few_samples_are_rejected():
    with pytest.raises(GeometryError, match="at least 8 sample points"):
        curve_from_samples(_circle_samples(n=6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_samples_are_rejected(bad):
    z = _circle_samples()
    z[3] = bad
    with pytest.raises(GeometryError, match="samples must be finite"):
        TrigCurve(z)


def test_clockwise_samples_are_rejected():
    with pytest.raises(GeometryError, match="counterclockwise"):
        curve_from_samples(_circle_samples()[::-1])


# -- chart derivatives --------------------------------------------------


def _boolean_outer():
    return boolean_intersect(*blob_disc_pair())[0].outer


def _mid_first_segment(curve):
    return 0.5 * (curve.breaks[0] + curve.breaks[1])


# (name, chart factory, parameter off every corner, highest order)
_CHARTS = [
    ("trig", lambda: ellipse().outer, 0.3, 3),
    ("piecewise", _boolean_outer, None, 3),
    ("sub forward", lambda: SubArc(ellipse().outer, 0.9, 1.2), 0.4, 3),
    ("sub reversed", lambda: SubArc(ellipse().outer, 0.4, 0.1), 0.4, 3),
    ("circle", lambda: CircleArc(0.3 + 0.1j, 0.7, 0.2, 2.5), 0.4, 3),
    ("offset", lambda: OffsetArc(SubArc(ellipse().outer, 0.1, 0.3), 0.05),
     0.4, 2),
    ("sub of offset",
     lambda: SubArc(OffsetArc(SubArc(ellipse().outer, 0.1, 0.3), 0.05),
                    0.9, 0.2), 0.4, 2),
]


@pytest.mark.parametrize("make, u, top", [c[1:] for c in _CHARTS],
                         ids=[c[0] for c in _CHARTS])
def test_each_derivative_is_the_slope_of_the_one_below(make, u, top):
    chart = make()
    if u is None:
        u = _mid_first_segment(chart)
    h = 1e-5
    for k in range(1, top + 1):
        slope = (chart.deriv(u + h, k - 1) - chart.deriv(u - h, k - 1)) / (2 * h)
        got = chart.deriv(u, k)
        assert abs(slope - got) <= 1e-7 * (abs(got) + abs(chart.deriv(u, k - 1)))
    # the named reads are deriv at orders 0-3
    reads = (chart.point, chart.velocity, chart.acceleration, chart.jerk)
    for k in range(top + 1):
        assert reads[k](u) == chart.deriv(u, k)


@pytest.mark.parametrize("make, u, top", [c[1:] for c in _CHARTS],
                         ids=[c[0] for c in _CHARTS])
def test_a_jet_has_the_bits_of_each_derivative(make, u, top):
    chart = make()
    lo, hi = (0.0, 1.0) if u is not None else (chart.breaks[0], chart.breaks[2])
    us = np.linspace(lo, hi, 37)
    for order in range(top + 1):
        jet = chart.jet(us, order)
        assert len(jet) == order + 1
        for k, got in enumerate(jet):
            assert np.array_equal(got, chart.deriv(us, k))


_TRIG_CURVES = [
    ("ellipse", lambda: ellipse().outer),
    ("blob", lambda: fourier_blob().outer),
    ("hole", lambda: blob_with_hole().holes[0]),
]


@pytest.mark.parametrize("make", [c[1] for c in _TRIG_CURVES],
                         ids=[c[0] for c in _TRIG_CURVES])
def test_a_trig_series_matches_an_extended_precision_sum(make):
    # the dense sum in long double; an uncentred split (low modes riding
    # on high-frequency factors) with unreduced phase arguments misses
    # this bound about thirtyfold
    curve = make()
    pi = np.longdouble("3.14159265358979323846264338327950288")
    t = np.random.default_rng(11).uniform(0.0, 1.0, 300)
    k = curve._k.astype(np.longdouble)
    phase = np.exp(2j * pi * np.outer(t.astype(np.longdouble), k))
    for order in range(4):
        want = phase @ (curve._coef.astype(np.clongdouble)
                        * (2j * pi * k) ** order)
        got = curve.deriv(t, order)
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [c[1] for c in _TRIG_CURVES],
                         ids=[c[0] for c in _TRIG_CURVES])
def test_a_trig_series_has_the_same_bits_alone_and_in_a_batch(make):
    curve = make()
    t = np.random.default_rng(12).uniform(0.0, 1.0, 1000)
    batch = curve.jet(t, 3)
    for i in range(t.size):
        alone = curve.jet(t[i], 3)
        assert all(a == b[i] for a, b in zip(alone, batch))


def test_an_offset_arc_has_no_third_derivative():
    arc = OffsetArc(SubArc(ellipse().outer, 0.1, 0.3), 0.05)
    with pytest.raises(GeometryError, match="third derivative"):
        arc.deriv(0.5, 3)
    with pytest.raises(GeometryError, match="third derivative"):
        arc.jerk(0.5)
    with pytest.raises(GeometryError, match="third derivative"):
        SubArc(arc, 0.2, 0.9).jerk(0.5)


@pytest.mark.parametrize("base, lo, hi, top", [
    (CircleArc(0.3 + 0.1j, 0.7, 0.2, 2.5), 0.6, 1.3, 3),
    (OffsetArc(SubArc(ellipse().outer, 0.1, 0.3), 0.05), 0.2, 0.9, 2),
], ids=["circle", "offset"])
def test_a_sub_arc_of_an_open_arc_is_affine_without_wrap(base, lo, hi, top):
    # the circle's base parameters pass 1 unreduced: its angle is not
    # periodic in u, so a wrap would move the points
    u = np.linspace(0.0, 1.0, 11)
    s = lo + u * (hi - lo)
    sub = SubArc(base, lo, hi)
    assert np.array_equal(sub.deriv(u, 0), base.deriv(s, 0))
    for k in range(1, top + 1):
        assert np.array_equal(sub.deriv(u, k), (hi - lo) ** k * base.deriv(s, k))


def test_a_sub_arc_of_a_closed_curve_wraps_past_one():
    curve = ellipse().outer
    sub = SubArc(curve, 0.9, 1.2)
    u = np.linspace(0.0, 1.0, 7)
    s = (0.9 + u * (1.2 - 0.9)) % 1.0
    assert s.min() < 0.2 and s.max() < 1.0  # the tail wrapped
    assert np.array_equal(sub.deriv(u, 0), curve.deriv(s, 0))
    for k in range(1, 4):
        assert np.array_equal(sub.deriv(u, k), (1.2 - 0.9) ** k * curve.deriv(s, k))
    assert sub.reversed().point(0.0) == sub.point(1.0)


# -- segment crossings ---------------------------------------------------

_LENGTHS = (1, 3, 63, 64, 65, 2048)  # around run edges (runs of 16 segments)


@st.composite
def _walk(draw):
    """Vertices of a random or nearly straight walk at a random scale."""
    n = draw(st.sampled_from(_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        steps = rng.normal(size=n) + 1j * rng.normal(size=n)
    else:
        # heading drifts by 1e-12..1e-2 rad per step
        drift = 10.0 ** draw(st.floats(-12.0, -2.0))
        heading = rng.uniform(0, 2 * np.pi) + np.cumsum(drift * rng.normal(size=n))
        steps = np.exp(1j * heading) * rng.uniform(0.5, 1.5, n)
    start = np.sqrt(n) * (rng.normal() + 1j * rng.normal())
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * (start + np.concatenate([[0.0], np.cumsum(steps)]))


def _assert_same_pairs(a0, a1, b0, b1):
    got_i, got_j = crossing_pairs(a0, a1, b0, b1)
    want_i, want_j = all_pairs_crossings(a0, a1, b0, b1)
    assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_walk(), _walk())
def test_crossing_pairs_match_all_pairs(za, zb):
    _assert_same_pairs(za[:-1], za[1:], zb[:-1], zb[1:])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_walk(), st.integers(0, 2**32 - 1))
def test_crossing_pairs_match_all_pairs_on_shared_endpoints(z, seed):
    # a closed walk against itself, and against chords between its vertices
    a0, a1 = z, np.roll(z, -1)
    _assert_same_pairs(a0, a1, a0, a1)
    rng = np.random.default_rng(seed)
    k = rng.integers(0, z.size, size=(2, min(z.size, 300)))
    _assert_same_pairs(a0, a1, z[k[0]], z[k[1]])


@pytest.mark.parametrize("n, m", [(15, 17), (17, 250), (31, 33), (1001, 47)])
def test_crossing_pairs_match_all_pairs_off_run_edges(n, m):
    # neither family's length is a multiple of the 16-segment run, so the
    # last run of each is short
    rng = np.random.default_rng(n * m)
    za = np.cumsum(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
    zb = np.cumsum(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
    _assert_same_pairs(za[:-1], za[1:], zb[:-1], zb[1:])
    _assert_same_pairs(za[:-1], za[1:], za[:-1], za[1:])


def test_crossing_pairs_test_bounded_blocks_when_every_run_box_meets(
        monkeypatch):
    # 2050 vertices spread over the unit square: every 16-segment run
    # spans most of it, so every run pair is a candidate, and each call
    # of the exact test still takes at most _PAIR_BLOCK segment pairs
    x, y = np.random.default_rng(5).uniform(size=(2, 2050))
    z = x + 1j * y
    a0, a1 = z[:-1], z[1:]
    tested = count_tested_pairs(monkeypatch)
    _assert_same_pairs(a0, a1, a0, a1)
    assert sum(tested) == len(a0) ** 2
    assert max(tested) <= _PAIR_BLOCK


def test_points_on_one_line_never_cross():
    # rounding used to make the predicate call some collinear segments
    # crossing, and pruning dropped the pairs in box-disjoint runs; a
    # turn within its error bound now touches, so both find nothing
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(10, 400))))
        z = (0.3 + 0.7j) + 3.7 * t * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a0, a1 = z[:-1], z[1:]
        _assert_same_pairs(a0, a1, a0, a1)
        assert crossing_pairs(a0, a1, a0, a1)[0].size == 0


@pytest.mark.parametrize("m", [64, 256, 1024, 4096])
def test_a_rotated_square_does_not_cross_itself(m):
    # points rounded onto the rotated sides used to cross at 1024 nodes
    s = np.arange(m // 4) / (m // 4)
    corners = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    square = np.concatenate(
        [corners[k] + s * (corners[(k + 1) % 4] - corners[k]) for k in range(4)])
    assert not polyline_self_intersects(square * np.exp(0.3j))


def test_self_crossing_check_tests_few_pairs(monkeypatch):
    t = np.arange(8192) / 8192
    circle = np.exp(2j * np.pi * t)
    tested = count_tested_pairs(monkeypatch)
    assert not polyline_self_intersects(circle)
    assert sum(tested) < 0.05 * 8192**2


@st.composite
def _closed_polyline(draw):
    """Vertices of a closed polyline that may or may not cross itself,
    most of them not a multiple of 16 in number."""
    n = draw(st.sampled_from((5, 15, 16, 17, 31, 33, 48, 63, 100, 257)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ("walk", "straight", "hairpin", "eight", "collinear")))
    t = np.arange(n) / n
    if kind == "walk":
        z = np.cumsum(rng.normal(size=n) + 1j * rng.normal(size=n))
    elif kind == "straight":
        # heading drifts by 1e-12..1e-2 rad per step; the closing
        # segment runs back along the walk
        drift = 10.0 ** draw(st.floats(-12.0, -2.0))
        heading = np.cumsum(drift * rng.normal(size=n))
        z = np.cumsum(np.exp(1j * heading) * rng.uniform(0.5, 1.5, n))
    elif kind == "hairpin":
        # a circle with a spike of 2L + 1 segments that folds back on
        # itself, the way back offset sideways by a slope that may take
        # it across the way out
        z = np.exp(2j * np.pi * t)
        length = draw(st.integers(1, 6))
        k = draw(st.integers(0, max(0, n - 2 * length - 2)))
        e = np.exp(1j * rng.uniform(0, 2 * np.pi)) * 0.5 / n
        j = np.arange(1, length + 1)
        side = rng.uniform(-1.0, 1.0) + draw(st.floats(-2.0, 2.0)) * j / length
        spike = np.concatenate([z[k] + e * j,
                                z[k] + e * (length + 0.5 - j) + 1j * e * side])
        z = np.concatenate([z[:k + 1], spike, z[k + 1:]])[:n]
    elif kind == "eight":
        # the branches cross at the origin, between segments that a roll
        # puts at, or next to, a run boundary
        phase = draw(st.sampled_from((0.0, 0.5, 0.25)))
        s = (np.arange(n) + phase) / n
        z = np.sin(2 * np.pi * s) + 0.5j * np.sin(4 * np.pi * s)
        z = np.roll(z, 16 * draw(st.integers(0, 16)) + draw(st.integers(-1, 1)))
    else:
        # out and back along one line, or in random order along it
        s = rng.uniform(0.0, 1.0, n)
        if draw(st.booleans()):
            s = np.sort(s)
        z = (0.3 + 0.7j) + s * np.exp(1j * rng.uniform(0, 2 * np.pi))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * z


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_closed_polyline())
def test_self_crossing_check_matches_every_pair_that_is_not_adjacent(z):
    m = len(z)
    a1 = np.roll(z, -1)
    i, j = all_pairs_crossings(z, a1, z, a1)
    gap = (i - j) % m
    want = bool(np.any((gap != 0) & (gap != 1) & (gap != m - 1)))
    assert polyline_self_intersects(z) == want


@pytest.mark.parametrize("roll", [0, 1, 15, 16, 17, 31])
def test_a_figure_eight_crosses_itself_at_any_run_edge(roll):
    # the branches cross at the origin, between segments 39 and 79 of
    # the unrolled polyline
    s = (np.arange(80) + 0.5) / 80
    z = np.roll(np.sin(2 * np.pi * s) + 0.5j * np.sin(4 * np.pi * s), roll)
    assert polyline_self_intersects(z)


@pytest.mark.parametrize("s, t", [(0.17, 0.32), (0.84, 0.66), (1.17, -0.68)])
def test_two_crossing_circles_meet_where_both_points_agree(s, t):
    # B(-0.5, 1) and B(0.5, 1) cross at +-i sqrt(3)/2; a seed past the
    # wrap point converges through the charts' own reduction mod 1
    a, b = disc(-0.5, 1.0).outer, disc(0.5, 1.0).outer
    s, t, z, va, vb = _meet(a, b, s, t, 0.05, 1.0)
    # the points agreed to 3.9e-16 and sat 2.6e-16 from the exact crossing
    assert abs(a.point(s) - b.point(t)) < 1e-15
    assert abs(z - 1j * np.sign(z.imag) * np.sqrt(0.75)) < 1e-15
    assert z == a.point(s)
    assert abs(va - a.velocity(s)) < 1e-9 and abs(vb - b.velocity(t)) < 1e-9


@pytest.mark.parametrize("s, t", [(0.1, 0.3), (0.1, 0.1), (0.3, 0.9)])
def test_concentric_circles_do_not_meet(s, t):
    assert _meet(disc(0.0, 1.0).outer, disc(0.0, 0.5).outer,
                 s, t, 0.05, 1.0) is None


def test_each_trimmed_junction_lies_the_offset_from_both_base_arcs():
    # the union's two corners are reflex, so its offset arcs overrun there
    # and are trimmed back to where they meet
    d1, d2 = two_disc_pair("asymmetric")
    grown = thicken(boolean_union(d1, d2), 0.05)
    ends = [seg.point(u) for seg in grown.outer.segments
            for u, t in ((0.0, seg.t0), (1.0, seg.t1)) if 0.0 < t < 1.0]
    assert len(ends) == 4
    for z in ends:
        gaps = [abs(abs(z - c) - r) for c, r in (d1.primitive[1],
                                                 d2.primitive[1])]
        # at most 1.6e-15 from 0.05 when measured
        assert np.allclose(gaps, 0.05, rtol=0.0, atol=3e-15)
