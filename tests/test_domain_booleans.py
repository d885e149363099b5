"""Containment queries and boolean combinations of domains."""

import numpy as np
import pytest

from caratheodory.errors import GeometryError, TangencyError
from caratheodory.geometry import (
    Domain,
    TrigCurve,
    boolean,
    boolean_intersect,
    boolean_union,
    curve_eval,
    curve_from_samples,
    curves,
)
from caratheodory.geometry import domain as domain_module
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    disc,
    ellipse,
    fourier_blob,
    two_disc_pair,
    unit_disc,
)
from crossing_reference import all_pairs_crossings, count_tested_pairs


def test_contains_basic_points():
    d = unit_disc()
    assert d.contains(0.5)
    assert not d.contains(1.5)
    a = annulus()
    assert a.contains(0.7)
    assert not a.contains(0.3)  # inside the hole
    assert not a.contains(1.5)


def test_point_on_boundary_is_rejected():
    d = unit_disc()
    # a point exactly on the curve makes the winding test ambiguous
    z = curve_eval(d.outer, 10.0 / 2048.0).point
    with pytest.raises(GeometryError, match="on the boundary"):
        d.contains(z)
    got = d.contains_many(np.array([0.5, z, 2.0]), boundary="exclude")
    assert list(got) == [True, False, False]


@pytest.mark.parametrize("make", [unit_disc, ellipse])
def test_points_on_the_curve_between_polyline_nodes_are_rejected(make):
    # every 7th node parameter of the 2048-node polyline, and the middle
    # of each of those chords: none need share a node's bits
    d = make()
    j = np.arange(0, 2048, 7)
    for t in np.concatenate([j, j + 0.5]) / 2048:
        with pytest.raises(GeometryError, match="on the boundary"):
            d.contains(d.outer.point(t))
    on = d.outer.point(np.concatenate([j, j + 0.5]) / 2048)
    assert not np.any(d.contains_many(on, boundary="exclude"))


@pytest.mark.parametrize("make", [
    fourier_blob, lambda: boolean_intersect(*two_disc_pair("symmetric"))[0],
], ids=["blob", "lens"])
def test_ray_crossings_count_the_winding_of_the_angle_sum(make):
    # off the nodes the angle sum is an integer up to rounding
    _, poly = make().outer.polyline(2048)
    xs = np.linspace(-1.7, 1.7, 61)
    z = (xs[None, :] + 1j * xs[:, None]).ravel()
    w, near = domain_module._winding_many(poly, z)
    ang = np.angle((np.roll(poly, -1) - z[:, None]) / (poly - z[:, None]))
    assert np.array_equal(w, np.round(np.sum(ang, axis=1) / (2 * np.pi)))
    assert set(w) == {0.0, 1.0}
    gap = np.min(np.abs(poly - z[:, None]), axis=1)
    h = np.max(np.abs(np.roll(poly, -1) - poly))
    assert np.all(near[gap < 0.99 * h]) and not np.any(near[gap > 1.01 * h])


def test_intersection_of_crossing_discs_is_a_lens():
    d1, d2 = two_disc_pair("symmetric")
    parts = boolean_intersect(d1, d2)
    assert len(parts) == 1
    lens = parts[0]
    assert lens.primitive[0] == "lens"
    assert len(lens.outer.corner_params) == 2
    # unit circles centered at -1/2 and 1/2 cross at +-i sqrt(3)/2
    corners = sorted(
        (lens.outer.point(t) for t in lens.outer.corner_params),
        key=lambda z: z.imag,
    )
    assert abs(corners[0] - (-1j * np.sqrt(3) / 2)) < 1e-9
    assert abs(corners[1] - (1j * np.sqrt(3) / 2)) < 1e-9
    assert lens.contains(0.0)
    assert not lens.contains(0.8)


def test_intersection_of_disjoint_discs_is_empty():
    assert boolean_intersect(disc(-3.0, 1.0), disc(3.0, 1.0)) == []


def test_nested_discs_intersect_to_the_inner_one():
    inner, outer = two_disc_pair("nested")
    parts = boolean_intersect(inner, outer)
    assert len(parts) == 1
    got = parts[0]
    assert got.primitive[0] == "disc"
    center, radius = got.primitive[1]
    assert abs(center) < 1e-12 and radius == pytest.approx(0.5)


def test_nested_discs_union_to_the_outer_one():
    inner, outer = two_disc_pair("nested")
    got = boolean_union(inner, outer)
    assert got.primitive[0] == "disc"
    _, radius = got.primitive[1]
    assert radius == pytest.approx(1.0)


def test_union_of_crossing_discs():
    d1, d2 = two_disc_pair("symmetric")
    uni = boolean_union(d1, d2)
    assert uni.primitive[0] == "two_disc_union"
    assert uni.holes == ()
    assert uni.contains(-1.2) and uni.contains(1.2) and uni.contains(0.0)
    assert not uni.contains(1.2j)  # above the waist, outside both discs


def test_union_of_disjoint_discs_is_rejected():
    with pytest.raises(GeometryError, match="do not overlap"):
        boolean_union(disc(-3.0, 1.0), disc(3.0, 1.0))


def test_exactly_tangent_circles_read_as_disjoint():
    # one-point contact has no transversal crossings and no interior
    # overlap, so intersection is empty and union refuses to chain
    assert boolean_intersect(disc(0.0, 1.0), disc(2.0, 1.0)) == []
    with pytest.raises(GeometryError, match="do not overlap"):
        boolean_union(disc(0.0, 1.0), disc(2.0, 1.0))


def test_shallow_crossings_are_rejected_as_tangential():
    # a slightly squeezed ellipse cuts the unit circle four times at
    # about 8e-4 rad, under the 1e-3 transversality gate
    t = 2 * np.pi * np.arange(256) / 256.0
    e = 4e-4
    thin = Domain(TrigCurve((1 + e) * np.cos(t) + 1j * (1 - e) * np.sin(t)),
                  label="squeezed circle")
    with pytest.raises(TangencyError, match="tangential"):
        boolean_intersect(unit_disc(), thin)


def test_boolean_membership_agrees_with_disc_membership():
    d1, d2 = two_disc_pair("symmetric")
    lens = boolean_intersect(d1, d2)[0]
    uni = boolean_union(d1, d2)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1.7, 1.7, 4000) + 1j * rng.uniform(-1.2, 1.2, 4000)
    in1 = np.abs(z + 0.5) < 1.0
    in2 = np.abs(z - 0.5) < 1.0
    # stay away from the circles so the exact predicates are unambiguous
    clear = (np.abs(np.abs(z + 0.5) - 1.0) > 1e-3) & (np.abs(np.abs(z - 0.5) - 1.0) > 1e-3)
    z, in1, in2 = z[clear], in1[clear], in2[clear]
    got_int = lens.contains_many(z, boundary="exclude")
    got_uni = uni.contains_many(z, boundary="exclude")
    assert np.array_equal(got_int, in1 & in2)
    assert np.array_equal(got_uni, in1 | in2)


def _crescent(center, rot):
    """Thickened 220-degree circular arc, traversed counterclockwise."""
    R0, w, phi = 0.75, 0.18, np.deg2rad(110.0)
    L_out, L_cap, L_in = (R0 + w) * 2 * phi, np.pi * w, (R0 - w) * 2 * phi
    total = L_out + 2 * L_cap + L_in
    n = 384
    n_out = int(n * L_out / total)
    n_cap = int(n * L_cap / total)
    n_in = n - n_out - 2 * n_cap
    pts = [
        (R0 + w) * np.exp(1j * np.linspace(-phi, phi, n_out, endpoint=False)),
        R0 * np.exp(1j * phi)
        + w * np.exp(1j * (phi + np.linspace(0, np.pi, n_cap, endpoint=False))),
        (R0 - w) * np.exp(1j * np.linspace(phi, -phi, n_in, endpoint=False)),
        R0 * np.exp(-1j * phi)
        + w * np.exp(1j * (-phi + np.pi + np.linspace(0, np.pi, n_cap, endpoint=False))),
    ]
    z = center + np.concatenate(pts) * np.exp(1j * rot)
    return Domain(curve_from_samples(z), label="crescent")


def test_union_of_interlocking_crescents_encloses_a_hole():
    c1 = _crescent(-0.1, np.pi)
    c2 = _crescent(0.1, 0.0)
    uni = boolean_union(c1, c2)
    assert len(uni.holes) == 1
    # the two crescents wrap around the origin without covering it
    assert not c1.contains(0.0) and not c2.contains(0.0)
    assert not uni.contains(0.0)
    rng = np.random.default_rng(11)
    z = rng.uniform(-1.1, 1.1, 400) + 1j * rng.uniform(-1.1, 1.1, 400)
    got = uni.contains_many(z, boundary="exclude")
    want = c1.contains_many(z, boundary="exclude") | c2.contains_many(z, boundary="exclude")
    assert np.array_equal(got, want)


def _localization_pair():
    ell = ellipse()
    return ell, disc(ell.outer.point(0.25), 0.5)


@pytest.mark.parametrize(
    "make_pair",
    [
        blob_disc_pair,
        lambda: two_disc_pair("symmetric"),
        _localization_pair,
        lambda: (_crescent(-0.1, np.pi), _crescent(0.1, 0.0)),
    ],
    ids=["blob_disc", "symmetric_discs", "localization", "crescents"],
)
def test_pruned_crossings_trace_the_same_booleans(make_pair, monkeypatch):
    d1, d2 = make_pair()

    def traced():
        hits = [
            boolean.curve_pair_intersections(ca, cb)
            for ca in d1.curves
            for cb in d2.curves
        ]
        doms = boolean_intersect(d1, d2) + [boolean_union(d1, d2)]
        return hits, [c.polyline(1024)[1] for d in doms for c in d.curves]

    hits, nodes = traced()
    monkeypatch.setattr(boolean, "crossing_pairs", all_pairs_crossings)
    monkeypatch.setattr(curves, "crossing_pairs", all_pairs_crossings)
    ref_hits, ref_nodes = traced()
    assert sum(len(h[0]) for h in hits) > 0
    for got, want in zip(hits, ref_hits, strict=True):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
    for g, w in zip(nodes, ref_nodes, strict=True):
        assert np.array_equal(g, w)


def test_boolean_tracing_tests_few_segment_pairs(monkeypatch):
    d1, d2 = blob_disc_pair()
    tested = count_tested_pairs(monkeypatch)
    boolean_intersect(d1, d2)
    # all pairs would be 2048^2 for each of the two curve pairs
    assert sum(tested) < 0.05 * 2 * 2048**2


def _localization_piece(d1, d2):
    # what localization_experiment traces: U, a disc of radius 0.5 about
    # a boundary point, against the domain
    return boolean_intersect(disc(d1.outer.point(0.25), 0.5), d1)


@pytest.mark.parametrize(
    "make_pair, op",
    [
        (blob_disc_pair, lambda d1, d2: [boolean_union(d1, d2)]),
        (blob_disc_pair, boolean_intersect),
        (lambda: (ellipse(), None), _localization_piece),
    ],
    ids=["union", "intersection", "localization"],
)
def test_boolean_results_read_their_polylines_off_their_inputs(
        make_pair, op, monkeypatch):
    d1, d2 = make_pair()
    series = curves.TrigCurve._series
    counts = {"all": 0, "polyline": 0, "meet": 0}
    inside = []

    def counting(self, t, orders):
        for name in ["all"] + inside:
            counts[name] += np.size(t)
        return series(self, t, orders)

    def tagged(name, f):
        def call(*args):
            inside.append(name)
            try:
                return f(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(curves.TrigCurve, "_series", counting)
    monkeypatch.setattr(curves.PiecewiseCurve, "polyline",
                        tagged("polyline", curves.PiecewiseCurve.polyline))
    monkeypatch.setattr(boolean, "_meet", tagged("meet", boolean._meet))
    doms = op(d1, d2)
    monkeypatch.undo()

    loops = [c for d in doms for c in d.curves
             if isinstance(c, curves.PiecewiseCurve)]
    arcs = sum(len(c.segments) for c in loops)
    assert arcs >= 2
    # a polyline evaluates each arc at its start alone; the rest is each
    # arc's 32-node length, 64-node area integral (points and velocities)
    # and end jets, a membership sample per run and per whole curve, and
    # the crossings' Newton steps.  Measured: 2 + 201..202 + 10..14; the
    # series polylines at 1024 and 2048 nodes took 3,072 more
    assert counts["polyline"] <= arcs
    assert counts["all"] - counts["meet"] <= arcs * (1 + 32 + 64 + 2) + 8

    tested = count_tested_pairs(monkeypatch)
    for c in loops:
        params, pts = c.polyline(curves._POLY_M)
        assert params[0] >= 0.0 and params[-1] < 1.0
        assert np.all(np.diff(params) > 0.0)
        # 1.3e-15 of the scale at most when measured
        scale = np.max(np.abs(pts))
        assert np.max(np.abs(c.point(params) - pts)) <= 1e-13 * scale
        assert not curves.polyline_self_intersects(pts)
    # only the runs at the corners are tested: 0, 0 and 478 pairs when
    # measured, against 49,152 for a 1024-node sweep that tested every
    # run against its neighbours
    assert sum(tested) < 2048


def test_hole_validation():
    with pytest.raises(GeometryError, match="hole 0 is not inside the outer"):
        Domain(unit_disc().outer, [disc(3.0, 0.2).outer])
    with pytest.raises(GeometryError, match="holes overlap or nest"):
        Domain(unit_disc().outer, [disc(0.1, 0.2).outer, disc(-0.1, 0.2).outer])


def test_a_hole_a_boolean_keeps_whole_is_not_checked_again(monkeypatch):
    blob, other = blob_disc_pair()
    passes = []
    real = domain_module._winding_many

    def counting(poly, z):
        passes.append(len(z))
        return real(poly, z)

    monkeypatch.setattr(domain_module, "_winding_many", counting)
    union = boolean_union(blob, other)
    assert union.holes == blob.holes
    # the hole's 256-point pass ran when the blob was built, not again
    assert 256 not in passes
    # built by hand from the same curves, the domain checks its hole
    Domain(union.outer, union.holes)
    assert passes.count(256) == 1
