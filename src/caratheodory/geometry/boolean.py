"""Boolean combinations of domains by boundary arc tracing.

Intersections of the two boundaries are seeded where the curves'
``_POLY_M``-node polylines cross, and polished by ``curves._meet``'s
Newton iteration.  Candidate segment pairs are pruned by bounding box
before the exact crossing test (``curves.crossing_pairs``).  Each
boundary curve is then cut at those points and every resulting arc is
kept or dropped by testing a single interior sample against the other
domain.  Kept arcs chain into closed loops; positive loops become outer
curves, negative loops become holes.

Every arc of a result is a ``SubArc`` of an input curve, so the result's
polyline, which its self-crossing check, hole placement and containment
read at the same size, is the inputs' cached nodes plus one point per arc
start (``PiecewiseCurve.polyline``).

Tangential contact is rejected rather than perturbed: graded meshes
degrade at cusps and the kernels downstream assume transversal corners.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, TangencyError
from .curves import (
    _POLY_M,
    PiecewiseCurve,
    SubArc,
    _cross,
    _meet,
    crossing_pairs,
)
from .domain import Domain, _winding_many

_MIN_CROSS_SIN = 1e-3  # reject crossings shallower than ~0.057 degrees
_MIN_AREA = 1e-10
_PARAM_EPS = 1e-12


def _refine_crossing(c1, c2, t1, t2, scale):
    """Newton-polish a crossing seed; returns (t1, t2, point)."""
    # short steps keep the iteration near the seeded crossing
    met = _meet(c1, c2, t1, t2, 0.05, scale)
    if met is None:
        raise TangencyError(
            "boundary curves meet tangentially near %s" % c1.point(t1))
    t1, t2, z, v1, v2 = met
    sin_angle = abs(_cross(v1, v2)) / (abs(v1) * abs(v2))
    if sin_angle < _MIN_CROSS_SIN:
        raise TangencyError(
            "near-tangential crossing (angle %.2e rad) near %s" % (sin_angle, z))
    return t1 % 1.0, t2 % 1.0, z


def curve_pair_intersections(c1, c2):
    """All transversal intersections of two closed curves.

    Returns (t1, t2, points) as parallel arrays sorted by t1.  Raises
    ``TangencyError`` on near-tangential contact and ``GeometryError``
    when an odd crossing count signals a missed intersection.
    """
    p1, z1 = c1.polyline(_POLY_M)
    p2, z2 = c2.polyline(_POLY_M)
    scale = max(np.max(np.abs(z1)), np.max(np.abs(z2)), 1.0)
    a0, a1 = z1, np.roll(z1, -1)
    b0, b1 = z2, np.roll(z2, -1)
    pa = np.concatenate([p1, [p1[0] + 1.0]])
    pb = np.concatenate([p2, [p2[0] + 1.0]])

    found = []
    for i, j in zip(*crossing_pairs(a0, a1, b0, b1)):
        d1 = a1[i] - a0[i]
        d2 = b1[j] - b0[j]
        den = _cross(d1, d2)
        s = _cross(b0[j] - a0[i], d2) / den
        u = _cross(b0[j] - a0[i], d1) / den
        t1 = pa[i] + s * (pa[i + 1] - pa[i])
        t2 = pb[j] + u * (pb[j + 1] - pb[j])
        found.append(_refine_crossing(c1, c2, t1, t2, scale))

    # polished crossings found from adjacent seeds coincide; dedupe by point
    uniq = []
    for t1, t2, z in found:
        if all(abs(z - w) > 1e-9 * scale for _, _, w in uniq):
            uniq.append((t1, t2, z))
    if len(uniq) % 2 != 0:
        raise GeometryError(
            "odd number of boundary crossings (%d); an intersection was missed "
            "or the contact is degenerate" % len(uniq)
        )
    uniq.sort(key=lambda r: r[0])
    t1s = np.array([r[0] for r in uniq])
    t2s = np.array([r[1] for r in uniq])
    pts = np.array([r[2] for r in uniq], dtype=complex)
    return t1s, t2s, pts


def _split_forward(curve, lo, hi):
    """SubArcs covering native interval [lo, hi] cut at the curve's corners."""
    cuts = [lo]
    for tc in curve.corner_params:
        for k in (0.0, 1.0):
            t = tc + k
            if lo + _PARAM_EPS < t < hi - _PARAM_EPS:
                cuts.append(t)
    cuts.append(hi)
    cuts = sorted(cuts)
    return [SubArc(curve, cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


class _Run:
    """Directed boundary piece between two intersection nodes."""

    __slots__ = ("start", "end", "arcs", "mid_param", "curve")

    def __init__(self, start, end, arcs, mid_param, curve):
        self.start = start
        self.end = end
        self.arcs = arcs
        self.mid_param = mid_param
        self.curve = curve


def _curve_runs(curve, recs, ccw):
    """Split a boundary curve at its intersection records into directed runs.

    recs is a list of (t, node_id); ccw=False traverses the curve backwards
    (hole curves, so the domain stays on the left).
    """
    recs = sorted(recs)
    runs = []
    m = len(recs)
    for i in range(m):
        t_lo, n_lo = recs[i]
        t_hi, n_hi = recs[(i + 1) % m]
        if i == m - 1:
            t_hi += 1.0
        if t_hi - t_lo < _PARAM_EPS:
            raise GeometryError("coincident boundary crossings")
        arcs = _split_forward(curve, t_lo, t_hi)
        mid = 0.5 * (t_lo + t_hi) % 1.0
        if ccw:
            runs.append(_Run(n_lo, n_hi, arcs, mid, curve))
        else:
            back = [a.reversed() for a in reversed(arcs)]
            runs.append(_Run(n_hi, n_lo, back, mid, curve))
    return runs


def _keep(op, other, z):
    inside = other.contains(z)
    return inside if op == "intersect" else not inside


def _collect_loops(d1, d2, op):
    """Trace the kept-arc graph; returns (loops, whole) where loops are
    PiecewiseCurves in traversal orientation and whole are (curve, ccw_flag)
    untouched input curves that survive the membership test."""
    curves1 = d1.curves
    curves2 = d2.curves
    nodes = []
    recs1 = [[] for _ in curves1]
    recs2 = [[] for _ in curves2]
    for i, ca in enumerate(curves1):
        for j, cb in enumerate(curves2):
            t1s, t2s, pts = curve_pair_intersections(ca, cb)
            for t1, t2, z in zip(t1s, t2s, pts):
                nid = len(nodes)
                nodes.append(z)
                recs1[i].append((float(t1), nid))
                recs2[j].append((float(t2), nid))

    runs = []
    whole = []
    for domain, other, curves, recs in (
        (d1, d2, curves1, recs1),
        (d2, d1, curves2, recs2),
    ):
        for k, c in enumerate(curves):
            ccw = k == 0  # holes are traversed backwards
            if recs[k]:
                for run in _curve_runs(c, recs[k], ccw):
                    if _keep(op, other, run.curve.point(run.mid_param)):
                        runs.append(run)
            else:
                if _keep(op, other, c.point(0.1234)):
                    whole.append((c, ccw))

    succ = {}
    for run in runs:
        if run.start in succ:
            raise GeometryError("ambiguous arc chaining at a crossing point")
        succ[run.start] = run

    loops = []
    visited = set()
    for run in runs:
        if run.start in visited:
            continue
        arcs = []
        node = run.start
        while True:
            if node in visited:
                raise GeometryError("arc chaining revisited a crossing point")
            visited.add(node)
            step = succ.get(node)
            if step is None:
                raise GeometryError("dangling arc at a crossing point")
            arcs.extend(step.arcs)
            node = step.end
            if node == run.start:
                break
        loops.append(PiecewiseCurve(arcs))
    return loops, whole


def _assemble(loops, whole, d1, d2):
    """Sort traced loops and whole curves into (outer, holes) groups; a
    group's "placed" holes are the input holes it keeps whole."""
    outers = []  # (curve, area, inherited_primitive)
    holes = []  # curves, stored ccw
    for lp in loops:
        area = lp.signed_area
        if abs(area) < _MIN_AREA:
            continue
        if area > 0:
            outers.append((lp, area, None))
        else:
            holes.append(lp.reversed())
    for c, ccw in whole:
        if ccw:
            prim = None
            for d in (d1, d2):
                if c is d.outer and not d.holes:
                    prim = d.primitive
            outers.append((c, c.signed_area, prim))
        else:
            holes.append(c)

    groups = []
    for oc, area, prim in sorted(outers, key=lambda r: -r[1]):
        groups.append({"outer": oc, "area": area, "primitive": prim,
                       "holes": [], "placed": []})
    for h in holes:
        zh = h.point(0.317)
        best = None
        for g in groups:
            _, poly = g["outer"].polyline(_POLY_M)
            w = _winding_many(poly, np.asarray([zh]))[0][0]
            if w == 1.0:
                if best is None or g["area"] < best["area"]:
                    best = g
        if best is None:
            raise GeometryError("traced hole lies in no component")
        best["holes"].append(h)
        if any(h is c for c, _ in whole):
            best["placed"].append(h)
    return groups


def _two_disc_tag(tag, group, d1, d2):
    """The group's primitive, or (tag, (disc1, disc2)) when it is the
    two-arc lens or union of two disc-tagged domains."""
    if (
        group["primitive"] is None
        and all(d.primitive and d.primitive[0] == "disc" for d in (d1, d2))
        and not group["holes"]
        and isinstance(group["outer"], PiecewiseCurve)
        and len(group["outer"].segments) == 2
    ):
        return (tag, (d1.primitive[1], d2.primitive[1]))
    return group["primitive"]


def boolean_intersect(d1, d2):
    """Connected components of the intersection of two domains.

    Every component boundary is a chain of re-parameterized sub-arcs of
    the input curves with corners at the crossing points.  Returns an
    empty list when the domains are disjoint.
    """
    loops, whole = _collect_loops(d1, d2, "intersect")
    groups = _assemble(loops, whole, d1, d2)
    out = []
    for g in groups:
        if len(groups) == 1:
            prim = _two_disc_tag("lens", g, d1, d2)
        else:
            prim = g["primitive"]
        label = "(%s & %s)" % (d1.label or "D1", d2.label or "D2")
        out.append(Domain(g["outer"], g["holes"], label=label, primitive=prim,
                          _placed=g["placed"]))
    return out


def boolean_union(d1, d2):
    """Union of two overlapping domains as a single connected Domain.

    The boundaries must cross (or one domain contain the other); a
    disconnected union is rejected, and enclosed pockets become holes.
    """
    loops, whole = _collect_loops(d1, d2, "union")
    groups = _assemble(loops, whole, d1, d2)
    if len(groups) != 1:
        raise GeometryError(
            "union has %d components; the domains do not overlap" % len(groups)
        )
    g = groups[0]
    prim = _two_disc_tag("two_disc_union", g, d1, d2)
    label = "(%s | %s)" % (d1.label or "D1", d2.label or "D2")
    return Domain(g["outer"], g["holes"], label=label, primitive=prim,
                  _placed=g["placed"])
