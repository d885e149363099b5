"""Outward thickening of domains (parallel curves at distance eps).

Smooth curves are offset by resampling z(t) - i*eps*z'(t)/|z'(t)| and
re-interpolating.  Piecewise curves get one offset arc per segment;
corners where the offset opens a gap are capped with circular arcs, and
corners where adjacent offset arcs overrun each other are trimmed back
to their intersection (a ``SubArc`` of each offset arc), which
``curves._meet`` finds from the arcs' ends at the corner.  Holes are
offset inward so the domain grows on every boundary component.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from .curves import (
    CircleArc,
    OffsetArc,
    PiecewiseCurve,
    SubArc,
    TrigCurve,
    _meet,
    _normalized,
)
from .domain import Domain

_REACH_MARGIN = 0.05  # refuse offsets that eat more than 95% of the reach


def _offset_trig(curve, d):
    """Offset of a smooth curve as a fresh interpolant."""
    m = int(min(4096, max(8 * curve.samples.size, 512)))
    z = curve.uniform_eval(m, 0)
    v = curve.uniform_eval(m, 1)
    pts = z - 1j * d * v / np.abs(v)
    return TrigCurve(pts)


def _trim_pair(arc_a, arc_b, corner):
    """Intersection of consecutive overlapping offset arcs near a corner.

    Returns (u on arc_a, u on arc_b)."""
    met = _meet(arc_a, arc_b, 1.0, 0.0, 0.2, abs(corner) + 1.0)
    if met is None:
        raise GeometryError("offset arcs fail to meet near corner %s" % corner)
    ua, ub = met[:2]
    if not (0.0 < ua <= 1.0 + 1e-9 and -1e-9 <= ub < 1.0):
        raise GeometryError(
            "offset trim escaped its segment near %s; offset too large" % corner)
    return min(ua, 1.0), max(ub, 0.0)


def _offset_piecewise(curve, d):
    segs = list(curve.segments)
    n = len(segs)
    offs = [OffsetArc(seg, d) for seg in segs]

    # per-junction action: cap (gap opens) or trim (arcs overrun)
    caps = [None] * n  # cap arc inserted before segment i
    lo = [0.0] * n
    hi = [1.0] * n
    for i in range(n):
        prev = (i - 1) % n
        t_out = _normalized(segs[prev].velocity(1.0))
        t_in = _normalized(segs[i].velocity(0.0))
        turn = float(np.angle(t_in / t_out))
        corner = complex(segs[i].point(0.0))
        if abs(turn) < 1e-9:
            continue  # smooth join; offset arcs already meet
        if turn * d > 0:
            a1 = float(np.angle(-1j * t_out * np.sign(d)))
            caps[i] = CircleArc(corner, abs(d), a1, a1 + turn)
        else:
            ua, ub = _trim_pair(offs[prev], offs[i], corner)
            hi[prev] = min(hi[prev], ua)
            lo[i] = max(lo[i], ub)

    chain = []
    for i in range(n):
        if caps[i] is not None:
            chain.append(caps[i])
        if hi[i] <= lo[i]:
            raise GeometryError("offset trims consumed a whole segment")
        if lo[i] == 0.0 and hi[i] == 1.0:
            chain.append(offs[i])
        else:
            chain.append(SubArc(offs[i], lo[i], hi[i]))
    return PiecewiseCurve(chain)


def _offset_curve(curve, d):
    kappa = curve.curvature_samples()
    if np.min(1.0 + d * kappa) < _REACH_MARGIN:
        raise GeometryError(
            "offset %.4g exceeds the reach of the boundary (min 1+d*kappa = %.3g)"
            % (d, float(np.min(1.0 + d * kappa)))
        )
    if isinstance(curve, TrigCurve):
        return _offset_trig(curve, d)
    return _offset_piecewise(curve, d)


def _grown_primitive(primitive, eps):
    if primitive is None:
        return None
    kind = primitive[0]
    if kind == "disc":
        center, radius = primitive[1]
        return ("disc", (center, radius + eps))
    if kind == "annulus":
        center, r_in, r_out = primitive[1]
        return ("annulus", (center, r_in - eps, r_out + eps))
    return None  # lens etc. lose their closed form when thickened


def thicken(domain, eps):
    """Domain grown by eps: outer boundary pushed out, holes pulled in.

    The input domain is strictly contained in the result and the
    connectivity is unchanged.  Raises ``GeometryError`` when eps is not
    positive and finite, exceeds the boundary reach, or the offset curves
    collide.
    """
    eps = float(eps)
    if not 0.0 < eps < np.inf:  # nan fails too
        raise GeometryError(
            "thickening distance must be positive and finite, got %s" % eps)
    outer = _offset_curve(domain.outer, eps)
    holes = [_offset_curve(h, -eps) for h in domain.holes]
    label = (domain.label + "+%g" % eps) if domain.label else "thickened"
    return Domain(
        outer,
        holes,
        label=label,
        primitive=_grown_primitive(domain.primitive, eps),
    )
