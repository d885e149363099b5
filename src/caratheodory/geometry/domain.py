"""Bounded domains: one outer curve, zero or more hole curves.

All curves are stored counterclockwise.  A point is inside the domain when
it is inside the outer curve and outside every hole.  Containment uses the
winding number of a fine cached polyline.  ``Domain.foot`` is the
package's one boundary-distance code: it polishes the nearest node of
that polyline with a bounded scalar minimization, which gives the
distance and the nearest boundary point's parameter at once.
``dist_to_boundary`` reads its distance for grid clearance and solver
clearance guards, and the solver meshes near-boundary points at the foot.
Each domain remembers the feet it has computed: a grid point is asked
again when the solver picks its mesh.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from ..errors import GeometryError

_POLY_M = 2048  # nodes per curve for winding tests and distance seeds


def _winding_many(poly, z):
    """Winding numbers of a closed polyline around each point of z (complex array)."""
    out = np.zeros(z.shape, dtype=float)
    a = poly
    b = np.roll(poly, -1)
    step = max(1, 4_000_000 // max(1, poly.size))
    flat = z.ravel()
    res = out.ravel()
    for i in range(0, flat.size, step):
        w = flat[i : i + step, None]
        # a point sitting on a polyline node divides by zero here; the
        # resulting nan makes the winding ambiguous, which the caller
        # resolves with a distance check, so keep the pass quiet
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = np.angle((b[None, :] - w) / (a[None, :] - w))
        res[i : i + step] = np.sum(ang, axis=1) / (2.0 * np.pi)
    return out


def _curve_foot(curve, z):
    """Distance from z to the curve, polished to ~1e-10 relative, and the
    parameter of the nearest point."""
    params, pts = curve.polyline(_POLY_M)
    d = np.abs(pts - z)
    j = int(np.argmin(d))
    lo = params[j - 1] if j > 0 else params[-1] - 1.0
    hi = params[(j + 1) % len(params)]
    if hi <= lo:
        hi += 1.0

    def f(t):
        return abs(curve.point(t % 1.0) - z) ** 2

    r = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                        options={"xatol": 1e-12})
    return float(np.sqrt(max(r.fun, 0.0))), float(r.x % 1.0)


class Domain:
    """Bounded, finitely connected region of the plane.

    ``primitive`` is an optional tag describing analytic structure, e.g.
    ``("disc", center, radius)``; harness routing uses it to pick closed
    forms over numerical solvers.  It never changes the geometry.
    """

    def __init__(self, outer, holes=(), label="", primitive=None):
        self.outer = outer
        self.holes = tuple(holes)
        self.label = label
        self.primitive = primitive
        self._feet = {}  # point -> foot
        if self.outer.signed_area <= 0:
            raise GeometryError("outer curve must be counterclockwise")
        _, outer_poly = self.outer.polyline(_POLY_M)
        for i, h in enumerate(self.holes):
            if h.signed_area <= 0:
                raise GeometryError("hole curves are stored counterclockwise")
            _, hp = h.polyline(256)
            w = _winding_many(outer_poly, hp)
            if not np.all(np.abs(w - 1.0) < 0.25):
                raise GeometryError("hole %d is not inside the outer curve" % i)
            for g in self.holes[:i]:
                _, gp = g.polyline(_POLY_M)
                w2 = _winding_many(gp, hp)
                if np.any(np.abs(w2) > 0.25):
                    raise GeometryError("holes overlap or nest")

    # -- queries -----------------------------------------------------------

    @property
    def curves(self):
        return (self.outer,) + self.holes

    def contains(self, z):
        return bool(self.contains_many(np.asarray([z], dtype=complex))[0])

    def contains_many(self, z, boundary="raise"):
        """Boolean mask of strict interior membership.

        boundary="raise" errors out on points that sit on a curve;
        boundary="exclude" silently marks them outside (grid sampling).
        """
        z = np.asarray(z, dtype=complex)
        _, poly = self.outer.polyline(_POLY_M)
        w = _winding_many(poly, z)
        inside = np.abs(w - 1.0) < 0.25
        ambiguous = ~(np.minimum(np.abs(w), np.abs(w - 1.0)) < 0.25)
        for h in self.holes:
            _, hp = h.polyline(_POLY_M)
            wh = _winding_many(hp, z)
            inside &= np.abs(wh) < 0.25
            ambiguous |= ~(np.minimum(np.abs(wh), np.abs(wh - 1.0)) < 0.25)
        if np.any(ambiguous):
            # winding failed to resolve; point sits essentially on a curve
            inside[ambiguous] = False
            if boundary == "raise":
                for zz in z[ambiguous]:
                    d = min(_curve_foot(c, complex(zz))[0] for c in self.curves)
                    if d < 1e-7:
                        raise GeometryError(
                            "point %s is on the boundary (dist %.3g)" % (zz, d)
                        )
        return inside

    def foot(self, z):
        """(k, t, d): the nearest boundary point to the interior point z is
        curves[k].point(t), at distance d."""
        z = complex(z)
        if z not in self._feet:
            if not self.contains(z):
                raise GeometryError("point %s is not inside the domain" % z)
            d, t, k = min(_curve_foot(c, z) + (k,)
                          for k, c in enumerate(self.curves))
            self._feet[z] = (k, t, d)
        return self._feet[z]

    def dist_to_boundary(self, z):
        return self.foot(z)[2]

    def bounding_box(self):
        _, poly = self.outer.polyline(_POLY_M)
        return (
            float(poly.real.min()),
            float(poly.real.max()),
            float(poly.imag.min()),
            float(poly.imag.max()),
        )

    def __repr__(self):
        tag = self.label or (self.primitive[0] if self.primitive else "domain")
        return "Domain(%s, holes=%d)" % (tag, len(self.holes))

