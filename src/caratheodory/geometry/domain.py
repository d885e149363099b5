"""Bounded domains: one outer curve, zero or more hole curves.

All curves are stored counterclockwise.  A point is inside the domain when
it is inside the outer curve and outside every hole.  Containment uses the
winding number of a fine cached polyline; a point within one node spacing
of a polyline, where the polyline may pass on either side of the curve,
is on the boundary when its distance to the curve is under 1e-7.

``Domain.feet`` is the package's one boundary-distance code, and ``foot``
asks it for one point.  For a batch of points it seeds each curve's
nearest point at the nearest node of that polyline, then runs Newton's
method on the stationarity condition Re(conj(gamma(t) - z) gamma'(t)) = 0
for all of them at once, inside the bracket of the seed's two neighbour
nodes.  The points whose iterate leaves its bracket or does not converge,
as at a corner, are bisected together instead, for the sign change of
that condition in their brackets; a foot at a corner lands on it to
rounding.  Each point's iterates depend on that point alone, so a foot
has the same bits in any batch.  ``dist_to_boundary`` reads the distance
for clearance guards, grids take theirs from one ``feet`` call, and the
solver meshes near-boundary points at the foot.  Each domain remembers
the feet it has computed, those of the interior points that containment
measured too: a grid point is asked again when the solver picks its mesh.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from .curves import _POLY_M
# Newton steps a foot may take, and the parameter step that ends them:
# from the seed's 1/4096 the quadratic rate needs about three
_NEWTON_STEPS = 20
_NEWTON_TOL = 1e-8
# halvings that take a bracket of two node spacings, about 2^-10, to
# 2^-54, under the spacing of doubles in [0.5, 2)
_BISECTIONS = 44
_WINDING_TERMS = 2**16  # point-node pairs per block of _winding_many
_ON_CURVE = 1e-7  # a point nearer a curve than this is on the boundary


def _winding_many(poly, z):
    """Winding numbers of a closed polyline around each point of z (complex
    array), and a mask of the points whose nearest node lies within one
    node spacing, where the polyline may pass on either side of the curve.

    The winding counts the signed crossings of the rightward horizontal
    ray from each point (an upward edge counts where the point is on its
    left, a downward one where it is on its right); the node distances
    come from the same differences.
    """
    a = poly
    e = np.roll(poly, -1) - a
    h2 = np.max(np.abs(e)) ** 2
    flat = z.ravel()
    wind = np.zeros(flat.size)
    near = np.zeros(flat.size, dtype=bool)
    step = max(1, _WINDING_TERMS // max(1, poly.size))
    for i in range(0, flat.size, step):
        w = flat[i : i + step, None]
        dx = a.real - w.real
        dy = a.imag - w.imag
        above = dy > 0.0
        cross = np.empty_like(above)
        np.not_equal(above[:, :-1], above[:, 1:], out=cross[:, :-1])
        np.not_equal(above[:, -1], above[:, 0], out=cross[:, -1])
        r, j = np.nonzero(cross)
        left = dx[r, j] * e.imag[j] - dy[r, j] * e.real[j]
        sense = np.where(above[r, j], -1.0, 1.0)  # +1 for an upward edge
        wind[i : i + step] = np.bincount(r, sense * (sense * left > 0.0),
                                         minlength=w.shape[0])
        dx *= dx
        dy *= dy
        dx += dy
        near[i : i + step] = np.min(dx, axis=1) <= h2
    return wind.reshape(z.shape), near.reshape(z.shape)


def _bisect_feet(curve, zs, lo, hi):
    """Arrays (d, t) at a local minimum of the distance from each point of
    zs to the curve in its bracket [lo, hi]: bisection for the sign change
    of the stationarity condition from - to +, which finds a kink too."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p, v = curve.jet(mid % 1.0, 1)
        up = np.real(np.conj(p - zs) * v) > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    t = 0.5 * (lo + hi)
    return np.abs(curve.point(t % 1.0) - zs), t


def _curve_feet(curve, zs):
    """Arrays (d, t): the distance from each point of zs to the curve and
    the parameter of the nearest point, in [0, 1).  Newton runs on the
    whole batch from the nearest node of the polyline; what it misses is
    bisected as one batch in the same brackets."""
    params, pts = curve.polyline(_POLY_M)
    m = params.size
    j = np.empty(zs.size, dtype=int)
    step = max(1, 4_000_000 // m)
    for i in range(0, zs.size, step):
        j[i : i + step] = np.argmin(np.abs(pts - zs[i : i + step, None]),
                                    axis=1)
    lo = np.where(j > 0, params[j - 1], params[-1] - 1.0)
    hi = params[(j + 1) % m]
    hi = np.where(hi <= lo, hi + 1.0, hi)

    d = np.empty(zs.size)
    t = params[j].copy()
    active = np.arange(zs.size)
    missed = []
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        p, v, a = curve.jet(t[active] % 1.0, 2)
        r = p - zs[active]
        g = np.real(np.conj(r) * v)
        gp = np.abs(v) ** 2 + np.real(np.conj(r) * a)
        dt = g / gp
        t_new = t[active] - dt
        # a nan fails every comparison, so it leaves the bracket
        ok = (gp > 0.0) & (t_new > lo[active]) & (t_new < hi[active])
        done = ok & (np.abs(dt) <= _NEWTON_TOL)
        # past the tolerance the new iterate's error is O(dt^2), which
        # moves the distance only at second order again; a second-order
        # Taylor sum moves r there without another evaluation
        h = dt[done]
        d[active[done]] = np.abs(r[done] - h * v[done] + 0.5 * h * h * a[done])
        missed.append(active[~ok])
        t[active[ok]] = t_new[ok]
        active = active[ok & ~done]
    missed = np.concatenate(missed + [active])
    if missed.size:
        d[missed], t[missed] = _bisect_feet(curve, zs[missed], lo[missed],
                                            hi[missed])
    t %= 1.0
    t[t == 1.0] = 0.0  # a t just below 0 rounds up to 1.0
    return d, t


class Domain:
    """Bounded, finitely connected region of the plane.

    ``primitive`` is an optional tag describing analytic structure, e.g.
    ``("disc", center, radius)``; harness routing uses it to pick closed
    forms over numerical solvers.  It never changes the geometry.

    Each hole is checked to lie inside the outer curve, by a winding pass
    of its polyline, and apart from the holes before it.  The booleans
    pass the input holes they keep whole as ``_placed``: such a hole was
    checked when its input domain was built, crosses none of the curves
    the result's outer boundary is cut from, and was placed inside it by
    the winding test of one of its points, so its pass is skipped.
    """

    def __init__(self, outer, holes=(), label="", primitive=None, *,
                 _placed=()):
        self.outer = outer
        self.holes = tuple(holes)
        self.label = label
        self.primitive = primitive
        self._feet = {}  # point -> foot
        self._inside = set()  # points contains_many has found inside
        if self.outer.signed_area <= 0:
            raise GeometryError("outer curve must be counterclockwise")
        _, outer_poly = self.outer.polyline(_POLY_M)
        for i, h in enumerate(self.holes):
            if h.signed_area <= 0:
                raise GeometryError("hole curves are stored counterclockwise")
            _, hp = h.polyline(256)
            if not any(h is p for p in _placed):
                w, _ = _winding_many(outer_poly, hp)
                if not np.all(w == 1.0):
                    raise GeometryError(
                        "hole %d is not inside the outer curve" % i)
            for g in self.holes[:i]:
                _, gp = g.polyline(_POLY_M)
                w2, _ = _winding_many(gp, hp)
                if np.any(w2 != 0.0):
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
        A point is on a curve when its distance to it is under 1e-7; the
        distance is computed only for the points that the winding pass
        finds within one node spacing of some curve's polyline.
        """
        z = np.asarray(z, dtype=complex)
        inside = np.ones(z.shape, dtype=bool)
        near = np.zeros(z.shape, dtype=bool)
        for k, curve in enumerate(self.curves):
            _, poly = curve.polyline(_POLY_M)
            w, close = _winding_many(poly, z)
            inside &= w == (1.0 if k == 0 else 0.0)
            near |= close
        if np.any(near):
            zs = z[near]
            feet = self._nearest_feet(zs)
            d = np.array([f[2] for f in feet])
            on = d < _ON_CURVE
            if boundary == "raise" and np.any(on):
                i = int(np.argmax(on))
                raise GeometryError("point %s is on the boundary (dist %.3g)"
                                    % (zs[i], d[i]))
            inside[near] &= ~on
            # feet do not depend on the batch, so feet may serve these
            self._feet.update((complex(p), f) for p, f, keep
                              in zip(zs, feet, inside[near]) if keep)
        self._inside.update(z[inside].tolist())
        return inside

    def _nearest_feet(self, zs):
        """[(k, t, d)] of the points zs: the nearest curve k, the parameter
        t of its nearest point and the distance d, solved as one batch."""
        per = [_curve_feet(c, zs) for c in self.curves]
        nearest = np.argmin([d for d, _ in per], axis=0)
        return [(int(k), float(per[k][1][i]), float(per[k][0][i]))
                for i, k in enumerate(nearest)]

    def feet(self, zs):
        """[(k, t, d)] for the interior points zs: the nearest boundary
        point to each is curves[k].point(t), at distance d.  The points
        not asked before are checked for containment, unless
        contains_many has found them inside already, and those it has not
        measured are solved as one batch; a point outside raises
        GeometryError."""
        zs = [complex(z) for z in np.ravel(zs)]
        new = np.array([z for z in dict.fromkeys(zs) if z not in self._feet],
                       dtype=complex)
        if new.size:
            doubt = new[[z not in self._inside for z in new.tolist()]]
            out = doubt[~self.contains_many(doubt)] if doubt.size else doubt
            if out.size:
                raise GeometryError("point %s is not inside the domain"
                                    % out[0])
            new = new[[z not in self._feet for z in new.tolist()]]
            if new.size:
                self._feet.update(zip(new.tolist(), self._nearest_feet(new)))
        return [self._feet[z] for z in zs]

    def foot(self, z):
        """(k, t, d) of one interior point z; see feet."""
        return self.feet([z])[0]

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

