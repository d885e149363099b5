"""Closed-form conformal metric densities.

Everything here is normalized to curvature -4: the unit disc density is
1/(1 - |z|^2), the upper half-plane 1/(2 Im w), and the horizontal strip
of height h is pi/(2h sin(pi y / h)).  These serve both as oracles for
the kernel solver and as the Poincare metric for the domain families
where a covering map is available in closed form (discs, annuli, and
the two-disc lens/union family via a Mobius-plus-power-map pullback).
On the simply connected ones the Poincare density is c_D; on an annulus
it is not (c_D there is the series that
tests/curvature_reference.py::annulus_series sums), so c_D of an annulus
comes from the Szego solve.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, TangencyError


def disc_metric(center, radius, z):
    """Density of B(center, radius) at z, R/(R^2 - |z-center|^2).

    On a disc the Caratheodory and Poincare metrics coincide; affine
    covariance fixes the scaling from the unit disc formula.
    """
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z - center) ** 2
    # phrased so that nan fails too
    if not np.all(r2 < radius**2):
        raise GeometryError("point outside the disc B(%s, %s)" % (center, radius))
    out = radius / (radius**2 - r2)
    return float(out) if out.ndim == 0 else out


def poincare_annulus(r_inner, z):
    """Poincare density of the annulus r_inner < |z| < 1.

    The logarithm w = -log z covers the annulus by the vertical strip
    0 < Re w < h with h = log(1/r_inner); pulling the strip density
    pi/(2h sin(pi x / h)) back through |dw/dz| = 1/|z| gives

        lambda(z) = pi / (2 h |z| sin(pi log(1/|z|) / h)).

    This is not c_D, which on q < |z| < 1 is the smaller series
    sum_n |z|^(2n) / (1 + q^(2n+1)) (see the module docstring).
    """
    if not (0.0 < r_inner < 1.0):
        raise GeometryError("inner radius must be in (0,1), got %s" % r_inner)
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    # phrased so that nan fails too
    if not np.all((r > r_inner) & (r < 1.0)):
        raise GeometryError("point outside the annulus %s < |z| < 1" % r_inner)
    h = np.log(1.0 / r_inner)
    out = np.pi / (2.0 * h * r * np.sin(np.pi * np.log(1.0 / r) / h))
    return float(out) if out.ndim == 0 else out


def annulus_metric(center, r_inner, r_outer, z):
    """Poincare density of center + {r_inner < |w| < r_outer} (rescaled);
    not c_D, as poincare_annulus says."""
    zz = (np.asarray(z, dtype=complex) - center) / r_outer
    return poincare_annulus(r_inner / r_outer, zz) / r_outer


def circle_intersection(c1, r1, c2, r2):
    """The two transversal intersection points of a pair of circles."""
    c1, c2 = complex(c1), complex(c2)
    d = abs(c2 - c1)
    if d >= r1 + r2 or d <= abs(r1 - r2) or d == 0.0:
        raise GeometryError("circles are disjoint or nested; no crossing points")
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 <= 1e-14 * r1 * r1:
        raise TangencyError("circles meet tangentially")
    u = (c2 - c1) / d
    m = c1 + a * u
    h = np.sqrt(h2)
    return m + 1j * h * u, m - 1j * h * u


class SectorPullback:
    """Poincare density of a two-disc lens or union region.

    The Mobius map M(z) = (z - p)/(z - q), with p, q the circle crossing
    points, sends both circles to straight lines through the origin, so
    the region becomes an infinite sector of opening beta at the vertex.
    Its rays are the images of the region's two boundary arcs.  With u
    the unit vector from c1 to c2, the lens's arcs hold c1 + r1 u and
    c2 - r2 u, the union's c1 - r1 u and c2 + r2 u; the midpoint of the
    lens's two lies in both regions, so its image picks the sector between
    the rays.  A circle's two arcs map to opposite rays, so each ray is
    read at the one of its circle's two points farther from p and q.
    A sector of opening beta is taken to the upper half-plane by
    w -> w^(pi/beta), and pulling 1/(2 Im) back gives the sector density

        lambda_sector(w) = pi / (2 beta |w| sin(pi phi / beta)),

    with phi the angle of w measured from the nearer of the sector's two
    edges (the sine is symmetric about the bisector).
    The region density is lambda_sector(M(z)) |M'(z)|.
    """

    def __init__(self, disc1, disc2, which):
        c1, r1 = complex(disc1[0]), float(disc1[1])
        c2, r2 = complex(disc2[0]), float(disc2[1])
        if which not in ("intersection", "union"):
            raise GeometryError("region must be 'intersection' or 'union'")
        self.discs = ((c1, r1), (c2, r2))
        self.which = which
        self.p, self.q = p, q = circle_intersection(c1, r1, c2, r2)

        u = (c2 - c1) / abs(c2 - c1)
        m = 0.5 * ((c1 + r1 * u) + (c2 - r2 * u))
        w = [(m - p) / (m - q)]
        side = 1.0 if which == "intersection" else -1.0
        for c, a in ((c1, side * r1 * u), (c2, -side * r2 * u)):
            # M(c + a), or -M(c - a) where c - a lies farther from p and q
            s = -1.0 if abs(c + a - p) < abs(c - a - p) else 1.0
            w.append(s * (c + s * a - p) / (c + s * a - q))
        mid, lo, hi = np.angle(w).tolist()
        rays = [x / abs(x) for x in w[1:]]
        self.opening = (hi - lo) % (2 * np.pi)
        if (mid - lo) % (2 * np.pi) >= self.opening:
            rays.reverse()
            self.opening = 2 * np.pi - self.opening
        self.rays = tuple(rays)  # unit vectors of the start and end rays

    def contains(self, z):
        (c1, r1), (c2, r2) = self.discs
        in1 = np.abs(z - c1) < r1
        in2 = np.abs(z - c2) < r2
        return (in1 & in2) if self.which == "intersection" else (in1 | in2)

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        if not np.all(self.contains(z)):
            raise GeometryError("point outside the requested two-disc region")
        w = (z - self.p) / (z - self.q)
        dm = np.abs(self.p - self.q) / np.abs(z - self.q) ** 2
        beta = self.opening
        # the angle from the nearer ray, start or end, which the sine
        # weighs alike: measured from the farther one, its rounding would
        # be relative to beta, not to the angle itself
        start, end = self.rays
        phi = np.minimum(np.angle(w * np.conj(start)) % (2 * np.pi),
                         np.angle(end * np.conj(w)) % (2 * np.pi))
        lam = np.pi / (2.0 * beta * np.abs(w) * np.sin(np.pi * phi / beta))
        out = lam * dm
        return float(out) if out.ndim == 0 else out
