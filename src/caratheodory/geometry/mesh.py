"""Arclength quadrature meshes on domain boundaries.

A mesh of n nodes puts n on the outer curve and meshes each hole at the
outer curve's mean spacing, 2 ceil(n L_k / (2 L_0)) nodes on hole k, L
being arclength, but never fewer than 32 nor than n/8.  The trapezoid
rule's error is set by the node spacing against the distance to the
nearest singularity (Trefethen and Weideman, SIAM Rev. 2014), so the
system is sized by the boundary's length, not by its number of curves.
The floor grows with n so that a short hole's nodes still double with
the outer curve's: with a fixed floor both meshes of a doubling pair
would share one hole mesh, and the pair check would not see its error.
The pair still settles values on rough boundaries, on meshes adapted to
a foot and where curves nearly touch; on the other uniform meshes of
smooth boundaries the Fourier tail of the density on each curve, the
hole's included, settles a value on one mesh (see
kernels.szego._resolved).

Smooth curves get the uniform trapezoid rule in the curve parameter,
which is spectrally accurate for periodic integrands; on a trig curve
its nodes and velocities come from the FFT (``TrigCurve.uniform_eval``),
so the nodes are ``polyline(n)``'s points.  Cornered curves get a
composite midpoint rule between consecutive corners with a polynomial
grading substitution, clustering nodes at the corners where kernel
densities lose smoothness.  Tangents follow the traversal that
keeps the domain on the left: counterclockwise on the outer curve,
clockwise on holes.

A mesh may also be adapted to a base point near the boundary, given its
foot: the nearest curve, the parameter t_p of the nearest point on it,
and the distance d.  A smooth curve then gets the trapezoid rule
through the circle Mobius map e^{2 pi i (t - t_p)} = M(e^{2 pi i
(s - t_p)}), M(zeta) = (zeta + r) / (1 + r zeta), which is analytic and
periodic, so the rule stays spectral (Tee and Trefethen, SISC 2006) while
its nodes crowd at t_p; on a cornered curve t_p is one more break of the
corner grading.  The adapted curve gets all n nodes, a hole too: the
map's reach, the least d its nodes keep clearance from, scales with the
curve's length over its node count squared, so a hole's share of n
would leave a point near it unreachable at the top of a mesh ladder.
Every other curve is meshed as without a foot.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError

# exponent of the corner grading substitution; 1 would be uniform, and 3
# regains enough smoothness for second-kind integral equations on
# transversally cornered boundaries (Kress 1990)
_GRADING = 3.0


def _graded_map(xi, p):
    """The substitution v(u) = u^p / (u^p + (1-u)^p) and its derivative."""
    up = xi**p
    um = (1.0 - xi) ** p
    den = up + um
    v = up / den
    dv = p * (xi * (1.0 - xi)) ** (p - 1.0) / den**2
    return v, dv


class BoundaryMesh:
    """Quadrature nodes, arclength weights and unit tangents on a boundary.

    ``curve_slices[k]`` is the index range of curve k (outer first), and
    ``spacing[j]`` the longer of the two chords at node j; h_max is the
    largest.
    """

    def __init__(self, owner, nodes, weights, tangents, curve_slices):
        self.owner = owner
        self.nodes = nodes
        self.weights = weights
        self.tangents = tangents
        self.curve_slices = tuple(curve_slices)
        self.spacing = np.empty(nodes.size)
        for lo, hi in self.curve_slices:
            chord = np.abs(np.roll(nodes[lo:hi], -1) - nodes[lo:hi])
            np.maximum(chord, np.roll(chord, 1), out=self.spacing[lo:hi])
        for a in (nodes, weights, tangents, self.spacing):
            a.flags.writeable = False
        self.h_max = float(np.max(self.spacing))

    @property
    def size(self):
        return self.nodes.size

    def __repr__(self):
        return "BoundaryMesh(%d nodes, %d curves, h_max=%.3g)" % (
            self.size,
            len(self.curve_slices),
            self.h_max,
        )


def _runs_between(breaks):
    """Parameter intervals between consecutive breaks, cyclically."""
    cp = sorted(breaks)
    return [(a, b) for a, b in zip(cp, cp[1:] + [cp[0] + 1.0])]


def _mobius_params(n, t_p, eps):
    """Parameters t(s) at s = j/n under the circle map clustering at t_p
    with density 1/eps there, and their derivatives t'(s)."""
    r = (1.0 - eps) / (1.0 + eps)
    zeta = np.exp(2j * np.pi * (np.arange(n) / n - t_p))
    t = (t_p + np.angle((zeta + r) / (1.0 + r * zeta)) / (2.0 * np.pi)) % 1.0
    return t, (1.0 - r * r) / np.abs(1.0 + r * zeta) ** 2


def _mesh_curve(curve, n, flip, foot=None):
    """Nodes, weights and tangents of one curve; foot is (t_p, d) or None."""
    if curve.corner_params:
        breaks = list(curve.corner_params)
        if foot is not None and all(
                abs((foot[0] - c + 0.5) % 1.0 - 0.5) > 1e-9 for c in breaks):
            breaks.append(foot[0])
        ts = []
        ws = []
        for a, b in _runs_between(breaks):
            m = max(8, int(round(n * (b - a))))
            xi = (np.arange(m) + 0.5) / m
            v, dv = _graded_map(xi, _GRADING)
            ts.append((a + (b - a) * v) % 1.0)
            ws.append((b - a) * dv / m)
        t = np.concatenate(ts)
        dt = np.concatenate(ws)
    elif foot is not None:
        # eps weighs the peak's width, d over the speed at the foot in
        # parameter units, against the far side's stretch by 1/eps
        t_p, d = foot
        eps = min(0.5, 2.0 * np.sqrt(d / abs(curve.velocity(t_p))))
        t, dt = _mobius_params(n, t_p, eps)
        dt /= n
    else:
        # smooth closed curve: uniform trapezoid in the parameter
        t = np.arange(n) / n
        dt = np.full(n, 1.0 / n)
    if foot is None and hasattr(curve, "uniform_eval"):
        # a trig curve, never cornered: its series at the j/n by FFT, the
        # points polyline(n) samples
        z = curve.uniform_eval(n, 0)
        v = curve.uniform_eval(n, 1)
    else:
        # points and velocities from one jet, with deriv's bits
        z, v = (np.asarray(x, dtype=complex) for x in curve.jet(t, 1))
    speed = np.abs(v)
    w = speed * dt
    tang = v / speed
    if flip:
        tang = -tang
    return z, w, tang


def _curve_counts(domain, n):
    """Node budget of each curve: n on the outer one and each hole's share
    by arclength, even and at least max(32, n/8) (module docstring).  One
    curve reads no length."""
    curves = domain.curves
    if len(curves) == 1:
        return [n]
    outer = curves[0].length
    floor = max(32, 2 * (n // 16))
    return [n] + [max(floor, 2 * math.ceil(n * c.length / (2.0 * outer)))
                  for c in curves[1:]]


def mesh_boundary(domain, n, foot=None):
    """Quadrature mesh of all boundary curves of a domain.

    n is the node budget of the outer curve (>= 32, even); each hole gets
    its share by arclength, at least max(32, n/8) (see the module
    docstring).  Corners get the polynomial grading of exponent
    _GRADING.  foot = (k, t_p, d), as Domain.foot gives it, adapts curve
    k, with n nodes, to a base point at distance d from its point t_p.
    """
    n = int(n)
    if n < 32 or n % 2 != 0:
        raise GeometryError("n must be even and at least 32, got %s" % n)
    feet = {} if foot is None else {foot[0]: tuple(foot[1:])}

    nodes = []
    weights = []
    tangents = []
    slices = []
    pos = 0
    for k, (c, m) in enumerate(zip(domain.curves, _curve_counts(domain, n))):
        z, w, tg = _mesh_curve(c, n if k in feet else m, k > 0, feet.get(k))
        nodes.append(z)
        weights.append(w)
        tangents.append(tg)
        slices.append((pos, pos + z.size))
        pos += z.size
    return BoundaryMesh(
        domain,
        np.concatenate(nodes),
        np.concatenate(weights),
        np.concatenate(tangents),
        slices,
    )
