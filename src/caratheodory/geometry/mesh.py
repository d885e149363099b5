"""Arclength quadrature meshes on domain boundaries.

Smooth curves get the uniform trapezoid rule in the curve parameter,
which is spectrally accurate for periodic integrands; on a trig curve
its nodes and velocities come from the FFT (``TrigCurve.uniform_eval``),
so the nodes are ``polyline(n)``'s points.  Cornered curves get a
composite midpoint rule between consecutive corners with a polynomial
grading substitution, clustering nodes at the corners where kernel
densities lose smoothness.  Tangents follow the traversal that
keeps the domain on the left: counterclockwise on the outer curve,
clockwise on holes.
"""

from __future__ import annotations

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

    ``curve_slices[k]`` is the index range of curve k (outer first).
    """

    def __init__(self, owner, nodes, weights, tangents, curve_slices):
        self.owner = owner
        self.nodes = nodes
        self.weights = weights
        self.tangents = tangents
        self.curve_slices = tuple(curve_slices)
        for a in (nodes, weights, tangents):
            a.flags.writeable = False
        self.h_max = 0.0
        for lo, hi in self.curve_slices:
            z = nodes[lo:hi]
            self.h_max = max(self.h_max, float(np.max(np.abs(np.roll(z, -1) - z))))

    @property
    def size(self):
        return self.nodes.size

    def __repr__(self):
        return "BoundaryMesh(%d nodes, %d curves, h_max=%.3g)" % (
            self.size,
            len(self.curve_slices),
            self.h_max,
        )


def _runs_between_corners(curve):
    """Parameter intervals between consecutive corners (whole curve if none)."""
    cp = sorted(curve.corner_params)
    if not cp:
        return [(0.0, 1.0)]
    runs = []
    for i in range(len(cp)):
        a = cp[i]
        b = cp[i + 1] if i + 1 < len(cp) else cp[0] + 1.0
        runs.append((a, b))
    return runs


def _mesh_curve(curve, n, flip):
    if curve.corner_params:
        runs = _runs_between_corners(curve)
        ts = []
        ws = []
        for a, b in runs:
            m = max(8, int(round(n * (b - a))))
            xi = (np.arange(m) + 0.5) / m
            v, dv = _graded_map(xi, _GRADING)
            ts.append((a + (b - a) * v) % 1.0)
            ws.append((b - a) * dv / m)
        t = np.concatenate(ts)
        dt = np.concatenate(ws)
    else:
        # smooth closed curve: uniform trapezoid in the parameter
        t = np.arange(n) / n
        dt = np.full(n, 1.0 / n)
    if hasattr(curve, "uniform_eval"):
        # a trig curve, never cornered: its series at the j/n by FFT, the
        # points polyline(n) samples
        z = curve.uniform_eval(n, 0)
        v = curve.uniform_eval(n, 1)
    else:
        z = np.asarray(curve.point(t), dtype=complex)
        v = np.asarray(curve.velocity(t), dtype=complex)
    speed = np.abs(v)
    w = speed * dt
    tang = v / speed
    if flip:
        tang = -tang
    return z, w, tang


def mesh_boundary(domain, n_per_curve):
    """Quadrature mesh of all boundary curves of a domain.

    n_per_curve is the node budget for each curve (>= 32, even).  Corners
    get the polynomial grading of exponent _GRADING.
    """
    n = int(n_per_curve)
    if n < 32 or n % 2 != 0:
        raise GeometryError("n_per_curve must be even and at least 32, got %s" % n)

    nodes = []
    weights = []
    tangents = []
    slices = []
    pos = 0
    for k, c in enumerate(domain.curves):
        z, w, tg = _mesh_curve(c, n, flip=(k > 0))
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
