"""Closed planar curves.

Two chart families cover everything the rest of the package needs:

* ``TrigCurve`` -- a closed curve stored as the periodic trigonometric
  interpolant of complex samples.  Derivatives come from differentiating
  the Fourier series, so smooth sample sets give spectrally accurate
  tangents, normals and curvatures.
* ``PiecewiseCurve`` -- a closed chain of smooth arcs (sub-arcs,
  circular arcs, offset arcs).  This is what boolean operations and
  offsets produce; corners live at the junctions.

Every chart has one method ``deriv(t, order)`` (the point at order 0, then
parameter derivatives), read by ``point`` through ``jerk``; closed curves
run over t in [0, 1) with a ``period``, arcs over u in [0, 1].  ``SubArc``
is the one affine re-parameterization (booleans and offsets both cut with it).

Closed curves are stored counterclockwise (positive signed area).  Hole
orientation is a bookkeeping concern of ``Domain`` and the mesher, never of
the curve itself.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.spatial import cKDTree

from ..errors import GeometryError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_U = 0.5 * (_GL_X + 1.0)  # Gauss-Legendre nodes on [0, 1]
_GL_WU = 0.5 * _GL_W

CurveEval = namedtuple("CurveEval", ["point", "tangent", "normal", "curvature"])


def _as_param_array(t):
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    return np.atleast_1d(t), scalar


def _cross(p, q):
    """2-D cross product Im(conj(p) q) of complex vectors."""
    return np.imag(np.conj(p) * q)


# relative rounding-error bound of a double-precision 2-D orientation
# determinant (Shewchuk's ccwerrboundA, Discrete Comput. Geom. 18, 1997)
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _turn(o, p, q):
    """The two products whose difference is the turn determinant of
    o -> p -> q (positive to the left)."""
    u = p - o
    v = q - o
    return u.real * v.imag, u.imag * v.real


def _segments_properly_cross(a0, a1, b0, b1):
    """Vectorized proper-crossing test for segment families (complex endpoints).

    Each segment must have the other's endpoints strictly on opposite
    sides.  A turn within its rounding-error bound of zero counts as
    touching, so points rounded onto one line never cross.  The bound is
    checked only where the plain signs report a crossing: a turn that
    clears it has the plain sign.
    """
    turns = [(a0, a1, b0), (a0, a1, b1), (b0, b1, a0), (b0, b1, a1)]
    det = [np.subtract(*_turn(*t)) for t in turns]
    hit = (det[0] * det[1] < 0) & (det[2] * det[3] < 0)
    k = np.nonzero(hit)
    for t in turns:
        left, right = _turn(*(np.broadcast_to(x, hit.shape)[k] for x in t))
        err = _ORIENT_ERR * (np.abs(left) + np.abs(right))
        hit[k] &= np.abs(left - right) > err
    return hit


_CHUNK = 64  # consecutive segments per bounding box in crossing_pairs


def _chunk_boxes(p0, p1, pad):
    """Padded (xlo, xhi, ylo, yhi) of each run of _CHUNK consecutive segments."""
    starts = np.arange(0, len(p0), _CHUNK)
    x0, x1, y0, y1 = p0.real, p1.real, p0.imag, p1.imag
    return (
        np.minimum.reduceat(np.minimum(x0, x1), starts) - pad,
        np.maximum.reduceat(np.maximum(x0, x1), starts) + pad,
        np.minimum.reduceat(np.minimum(y0, y1), starts) - pad,
        np.maximum.reduceat(np.maximum(y0, y1), starts) + pad,
    )


def crossing_pairs(a0, a1, b0, b1):
    """Index arrays (i, j) of the segments a0[i]a1[i] and b0[j]b1[j] that
    properly cross, sorted row-major.

    Both families are cut into runs of ``_CHUNK`` consecutive segments;
    the exact test runs only on pairs of runs whose bounding boxes, padded
    by 1e-9 of the coordinate scale, overlap.
    """
    scale = max(np.max(np.abs(p)) for p in (a0, a1, b0, b1))
    ax0, ax1, ay0, ay1 = _chunk_boxes(a0, a1, 1e-9 * scale)
    bx0, bx1, by0, by1 = _chunk_boxes(b0, b1, 1e-9 * scale)
    meet = (
        (ax0[:, None] <= bx1)
        & (bx0 <= ax1[:, None])
        & (ay0[:, None] <= by1)
        & (by0 <= ay1[:, None])
    )
    found_i = [np.empty(0, dtype=np.intp)]
    found_j = [np.empty(0, dtype=np.intp)]
    for ci in np.flatnonzero(meet.any(axis=1)):
        i = np.arange(ci * _CHUNK, min((ci + 1) * _CHUNK, len(a0)))
        j = (np.flatnonzero(meet[ci])[:, None] * _CHUNK + np.arange(_CHUNK)).ravel()
        j = j[j < len(b0)]
        hit_i, hit_j = np.nonzero(
            _segments_properly_cross(a0[i, None], a1[i, None], b0[j], b1[j])
        )
        found_i.append(i[hit_i])
        found_j.append(j[hit_j])
    return np.concatenate(found_i), np.concatenate(found_j)


def polyline_self_intersects(pts):
    """True if the closed polyline through ``pts`` has a proper self-crossing."""
    m = len(pts)
    a1 = np.roll(pts, -1)
    i, j = crossing_pairs(pts, a1, pts, a1)
    # adjacent segments (and self) share endpoints; ignore them
    diff = (i - j) % m
    return bool(np.any((diff != 0) & (diff != 1) & (diff != m - 1)))


class _Chart:
    """Point and parameter derivatives, all read from ``deriv(t, order)``."""

    def point(self, t):
        return self.deriv(t, 0)

    def velocity(self, t):
        return self.deriv(t, 1)

    def acceleration(self, t):
        return self.deriv(t, 2)

    def jerk(self, t):
        return self.deriv(t, 3)


class TrigCurve(_Chart):
    """Closed curve through complex samples; periodic trig interpolation.

    Samples must be counterclockwise, distinct, and at least 8 in number.
    The interpolant passes through every sample exactly.
    """

    period = 1.0
    corner_params = ()

    def __init__(self, samples, validate=True):
        z = np.array(samples, dtype=np.complex128).ravel()
        n = z.size
        if n < 8:
            raise GeometryError("need at least 8 sample points, got %d" % n)
        scale = np.max(np.abs(z - z.mean())) + 1e-300
        if validate:
            dmin = self._min_pairwise_gap(z)
            if dmin <= 1e-12 * scale:
                raise GeometryError("sample points are not distinct")
        self.samples = z
        self.samples.flags.writeable = False
        self._n = n
        self._coef = np.fft.fft(z) / n
        self._coef.flags.writeable = False
        self._k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies as floats
        self._scale = float(scale)
        # exact signed area of the interpolant from its Fourier modes
        self._area = float(np.pi * np.sum(self._k * np.abs(self._coef) ** 2))
        self._poly_cache = {}
        self._length = None
        if validate:
            if self._area <= 0.0:
                raise GeometryError(
                    "samples must be ordered counterclockwise (signed area %.3g)"
                    % self._area
                )
            if polyline_self_intersects(self.polyline(max(256, 4 * n))[1]):
                raise GeometryError("curve is self-intersecting")

    @staticmethod
    def _min_pairwise_gap(z):
        pts = np.column_stack([z.real, z.imag])
        dist, _ = cKDTree(pts).query(pts, k=2)
        return float(dist[:, 1].min())

    # -- series evaluation ------------------------------------------------

    def deriv(self, t, order):
        t, scalar = _as_param_array(t)
        coef = self._coef * (2j * np.pi * self._k) ** order
        out = np.empty(t.shape, dtype=np.complex128)
        flat_t = t.ravel()
        flat_o = out.ravel()
        step = max(1, 2_000_000 // max(1, self._n))
        for i in range(0, flat_t.size, step):
            block = flat_t[i : i + step]
            phase = np.exp(2j * np.pi * np.outer(block, self._k))
            flat_o[i : i + step] = phase @ coef
        return complex(out[0]) if scalar else out

    def uniform_eval(self, n, order=0):
        """Derivative of given order at the n uniform nodes j/n (FFT resampling)."""
        if n < self._n:
            return self.deriv(np.arange(n) / n, order)
        coef = self._coef * (2j * np.pi * self._k) ** order
        spec = np.zeros(n, dtype=np.complex128)
        idx = self._k.astype(int) % n
        np.add.at(spec, idx, coef)
        return np.fft.ifft(spec) * n

    # -- global quantities -------------------------------------------------

    @property
    def signed_area(self):
        return self._area

    @property
    def length(self):
        if self._length is None:
            m = max(1024, 8 * self._n)
            self._length = float(np.mean(np.abs(self.uniform_eval(m, 1))))
        return self._length

    def curvature_samples(self):
        """Signed curvature at a dense set of parameters (for reach checks)."""
        m = max(512, 8 * self._n)
        v = self.uniform_eval(m, 1)
        a = self.uniform_eval(m, 2)
        return np.imag(np.conj(v) * a) / np.abs(v) ** 3

    def polyline(self, m):
        """(params, points) of an m-point uniform polyline; cached per m."""
        if m not in self._poly_cache:
            params = np.arange(m) / m
            self._poly_cache[m] = (params, self.uniform_eval(m, 0))
        return self._poly_cache[m]


def _normalized(v):
    m = abs(v)
    if m == 0.0:
        raise GeometryError("zero velocity on curve")
    return v / m


class _ArcBase(_Chart):
    """Open smooth arc over u in [0, 1]; endpoints are junction candidates."""

    _length = None

    @property
    def length(self):
        if self._length is None:
            self._length = float(np.sum(np.abs(self.velocity(_GL_U)) * _GL_WU))
        return self._length

    def signed_area_integral(self):
        """Contribution of this arc to (1/2) Im closed-integral conj(z) dz."""
        p = self.point(_GL_U)
        v = self.velocity(_GL_U)
        return float(0.5 * np.sum(np.imag(np.conj(p) * v) * _GL_WU))


class SubArc(_ArcBase):
    """Chart ``base`` re-parameterized affinely from [t0, t1] onto [0, 1].

    t1 < t0 traverses the base backwards.  Over a closed curve (one with
    a ``period``) |t1 - t0| may pass the wrap point, and parameters are
    reduced mod 1 at evaluation; over an open arc they are not.
    """

    def __init__(self, base, t0, t1):
        if t0 == t1:
            raise GeometryError("degenerate sub-arc")
        self.base = base
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._wrap = hasattr(base, "period")

    def deriv(self, u, order):
        t = self.t0 + np.asarray(u, float) * (self.t1 - self.t0)
        out = self.base.deriv(t % 1.0 if self._wrap else t, order)
        return (self.t1 - self.t0) ** order * out if order else out

    def reversed(self):
        return SubArc(self.base, self.t1, self.t0)


class CircleArc(_ArcBase):
    """Circular arc; ang1 < ang0 runs clockwise."""

    def __init__(self, center, radius, ang0, ang1):
        if radius <= 0 or ang0 == ang1:
            raise GeometryError("degenerate circular arc")
        self.center = complex(center)
        self.radius = float(radius)
        self.ang0 = float(ang0)
        self.ang1 = float(ang1)

    def deriv(self, u, order):
        d = self.ang1 - self.ang0
        phase = np.exp(1j * (self.ang0 + np.asarray(u, float) * d))
        if order == 0:
            return self.center + self.radius * phase
        return (1j * d, -(d**2), -1j * d**3)[order - 1] * self.radius * phase

    def reversed(self):
        return CircleArc(self.center, self.radius, self.ang1, self.ang0)


class OffsetArc(_ArcBase):
    """Parallel arc at signed distance along -i * unit tangent of the base.

    Positive ``dist`` is the outward side of a counterclockwise base.  The
    derivative formulas consume base derivatives up to third order, so
    offsetting an OffsetArc, or a SubArc trimmed from one, is not
    supported (and never needed: thickenings are always taken from the
    original domain).
    """

    def __init__(self, base, dist):
        inner = base
        while isinstance(inner, SubArc):
            inner = inner.base
        if isinstance(inner, OffsetArc):
            raise GeometryError("offset of an offset arc is not supported")
        self.base = base
        self.dist = float(dist)

    def deriv(self, u, order):
        """Base derivative plus dist times that of the normal -i v/|v|."""
        if order > 2:
            raise GeometryError("third derivative of an offset arc is not available")
        v = self.base.velocity(u)
        s = np.abs(v)
        dn = -1j * v / s
        if order > 0:
            a = self.base.acceleration(u)
            sp = np.real(np.conj(v) * a) / s
            dn = -1j * (a / s - v * sp / s**2)
        if order > 1:
            j = self.base.jerk(u)
            spp = (np.abs(a) ** 2 + np.real(np.conj(v) * j) - sp**2) / s
            dn = -1j * (
                j / s - 2.0 * a * sp / s**2 - v * spp / s**2 + 2.0 * v * sp**2 / s**3
            )
        return self.base.deriv(u, order) + self.dist * dn

    def reversed(self):
        return OffsetArc(self.base.reversed(), -self.dist)


class PiecewiseCurve(_Chart):
    """Closed chain of smooth arcs; corners are junctions with a tangent jump.

    The global parameter allocates [0, 1) to the arcs proportionally to
    arclength, so t is close to (but not exactly) an arclength fraction.
    """

    period = 1.0
    _CORNER_ANGLE = 1e-6  # radians; junctions turning less are smooth joins

    def __init__(self, segments, validate=True):
        segments = list(segments)
        if len(segments) < 1:
            raise GeometryError("piecewise curve needs at least one segment")
        self.segments = tuple(segments)
        lens = np.array([seg.length for seg in segments])
        if np.any(lens <= 0):
            raise GeometryError("zero-length segment")
        self._total_length = float(lens.sum())
        self.breaks = np.concatenate([[0.0], np.cumsum(lens) / lens.sum()])
        self.breaks[-1] = 1.0
        self.breaks.flags.writeable = False

        ends = np.array([seg.point(1.0) for seg in segments])
        starts = np.array([seg.point(0.0) for seg in segments])
        scale = max(np.max(np.abs(ends)), 1.0)
        gaps = np.abs(ends - np.roll(starts, -1))
        if validate and np.any(gaps > 1e-7 * scale):
            raise GeometryError(
                "segments do not chain into a closed loop (max gap %.3g)"
                % gaps.max()
            )
        corners = []
        for i in range(len(segments)):
            t_out = _normalized(segments[i - 1].velocity(1.0))
            t_in = _normalized(segments[i].velocity(0.0))
            if abs(np.angle(t_in / t_out)) > self._CORNER_ANGLE:
                corners.append(self.breaks[i])
        self.corner_params = tuple(sorted(corners))

        self._area = float(sum(seg.signed_area_integral() for seg in segments))
        self.samples = np.concatenate(
            [np.asarray(seg.point(np.arange(16) / 16.0)) for seg in segments]
        )
        self.samples.flags.writeable = False
        self._poly_cache = {}
        if validate and polyline_self_intersects(self.polyline(1024)[1]):
            raise GeometryError("piecewise curve is self-intersecting")

    # -- chart -------------------------------------------------------------

    def _locate(self, t):
        t = np.asarray(t, float) % 1.0
        idx = np.clip(
            np.searchsorted(self.breaks, t, side="right") - 1,
            0,
            len(self.segments) - 1,
        )
        width = self.breaks[idx + 1] - self.breaks[idx]
        u = (t - self.breaks[idx]) / width
        return idx, u, width

    def deriv(self, t, order):
        t, scalar = _as_param_array(t)
        idx, u, width = self._locate(t)
        out = np.empty(t.shape, dtype=np.complex128)
        for i in np.unique(idx):
            sel = idx == i
            d = self.segments[i].deriv(u[sel], order)
            out[sel] = np.asarray(d) / width[sel] ** order
        return complex(out[0]) if scalar else out

    @property
    def signed_area(self):
        return self._area

    @property
    def length(self):
        return self._total_length

    def curvature_samples(self):
        kappas = []
        for seg in self.segments:
            u = np.linspace(0.0, 1.0, 128)
            v = np.asarray(seg.velocity(u))
            a = np.asarray(seg.acceleration(u))
            kappas.append(np.imag(np.conj(v) * a) / np.abs(v) ** 3)
        return np.concatenate(kappas)

    def polyline(self, m):
        """(params, points) polyline with nodes distributed by arclength."""
        if m not in self._poly_cache:
            params = []
            for i, seg in enumerate(self.segments):
                mi = max(8, int(round(m * (self.breaks[i + 1] - self.breaks[i]))))
                lo, hi = self.breaks[i], self.breaks[i + 1]
                params.append(lo + (hi - lo) * np.arange(mi) / mi)
            params = np.concatenate(params)
            self._poly_cache[m] = (params, self.deriv(params, 0))
        return self._poly_cache[m]

    def reversed(self):
        segs = [seg.reversed() for seg in reversed(self.segments)]
        return PiecewiseCurve(segs, validate=False)


_MIN_SAMPLES = 64


def curve_from_samples(points):
    """Build a smooth closed curve through the given complex points.

    The points must be distinct, counterclockwise, and at least 8.  If fewer
    than ``_MIN_SAMPLES`` (64) are given, the stored sample set is refined by
    exact trigonometric resampling (the curve itself is unchanged).
    """
    curve = TrigCurve(points)
    if curve.samples.size < _MIN_SAMPLES:
        curve = TrigCurve(curve.uniform_eval(_MIN_SAMPLES), validate=False)
    return curve


def curve_eval(curve, t):
    """Point, unit tangent, outward unit normal and signed curvature at t.

    Raises ``GeometryError`` at corner parameters of piecewise curves,
    where the tangent is not defined.
    """
    t = float(t) % 1.0
    for tc in curve.corner_params:
        d = abs(t - tc)
        if min(d, 1.0 - d) < 1e-12:
            raise GeometryError("tangent undefined at corner parameter %.12g" % t)
    z = curve.point(t)
    v = curve.velocity(t)
    a = curve.acceleration(t)
    speed = abs(v)
    if speed == 0.0:
        raise GeometryError("zero velocity at t=%.12g" % t)
    tangent = v / speed
    normal = -1j * tangent
    curvature = float(np.imag(np.conj(v) * a) / speed**3)
    return CurveEval(z, tangent, normal, curvature)
