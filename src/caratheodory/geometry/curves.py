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
parameter derivatives), read by ``point`` through ``jerk``, and ``jet(t,
order)``, the derivatives of orders 0 to ``order`` in one call with
``deriv``'s bits (a trig curve shares its phase factors among them);
closed curves run over t in [0, 1) with a ``period``, arcs over u in
[0, 1].  ``SubArc`` is the one affine re-parameterization (booleans and
offsets both cut with it).  Each parameter's value is computed from that
parameter alone, so it has the same bits alone or in any batch.

Polylines are cached per node count; the one fine size, ``_POLY_M``, is
what containment, distance seeds and boolean tracing read.  A trig curve
resamples by FFT; a piecewise curve's sub-arcs of closed curves read
their nodes off those curves' cached polylines, so a boolean result
evaluates its charts at its arc starts only.  ``polyline_self_intersects``
drops the runs of consecutive segments that advance along one direction,
which cannot cross themselves, and tests the rest exactly.

Closed curves are stored counterclockwise (positive signed area).  Hole
orientation is a bookkeeping concern of ``Domain`` and the mesher, never of
the curve itself.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

import numpy as np

from ..errors import GeometryError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_U = 0.5 * (_GL_X + 1.0)  # Gauss-Legendre nodes on [0, 1]
_GL_WU = 0.5 * _GL_W

_SERIES_TERMS = 2**16  # series terms per block of TrigCurve._series (1 MB)
_POLY_M = 2048  # nodes per curve of the one fine polyline (see above)

CurveEval = namedtuple("CurveEval", ["point", "tangent", "normal", "curvature"])


def _as_param_array(t):
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    return np.atleast_1d(t), scalar


def _cross(p, q):
    """2-D cross product Im(conj(p) q) of complex vectors."""
    return np.imag(np.conj(p) * q)


def _meet(a, b, s, t, cap, scale):
    """Newton's method for a(s) = b(t) from (s, t), each step at most
    ``cap`` in both parameters.  Once a step under 1e-10 starts where
    |a(s) - b(t)| < 1e-13 * scale, returns (s, t, a(s), a'(s), b'(t)): the
    parameters after it, the point there and the velocities before it.
    None when the velocities turn parallel or 80 steps do not get there.
    """
    for _ in range(80):
        za, va = a.jet(s, 1)
        zb, vb = b.jet(t, 1)
        f = za - zb
        det = _cross(va, vb)
        if abs(det) < 1e-14 * abs(va) * abs(vb):
            return None
        ds = -_cross(f, vb) / det
        dt = -_cross(f, va) / det
        step = max(abs(ds), abs(dt))
        if step > cap:
            ds *= cap / step
            dt *= cap / step
        s += ds
        t += dt
        if abs(f) < 1e-13 * scale and step < 1e-10:
            return s, t, a.point(s), va, vb
    return None


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


_CHUNK = 16  # consecutive segments per bounding box in crossing_pairs
_PAIR_BLOCK = 2**12  # segment pairs per exact test in crossing_pairs


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


def _candidate_runs(a0, a1, b0, b1):
    """Index arrays (ci, cj), row-major, of the runs of ``_CHUNK``
    consecutive segments of each family whose bounding boxes, padded by
    1e-9 of the coordinate scale, overlap."""
    scale = max(np.max(np.abs(p)) for p in (a0, a1, b0, b1))
    ax0, ax1, ay0, ay1 = _chunk_boxes(a0, a1, 1e-9 * scale)
    bx0, bx1, by0, by1 = _chunk_boxes(b0, b1, 1e-9 * scale)
    meet = (
        (ax0[:, None] <= bx1)
        & (bx0 <= ax1[:, None])
        & (ay0[:, None] <= by1)
        & (by0 <= ay1[:, None])
    )
    return np.nonzero(meet)


def _run_pair_hits(a0, a1, b0, b1, ci, cj, keep):
    """For each block of the run pairs (ci, cj), the index arrays (i, j)
    of the segment pairs that properly cross, among those where
    keep(i, j) holds; at most ``_PAIR_BLOCK`` pairs per exact test."""
    k = np.arange(_CHUNK)
    step = _PAIR_BLOCK // _CHUNK**2  # run pairs per block
    for s in range(0, ci.size, step):
        i, j = np.broadcast_arrays(
            ci[s:s + step, None, None] * _CHUNK + k[:, None],
            cj[s:s + step, None, None] * _CHUNK + k)
        sel = keep(i, j)
        i, j = i[sel], j[sel]
        hit = _segments_properly_cross(a0[i], a1[i], b0[j], b1[j])
        yield i[hit], j[hit]


def crossing_pairs(a0, a1, b0, b1):
    """Index arrays (i, j) of the segments a0[i]a1[i] and b0[j]b1[j] that
    properly cross, sorted row-major.

    Both families are cut into runs of ``_CHUNK`` consecutive segments;
    the exact test runs only on the segment pairs of runs whose bounding
    boxes, padded by 1e-9 of the coordinate scale, overlap, at most
    ``_PAIR_BLOCK`` pairs at a time.
    """
    ci, cj = _candidate_runs(a0, a1, b0, b1)
    found_i = [np.empty(0, dtype=np.intp)]
    found_j = [np.empty(0, dtype=np.intp)]
    # the last run of either family may be short
    for i, j in _run_pair_hits(a0, a1, b0, b1, ci, cj,
                               lambda i, j: (i < len(a0)) & (j < len(b0))):
        found_i.append(i)
        found_j.append(j)
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    order = np.lexsort((j, i))
    return i[order], j[order]


def polyline_self_intersects(pts):
    """True if the closed polyline through ``pts`` has a proper self-crossing.

    The candidates are the run pairs ci <= cj of ``crossing_pairs`` on the
    polyline against itself.  A pair that is one run, or two cyclically
    consecutive runs, is dropped when each of its segments has a positive
    component along its first segment, by more than 1e-9 of their
    lengths' product (rounding moves it by about 1e-16): the projection
    on that direction then strictly rises along the pair, so two of its
    segments that are not adjacent project onto disjoint intervals and
    cannot meet.  On a smooth curve's polyline that drops nearly every
    candidate.  The rest are tested on their segment pairs i < j that are
    not adjacent.
    """
    m = len(pts)
    a1 = np.roll(pts, -1)
    ci, cj = _candidate_runs(pts, a1, pts, a1)
    upper = ci <= cj
    ci, cj = ci[upper], cj[upper]

    d = a1 - pts
    starts = np.arange(0, m, _CHUNK)
    first = d[starts]
    run = np.arange(m) // _CHUNK

    def rises(e):
        """Per run: every segment has a positive component along e."""
        dot = np.real(np.conj(e) * d)
        return np.logical_and.reduceat(
            dot > 1e-9 * np.abs(e) * np.abs(d), starts)

    own = rises(first[run])  # run c along its own first segment
    # runs c and c + 1 along run c's first segment (index -1 wraps)
    chain = own & np.roll(rises(first[run - 1]), -1)
    gap = cj - ci
    drop = np.where(gap == 0, own[ci],
                    ((gap == 1) & chain[ci])
                    | ((gap == starts.size - 1) & chain[cj]))

    def keep(i, j):
        return (j < m) & (j - i > 1) & ((i > 0) | (j < m - 1))

    return any(i.size for i, _ in _run_pair_hits(
        pts, a1, pts, a1, ci[~drop], cj[~drop], keep))


def _phases(m, hi, lo):
    """e^{2 pi i m t} for the integers m and t = hi + lo, hi on the 2^-20
    grid: m * hi is exact, so its whole turns drop before any rounding."""
    x = np.outer(m, hi)
    x -= np.round(x)
    x += np.outer(m, lo)
    return np.exp(2j * np.pi * x)


def _in_order(terms):
    """Sum over the first axis, one term at a time from the first, so that
    each element's sum never depends on the others."""
    out = terms[0] + terms[1]
    for term in terms[2:]:
        out += term
    return out


class _Chart:
    """Point and parameter derivatives, all read from ``deriv(t, order)``.

    ``jet(t, order)`` lists deriv(t, 0), ..., deriv(t, order), with
    deriv's bits.
    """

    def jet(self, t, order):
        return [self.deriv(t, k) for k in range(order + 1)]

    def point(self, t):
        return self.deriv(t, 0)

    def velocity(self, t):
        return self.deriv(t, 1)

    def acceleration(self, t):
        return self.deriv(t, 2)

    def jerk(self, t):
        return self.deriv(t, 3)


def _has_close_pair(z, tol):
    """Whether two of the points z lie within tol of each other.

    A sweep over z sorted by real part: pass k compares each point with
    the one k places on.  Two points within tol differ by at most tol in
    real part, and so does the first with every point between them, so
    the passes stop at the first k where no pair does.
    """
    z = np.sort_complex(z)
    for k in range(1, z.size):
        gap = z[k:] - z[:-k]
        near = gap.real <= tol
        if not near.any():
            return False
        if (np.abs(gap[near]) <= tol).any():
            return True
    return False


class TrigCurve(_Chart):
    """Closed curve through complex samples; periodic trig interpolation.

    Samples must be counterclockwise, distinct, and at least 8 in number.
    The interpolant passes through every sample exactly.

    At arbitrary parameters the series is summed through a split of each
    mode k = q*a + b, q = ceil(sqrt(n)), with b centred in [-q/2, q/2):
    sum_k c_k e^{2 pi i t k} = sum_a e^{2 pi i t q a} sum_b C[a, b]
    e^{2 pi i t b}, about 2 sqrt(n) exponentials per parameter.  Centring
    b keeps the dominant low modes on low-frequency factors, and each
    phase drops its whole turns before it is rounded.  Both sums
    run in a fixed order over the batch, so a parameter's value never
    depends on the others.  At the uniform nodes j/n, ``uniform_eval``
    resamples by FFT instead.
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
            if not np.all(np.isfinite(z)):
                raise GeometryError("samples must be finite")
            if _has_close_pair(z, 1e-12 * scale):
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
        self._block_cache = {}
        self._length = None
        if validate:
            if self._area <= 0.0:
                raise GeometryError(
                    "samples must be ordered counterclockwise (signed area %.3g)"
                    % self._area
                )
            if polyline_self_intersects(self.polyline(max(256, 4 * n))[1]):
                raise GeometryError("curve is self-intersecting")

    # -- series evaluation ------------------------------------------------

    def _blocks(self, orders):
        """(q, m, C) of the split for the given orders, cached: m lists the
        inner frequencies b, then the outer ones q*a, and C[j, a, o, 0] is
        the coefficient of mode k = q*a + m[j] times (2 pi i k)^orders[o],
        zero where no mode lands."""
        if orders not in self._block_cache:
            q = isqrt(self._n - 1) + 1
            k = self._k.astype(int)
            b = (k + q // 2) % q - q // 2
            a = (k - b) // q
            blocks = np.zeros((q, a.max() - a.min() + 1, len(orders), 1),
                              dtype=np.complex128)
            for o, order in enumerate(orders):
                blocks[b + q // 2, a - a.min(), o, 0] = (
                    self._coef * (2j * np.pi * self._k) ** order)
            m = np.concatenate([np.arange(q) - q // 2,
                                q * np.arange(a.min(), a.max() + 1)])
            self._block_cache[orders] = (q, m.astype(float), blocks)
        return self._block_cache[orders]

    def _series(self, t, orders):
        """The derivatives of the given orders at t (see the class docstring)."""
        t, scalar = _as_param_array(t)
        q, m, blocks = self._blocks(tuple(orders))
        flat = t.ravel()
        outs = np.empty((blocks.shape[2], flat.size), dtype=np.complex128)
        step = max(1, _SERIES_TERMS // blocks.size)
        for i in range(0, flat.size, step):
            s = flat[i : i + step]
            hi = np.round(s * 2.0**20) / 2.0**20
            phases = _phases(m, hi, s - hi)
            inner = _in_order(blocks * phases[:q, None, None])
            outs[:, i : i + step] = _in_order(inner * phases[q:, None])
        return [complex(out[0]) if scalar else out.reshape(t.shape)
                for out in outs]

    def deriv(self, t, order):
        return self._series(t, (order,))[0]

    def jet(self, t, order):
        return self._series(t, range(order + 1))

    def uniform_eval(self, n, order=0):
        """Derivative of given order at the n uniform nodes j/n (FFT
        resampling; modes past n/2 fold onto their aliases exactly)."""
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

    def polyline_nodes(self, m, width):
        """(u, points) of this arc's nodes in the m-node polyline of a curve
        that gives it the share ``width`` of its parameter: the first at
        u = 0, then uniform in u, max(8, round(m width)) in all."""
        k = max(8, int(round(m * width)))
        u = np.arange(k) / k
        return u, self.point(u)


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

    def _base_params(self, u):
        t = self.t0 + np.asarray(u, float) * (self.t1 - self.t0)
        return t % 1.0 if self._wrap else t

    def deriv(self, u, order):
        out = self.base.deriv(self._base_params(u), order)
        return (self.t1 - self.t0) ** order * out if order else out

    def jet(self, u, order):
        outs = self.base.jet(self._base_params(u), order)
        return [(self.t1 - self.t0) ** k * out if k else out
                for k, out in enumerate(outs)]

    def polyline_nodes(self, m, width):
        """Over a closed base: the start point, then the nodes of the
        base's cached ``polyline(m)`` strictly inside the arc, in the arc's
        order; a node within a millionth of a node spacing of either end
        is left to that end's point.  Over an open arc, as any arc."""
        if not self._wrap:
            return super().polyline_nodes(m, width)
        params, pts = self.base.polyline(m)
        span = self.t1 - self.t0
        # each node's distance from t0 along the arc, in base parameter
        s = (np.sign(span) * (params - self.t0)) % 1.0
        gap = 1e-6 / params.size
        inside = np.flatnonzero((s > gap) & (s < abs(span) - gap))
        inside = inside[np.argsort(s[inside], kind="stable")]
        return (np.concatenate([[0.0], s[inside] / abs(span)]),
                np.concatenate([[self.point(0.0)], pts[inside]]))

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
        return self.jet(u, order)[order]

    def jet(self, u, order):
        """Base derivatives plus dist times those of the normal -i v/|v|."""
        if order > 2:
            raise GeometryError("third derivative of an offset arc is not available")
        base = self.base.jet(u, order + 1)
        v = base[1]
        s = np.abs(v)
        dn = [-1j * v / s]
        if order > 0:
            a = base[2]
            sp = np.real(np.conj(v) * a) / s
            dn.append(-1j * (a / s - v * sp / s**2))
        if order > 1:
            j = base[3]
            spp = (np.abs(a) ** 2 + np.real(np.conj(v) * j) - sp**2) / s
            dn.append(-1j * (
                j / s - 2.0 * a * sp / s**2 - v * spp / s**2 + 2.0 * v * sp**2 / s**3
            ))
        return [b + self.dist * n for b, n in zip(base, dn)]

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

        # jets[i, order, end]: segment i's point and velocity at u = 0, 1
        jets = np.array([seg.jet(np.array([0.0, 1.0]), 1) for seg in segments])
        (starts, ends), (v_starts, v_ends) = jets.transpose(1, 2, 0)
        scale = max(np.max(np.abs(ends)), 1.0)
        gaps = np.abs(ends - np.roll(starts, -1))
        if validate and np.any(gaps > 1e-7 * scale):
            raise GeometryError(
                "segments do not chain into a closed loop (max gap %.3g)"
                % gaps.max()
            )
        corners = []
        for i in range(len(segments)):
            t_out = _normalized(v_ends[i - 1])
            t_in = _normalized(v_starts[i])
            if abs(np.angle(t_in / t_out)) > self._CORNER_ANGLE:
                corners.append(self.breaks[i])
        self.corner_params = tuple(sorted(corners))

        self._area = float(sum(seg.signed_area_integral() for seg in segments))
        self._poly_cache = {}
        if validate and polyline_self_intersects(self.polyline(_POLY_M)[1]):
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
        return self.jet(t, order)[order]

    def jet(self, t, order):
        t, scalar = _as_param_array(t)
        idx, u, width = self._locate(t)
        outs = [np.empty(t.shape, dtype=np.complex128) for _ in range(order + 1)]
        for i in np.unique(idx):
            sel = idx == i
            ds = self.segments[i].jet(u[sel], order)
            for k, (out, d) in enumerate(zip(outs, ds)):
                out[sel] = np.asarray(d) / width[sel] ** k
        return [complex(out[0]) if scalar else out for out in outs]

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
        """(params, points) of the curve's m-node polyline; cached per m.

        Each arc gives its own nodes (``polyline_nodes``), their u mapped
        affinely into its share [lo, hi) of the parameter.  A sub-arc of a
        closed curve, as every arc of a boolean result is, reads them off
        that curve's cached ``polyline(m)``: its start point, then the
        curve's nodes inside it, so the chart is evaluated at the start
        alone and the nodes are as fine as the input's.  Circle, offset
        and open-arc segments take nodes uniform in u, about m per unit
        of parameter.  Consecutive nodes of a smooth arc advance along
        its tangent, so the self-crossing check drops nearly all of the
        runs these nodes make (``polyline_self_intersects``).
        """
        if m not in self._poly_cache:
            params, pts = [], []
            for seg, lo, hi in zip(self.segments, self.breaks[:-1],
                                   self.breaks[1:]):
                u, z = seg.polyline_nodes(m, hi - lo)
                params.append(lo + (hi - lo) * u)
                pts.append(z)
            self._poly_cache[m] = (np.concatenate(params), np.concatenate(pts))
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
