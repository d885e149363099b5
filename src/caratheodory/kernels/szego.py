"""Szego kernel boundary solver and friends.

The boundary values of S(., a) solve a second-kind integral equation
whose kernel A(z, w) = conj(H(w, z)) - H(z, w), built from the Cauchy
kernel H(z, w) = T(w) / (2 pi i (w - z)), is smooth and skew-hermitian
with a vanishing diagonal.  Discretizing with arclength weights w_j and
symmetrizing by sqrt(w_j) gives a dense system (I + B) nu = rhs whose
matrix B is skew-hermitian exactly, in floating point, by construction.
The sign of A matters only off circles (A = 0 on every circular arc,
and I + A is normal, so even the metric diagonal is blind to it); it is
pinned here by the reproducing property of the computed boundary values
on non-circular curves.

I + B is normal with its spectrum on Re z = 1 (Kerzman and Trummer
iterate this very equation), and H = iB is hermitian, so (I + B)(I - B)
= I + H^2 is hermitian with its spectrum in [1, 1 + |H|^2], and
conjugate gradients (Hestenes and Stiefel) solve it.  A call with few
base points solves each column so; one with many takes one LAPACK
solve of I + B for all of them (see SzegoSolver).  A call solves its
block of base points together, into arrays: S(a, a) for each a, the
rows nu = sqrt(w) S(., a), and on request the curvature of the metric
at each a.  Only numpy runs here.
Assembling B, a mesh's other cost, runs on the calling thread, with
one division per node pair (see kerzman_stein_matrix); the package
starts no thread of its own.

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * arclength measure ds, c_D(a) = 2 pi S(a, a);
  * rhs_j = sqrt(w_j) conj(T_j / (2 pi i (z_j - a))).
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import GeometryError, SolveError

_TWO_PI_I = 2j * np.pi

# node spacings of clearance every base and evaluation point keeps from
# each node, counted in that node's own spacing; closer in, the
# near-singular Cauchy data poisons the quadrature
CLEARANCE = 3.0

# a uniform mesh of smooth curves resolves a value 2 pi |nu|^2 to tol
# once TAIL_FACTOR tail^2 <= tol, tail the share of the rows sqrt(w) nu
# in their DFT coefficients with |k| >= _TAIL_BAND m on a curve of m
# nodes (see SzegoSolver.resolved).  The value is quadratic in nu, so its
# error is second order in nu's: against 2048-node solves, on uniform
# meshes of 128-1024 nodes of every smooth fixture (grids 0.05 from the
# boundary on seven domains, curves CLEARANCE spacings apart), the
# relative error stayed under 0.067 tail^2 wherever it rose above
# rounding.  A value so settled must stay as near the fine solves as the
# finer mesh of a passing doubling pair does, within 1e-12, so the
# factor is that worst excess scaled from tol to 1e-12, 670, rounded
# up.  Meshes adapted to a foot showed up to 12-20 tail^2, and a group
# settled on one by a factor of 100 landed 1.7e-12 off, so they keep the
# pair
TAIL_FACTOR = 1000.0
_TAIL_BAND = 0.4

# matrix-vector products one LAPACK solve of I + B costs, its check for
# non-finite entries included: its time over a product's was 146-178 at
# 256-2048 nodes (2-core x86 box, numpy's OpenBLAS on both cores).  A
# conjugate-gradient column took 10-22 products on the benchmark's
# meshes, so a call of more than 6-15 points goes to LAPACK at once
LU_MATVECS = 150
_RTOL = 1e-14
# row and column tiles of the assembly: its elementwise passes keep two
# tile buffers in cache at 128 (256 KiB each; 2 MiB of L2 per core on a
# 2-core x86 box), where at 256 they spill and 256-662 nodes assembled
# 28-40% slower
_ASSEMBLY_TILE = 128


def _clears(mesh, zs, ds, curve=None):
    """Mask of the points zs, at distances ds from the boundary, that are
    farther than CLEARANCE local spacings (mesh.spacing) from every node,
    or from every node off curve number curve when it is given, 1024
    points at a time; nan fails.

    No node is nearer than d, so d > CLEARANCE * h_max always passes.
    """
    nodes, spacing = mesh.nodes, mesh.spacing
    if curve is not None:
        off = np.ones(mesh.size, dtype=bool)
        off[slice(*mesh.curve_slices[curve])] = False
        nodes, spacing = nodes[off], spacing[off]
    ds = np.asarray(ds, dtype=float)
    clear = np.ones(len(zs), dtype=bool)
    for i in range(0, len(zs), 1024):
        rows = np.array(zs[i:i + 1024], dtype=complex)[:, None]
        gaps = np.maximum(np.abs(nodes - rows), ds[i:i + 1024, None])
        clear[i:i + 1024] = np.all(gaps > CLEARANCE * spacing, axis=1)
    return clear


def require_clearance(mesh, z, d):
    """Raise GeometryError unless _clears passes z, at distance d from
    the boundary; the message names the node with the least margin."""
    if not _clears(mesh, [z], [d])[0]:
        gap = np.maximum(np.abs(mesh.nodes - z), d)
        j = int(np.argmin(gap - CLEARANCE * mesh.spacing))
        raise GeometryError(
            "point %s is too close to the boundary: distance %.3g from node "
            "%d, need > %g node spacings (%.3g) of the %d-node mesh"
            % (complex(z), gap[j], j, CLEARANCE, CLEARANCE * mesh.spacing[j],
               mesh.size))


def kerzman_stein_matrix(mesh):
    """The symmetrized discrete kernel B = C^H - C, zero diagonal.

    C_jk = sqrt(w_j w_k) T_k / (2 pi i (z_k - z_j)) off the diagonal.
    The continuous kernel extends smoothly by 0 to the diagonal, so the
    zero diagonal is the consistent quadrature choice.

    Each node pair j < k is computed once, with one division: q_jk =
    sqrt(w_j w_k) / (z_k - z_j), a = (i / 2 pi) T and b = -a give C_jk =
    b_k q_jk and C_kj = a_j q_jk, so B_jk = conj(a_j q_jk) - b_k q_jk.
    B_kj = -conj(B_jk) is written from the same tile, so B^H = -B holds
    to the last bit by construction.  _ASSEMBLY_TILE x _ASSEMBLY_TILE
    tiles of the upper triangle are computed in two buffers and written
    to both halves of B.

    It runs on the calling thread.  Inside the benchmark's product-rule
    suite (6 matrices of 256-662 nodes, 2-core x86 box, three traced
    runs each), the earlier formula's assembly took 26.3-27.9 ms a
    repetition on two threads and 23.9-27.1 ms on one: after each matrix
    product OpenBLAS's idle thread keeps spinning on the second core.
    In isolation, this one thread is faster than that formula on two
    threads up to 662 nodes and on par with it, within a noisy 20%, at
    1024-4096 nodes.
    """
    z = mesh.nodes
    sw = np.sqrt(mesh.weights)
    a = (0.5j / np.pi) * mesh.tangents
    b = -a
    n = z.size
    out = np.empty((n, n), dtype=complex)
    q_buf = np.empty((_ASSEMBLY_TILE, _ASSEMBLY_TILE), dtype=complex)
    p_buf = np.empty_like(q_buf)
    for r0 in range(0, n, _ASSEMBLY_TILE):
        rows = slice(r0, min(r0 + _ASSEMBLY_TILE, n))
        for c0 in range(r0, n, _ASSEMBLY_TILE):
            cols = slice(c0, min(c0 + _ASSEMBLY_TILE, n))
            q = q_buf[:rows.stop - r0, :cols.stop - c0]
            p = p_buf[:rows.stop - r0, :cols.stop - c0]
            np.subtract(z[None, cols], z[rows, None], out=q)
            if c0 == r0:
                np.fill_diagonal(q, 1.0)  # dummy; diagonal is zeroed below
            np.divide(np.multiply.outer(sw[rows], sw[cols]), q, out=q)
            np.multiply(a[rows, None], q, out=p)
            np.conjugate(p, out=p)
            np.multiply(b[None, cols], q, out=q)
            np.subtract(p, q, out=p)  # B[rows, cols]
            np.conjugate(p, out=q)
            np.negative(q, out=q)  # B[cols, rows], transposed
            if c0 == r0:
                # the tile's lower triangle too is taken from its upper
                np.copyto(p, q.T, where=np.tri(len(p), k=-1, dtype=bool))
                np.fill_diagonal(p, 0.0)
            else:
                out[cols, rows] = q.T
            out[rows, cols] = p
    return out


class SzegoSolver:
    """Kerzman-Stein system (I + B) nu = rhs on one mesh; solves many
    base points.

    Construction only assembles B, and B is all a solver keeps between
    calls.  A call of k base points prices its columns at one LAPACK
    solve, LU_MATVECS matrix-vector products, shared among its points:
    each column, one contiguous vector with the bits it has in any
    block, runs conjugate gradients on (I - B^2) y = rhs, which is
    (I + H^2) y = rhs with H = iB hermitian, within LU_MATVECS // k
    products, and x = y - B y.  A column is accepted only once its true
    residual is under _RTOL of its right-hand side.  The first that
    misses, and every column after it, take one LAPACK solve of I + B
    (an LU with partial pivoting), so a call of many points goes there
    at once.  The price counts points, never rows, and products, never
    time, so the value rows take one path with or without the
    curvature's rows stacked under them, and reruns are identical.  The
    mesh's own test of its curves' gaps, which resolved reads, is made
    once per solver.

    Memory: a solver holds B, one N x N complex matrix, 16 N^2 bytes
    with N the mesh's node count over all its curves (each hole adds its
    share by arclength, see geometry.mesh), from construction until it
    is collected.  Assembly takes two _ASSEMBLY_TILE x _ASSEMBLY_TILE
    complex tile buffers more, 256 KiB each, on the calling thread; a
    LAPACK solve takes numpy's copy of I + B, set up in B's buffer.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self._b = kerzman_stein_matrix(mesh)
        self._sw = np.sqrt(mesh.weights)

    def _cg(self, rhs, products):
        """(I + B)^-1 rhs by conjugate gradients (see the class
        docstring) within products matrix-vector products, or None when
        it misses _RTOL or meets a non-finite value."""
        b = self._b
        beta0 = float(np.linalg.norm(rhs))
        y = np.zeros_like(rhs)
        r = p = rhs
        rr = beta0**2
        # two products a step, two more for x and its true residual
        for _ in range((products - 2) // 2):
            q = p - b @ (b @ p)  # (I - B^2) p
            alpha = rr / np.vdot(p, q).real
            y = y + alpha * p
            r = r - alpha * q
            rr, rr_old = np.vdot(r, r).real, rr
            if not rr > (_RTOL * beta0) ** 2:  # converged, or not finite
                break
            p = r + (rr / rr_old) * p
        else:
            return None
        x = y - b @ y
        res = rhs - x - b @ x
        return x if np.linalg.norm(res) <= _RTOL * beta0 else None

    def _dense(self, rhs):
        """(I + B)^-1 of each row of rhs, as rows, by one LAPACK solve;
        B's zero diagonal holds I's for it."""
        b = self._b
        if not np.isfinite(b).all():
            raise SolveError("boundary system has non-finite entries")
        np.fill_diagonal(b, 1.0)
        try:
            return np.linalg.solve(b, rhs.T).T
        finally:
            np.fill_diagonal(b, 0.0)

    def _rhs(self, pts, power):
        """Rows sqrt(w) conj(T / (2 pi i (z - a)^power)) for each a of pts."""
        m = self.mesh
        den = _TWO_PI_I * (m.nodes - pts[:, None]) ** power
        return self._sw * np.conj(m.tangents / den)

    def solve(self, a, kappa=False):
        """(s, nus) at the 1-D block of base points a, solved together:
        row i of nus is sqrt(w) S(., a_i) at the nodes, and s[i] =
        S(a_i, a_i) = |nus[i]|^2 by the reproducing identity.

        With kappa, (s, nus, kappas): kappas[i] is the Gaussian
        curvature -Delta log s / (2 pi s)^2 of the metric c = 2 pi s at
        a_i.  mu, the a-bar derivative of nu, solves the same system for
        the a-bar derivative of the rhs, whose rows are stacked under
        the values' in this call: Delta log s = 4 (s |mu|^2 - |<nu,
        mu>|^2) / s^2."""
        a = np.asarray(a, dtype=complex)
        rhs = self._rhs(a, 1)
        if kappa:
            rhs = np.vstack([rhs, self._rhs(a, 2)])
        out = np.empty_like(rhs)
        for i, row in enumerate(rhs):
            x = self._cg(row, LU_MATVECS // len(a))
            if x is None:
                out[i:] = self._dense(rhs[i:])
                break
            out[i] = x
        nus = out[:len(a)]
        s = np.sum(np.abs(nus) ** 2, axis=1)
        if not np.all((0.0 < s) & (s < np.inf)):
            raise SolveError("solver returned a nonpositive diagonal value")
        if not kappa:
            return s, nus
        mus = out[len(a):]
        mm = np.sum(np.abs(mus) ** 2, axis=1)
        nm = np.einsum("ij,ij->i", nus.conj(), mus)
        lap = 4.0 * (s * mm - np.abs(nm) ** 2) / s**2
        return s, nus, -lap / (2.0 * np.pi * s) ** 2

    @functools.cached_property
    def _apart(self):
        """Whether every curve keeps CLEARANCE node spacings of the other
        curves' nodes (_clears of its nodes at distance 0); depends only
        on the mesh."""
        mesh = self.mesh
        return all(_clears(mesh, mesh.nodes[lo:hi], np.zeros(hi - lo), k).all()
                   for k, (lo, hi) in enumerate(mesh.curve_slices))

    def resolved(self, nus, tol):
        """Mask of the rows nus of this solver's solve whose values 2 pi
        |nu|^2 the mesh alone resolves to the relative tol, for a mesh of
        smooth curves, each by the uniform trapezoid rule.

        There a row is periodic and analytic in the mesh parameter on each
        curve, so its DFT coefficients decay geometrically (Trefethen and
        Weideman, SIAM Rev. 2014), and the share past the band is a chopping
        test of resolution (Aurentz and Trefethen, ACM TOMS 2017): a row's
        tail is the norm of its coefficients with |k| >= _TAIL_BAND m on each
        curve of m nodes, over the norm of the whole row, at the worst curve,
        and the rule is TAIL_FACTOR tail^2 <= tol.  Curves that nearly touch
        break it (the tail read 30x under the error with a 0.02 gap), so no
        row passes unless the curves are _apart.
        """
        if not self._apart:
            return np.zeros(len(nus), dtype=bool)
        tails = np.zeros(len(nus))
        for lo, hi in self.mesh.curve_slices:
            m = hi - lo
            band = np.abs(np.fft.fftfreq(m, 1.0 / m)) >= _TAIL_BAND * m
            coef = np.fft.fft(nus[:, lo:hi], axis=1, norm="ortho")[:, band]
            np.maximum(tails, np.linalg.norm(coef, axis=1), out=tails)
        tails /= np.linalg.norm(nus, axis=1)
        return TAIL_FACTOR * tails**2 <= tol
