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
iterate this very equation), and H = iB is hermitian, so a short
recurrence solves it: MINRES, Lanczos on H with a Givens QR (Paige and
Saunders).  A mesh that serves a few base points is solved by MINRES;
one that serves many is LU-factored once, by blocks, when its MINRES
products have cost, or are about to cost, as much as the factorization.
A block of base points is solved together, its columns past MINRES by
one pair of block triangular solves, into arrays: S(a, a) for each a
and the rows nu = sqrt(w) S(., a), which the curvature reads as they
are (see SzegoSolver).  Only numpy runs here.
Assembling B, a mesh's other cost, runs on the calling thread, with
one division per node pair (see kerzman_stein_matrix); the package
starts no thread of its own.

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * arclength measure ds, c_D(a) = 2 pi S(a, a);
  * rhs_j = sqrt(w_j) conj(T_j / (2 pi i (z_j - a))).
"""

from __future__ import annotations

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
# nodes (see _resolved).  The value is quadratic in nu, so its error is
# second order in nu's: against 2048-node solves, on uniform meshes of
# 128-1024 nodes of every smooth fixture (grids 0.05 from the boundary
# on seven domains, curves CLEARANCE spacings apart), the relative
# error stayed under 0.067 tail^2 wherever it rose above rounding.  A
# value so settled must stay as near the fine solves as the finer mesh
# of a passing doubling pair does, within 1e-12, so the factor is that
# worst excess scaled from tol to 1e-12, 670, rounded up.  Meshes
# adapted to a foot showed up to 12-20 tail^2, and a group settled on
# one by a factor of 100 landed 1.7e-12 off, so they keep the pair
TAIL_FACTOR = 1000.0
_TAIL_BAND = 0.4

# matrix-vector products one factorization costs: its time over a
# product's was 90-350 at 256-2048 nodes, or 75-155 MINRES steps with
# their vector work (2-core x86 box, numpy's OpenBLAS on both cores);
# inverting the whole matrix would cost 290-620 products
LU_MATVECS = 150
# MINRES takes at most this many products to reach _RTOL; a solve that
# misses it falls through to the factorization
_RESTART = 60
_RTOL = 1e-14
# row and column tiles of the factorization: its blocks are BLAS
# products and inverses, whose cost per entry falls with the block
_TILE = 256
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


def _resolved(mesh, nus, tol):
    """Mask of the rows nus of a solve on mesh (see SzegoSolver.solve)
    whose values 2 pi |nu|^2 the mesh alone resolves to the relative tol,
    for a mesh of smooth curves, each by the uniform trapezoid rule.

    There a row is periodic and analytic in the mesh parameter on each
    curve, so its DFT coefficients decay geometrically (Trefethen and
    Weideman, SIAM Rev. 2014), and the share past the band is a chopping
    test of resolution (Aurentz and Trefethen, ACM TOMS 2017): a row's
    tail is the norm of its coefficients with |k| >= _TAIL_BAND m on each
    curve of m nodes, over the norm of the whole row, at the worst curve,
    and the rule is TAIL_FACTOR tail^2 <= tol.  Curves that nearly touch
    break it (the tail read 30x under the error with a 0.02 gap), so no
    row passes unless _clears passes every curve's nodes, at distance 0,
    against the other curves' nodes.
    """
    apart = all(_clears(mesh, mesh.nodes[lo:hi], np.zeros(hi - lo), k).all()
                for k, (lo, hi) in enumerate(mesh.curve_slices))
    if not apart:
        return np.zeros(len(nus), dtype=bool)
    tails = np.zeros(len(nus))
    for lo, hi in mesh.curve_slices:
        m = hi - lo
        band = np.abs(np.fft.fftfreq(m, 1.0 / m)) >= _TAIL_BAND * m
        coef = np.fft.fft(nus[:, lo:hi], axis=1, norm="ortho")[:, band]
        np.maximum(tails, np.linalg.norm(coef, axis=1), out=tails)
    tails /= np.linalg.norm(nus, axis=1)
    return TAIL_FACTOR * tails**2 <= tol


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

    Construction only assembles B.  Each right-hand side runs MINRES:
    H = iB is hermitian and I + B = -i(H + iI), so the Lanczos process on
    H, a three-term recurrence, builds the Krylov basis, and Givens
    rotations of [I; 0] - iT, T its tridiagonal, minimise the residual
    (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975).  Its matrix-
    vector products are added to matvecs.  A column is accepted only once
    its true residual is under _RTOL of the right-hand side; one that
    misses, within _RESTART products, takes the factored path.  Once the
    products reach LU_MATVECS, the price of one factorization, I + B is
    LU-factored in B's buffer, exactly once, and every later right-hand
    side is a pair of block triangular solves.

    The factorization is by _TILE x _TILE blocks without pivoting: the
    hermitian part of I + B is I, and that of every Schur complement is
    at least I, so each diagonal block is invertible and its inverse,
    kept for the solves in the block's place, has norm at most 1.  The
    blocks are numpy products and inverses of single tiles, two to four
    times cheaper than inverting the whole matrix at 512-2048 nodes.
    Memory: a solver holds one N x N complex matrix, 16 N^2 bytes with N
    the mesh's node count over all its curves (each hole adds its share
    by arclength, see geometry.mesh), B and then its factors in the same
    buffer, from construction until it is collected.  Assembly takes two
    _ASSEMBLY_TILE x _ASSEMBLY_TILE complex tile buffers more, 256 KiB
    each, on the calling thread.  Factoring takes at
    most one N x _TILE block more, 8 MiB at 2048 nodes, as the Schur
    update runs one column block at a time; updating the whole trailing
    block at once would take 50 MB there.

    solve and kappa take a 1-D block of base points and return arrays,
    one entry or row per point.  The block's right-hand sides run MINRES
    one by one, as contiguous vectors with the bits a block of one gives
    them, until the budget is spent or the ones left, priced at the last
    one's products, would spend it anyway; the rest take the triangular
    solves together.  The rule counts products, never time, so reruns
    are identical.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self._b = kerzman_stein_matrix(mesh)
        self._lu = None
        self.matvecs = 0
        self._sw = np.sqrt(mesh.weights)

    def _matvec(self, x):
        """B x, counted."""
        self.matvecs += 1
        return self._b @ x

    def _factor(self):
        if self._lu is None:
            a = self._b
            n = a.shape[0]
            blocks = range(0, n, _TILE)
            # one column block at a time, so that no n x n temporary is made
            if not all(np.isfinite(a[:, k0:k0 + _TILE]).all()
                       for k0 in blocks):
                raise SolveError("boundary system has non-finite entries")
            self._b = None
            np.fill_diagonal(a, a.diagonal() + 1.0)
            # a becomes L - I + U with unit block-lower L, each diagonal
            # block of U replaced by its inverse, which is all the solves
            # read of it; the Schur update runs one column block at a time
            for k0 in blocks:
                k1 = k0 + _TILE
                a[k0:k1, k0:k1] = np.linalg.inv(a[k0:k1, k0:k1])
                a[k1:, k0:k1] = a[k1:, k0:k1] @ a[k0:k1, k0:k1]
                for j0 in range(k1, n, _TILE):
                    a[k1:, j0:j0 + _TILE] -= (a[k1:, k0:k1]
                                              @ a[k0:k1, j0:j0 + _TILE])
            self._lu = a

    def _lu_solve(self, rhs):
        """(I + B)^-1 of each row of rhs, as rows, from the factors."""
        a = self._lu
        y = rhs.T.copy()
        for k0 in range(_TILE, a.shape[0], _TILE):
            y[k0:k0 + _TILE] -= a[k0:k0 + _TILE, :k0] @ y[:k0]
        for k0 in reversed(range(0, a.shape[0], _TILE)):
            k1 = k0 + _TILE
            y[k0:k1] -= a[k0:k1, k1:] @ y[k1:]
            y[k0:k1] = a[k0:k1, k0:k1] @ y[k0:k1]
        return y.T

    def _minres(self, rhs):
        """(I + B)^-1 rhs by MINRES (see the class docstring), or None when
        it misses _RTOL."""
        beta0 = float(np.linalg.norm(rhs))
        if not 0.0 < beta0 < np.inf:
            return None
        x = np.zeros_like(rhs)
        v_old, v = x, rhs / beta0  # the last two Lanczos vectors
        w_old = w = x  # the last two search directions
        beta = 0.0  # T's entry between v_old and v
        c_old = c = 1.0  # the last two rotations (c, s), as of this column
        s_old = s = 0.0
        g = beta0  # the rotated right-hand side's entry in this row
        for _ in range(_RESTART):
            p = self._matvec(v)
            p *= 1j  # H v
            p -= beta * v_old
            alpha = np.vdot(v, p).real
            p -= alpha * v
            beta_next = float(np.linalg.norm(p))
            if not beta_next < np.inf:  # a non-finite product
                return None
            # this column of [I; 0] - iT is -i beta, 1 - i alpha, -i
            # beta_next; the two earlier rotations act on its top
            top = -1j * beta
            r2, r1 = s_old.conjugate() * top, c_old * top
            diag = complex(1.0, -alpha)
            r1, r0 = (c.conjugate() * r1 + s.conjugate() * diag,
                      c * diag - s * r1)
            r = np.hypot(abs(r0), beta_next)
            c_old, s_old = c, s
            c, s = r0 / r, -1j * beta_next / r
            w_old, w = w, (v - r2 * w_old - r1 * w) / r
            x = x + c.conjugate() * g * w
            g = -s * g
            if abs(g) <= _RTOL * beta0:
                break
            v_old, v, beta = v, p / beta_next, beta_next
        else:
            return None
        res = rhs - x - self._matvec(x)
        return x if np.linalg.norm(res) <= _RTOL * beta0 else None

    def _solve_rows(self, rhs):
        """(I + B)^-1 of each row of rhs, as rows (see the class
        docstring for which rows MINRES serves)."""
        out = np.empty_like(rhs)
        i, k = 0, rhs.shape[0]
        while i < k and self._lu is None and self.matvecs < LU_MATVECS:
            before = self.matvecs
            x = self._minres(rhs[i])
            if x is None:
                break
            out[i] = x
            i += 1
            if self.matvecs + (self.matvecs - before) * (k - i) >= LU_MATVECS:
                break
        if i < k:
            self._factor()
            out[i:] = self._lu_solve(rhs[i:])
        return out

    def _rhs(self, pts, power):
        """Rows sqrt(w) conj(T / (2 pi i (z - a)^power)) for each a of pts."""
        m = self.mesh
        den = _TWO_PI_I * (m.nodes - pts[:, None]) ** power
        return self._sw * np.conj(m.tangents / den)

    def solve(self, a):
        """(s, nus) at the 1-D block of base points a, solved together:
        row i of nus is sqrt(w) S(., a_i) at the nodes, and s[i] =
        S(a_i, a_i) = |nus[i]|^2 by the reproducing identity."""
        nus = self._solve_rows(self._rhs(np.asarray(a, dtype=complex), 1))
        s = np.sum(np.abs(nus) ** 2, axis=1)
        if not np.all((0.0 < s) & (s < np.inf)):
            raise SolveError("solver returned a nonpositive diagonal value")
        return s, nus

    def kappa(self, a, nus):
        """Gaussian curvature -Delta log s / (2 pi s)^2 of the metric
        c = 2 pi s, s = S(a, a) = |nu|^2, at each base point of the 1-D
        block a, whose rows nus this solver's solve returned; the array
        of them, from one block of derivative solves.

        mu, the a-bar derivative of nu, solves the same system for the
        a-bar derivative of the rhs: Delta log s = 4 (s |mu|^2 -
        |<nu, mu>|^2) / s^2.
        """
        mus = self._solve_rows(self._rhs(np.asarray(a, dtype=complex), 2))
        s = np.sum(np.abs(nus) ** 2, axis=1)
        mm = np.sum(np.abs(mus) ** 2, axis=1)
        nm = np.einsum("ij,ij->i", nus.conj(), mus)
        lap = 4.0 * (s * mm - np.abs(nm) ** 2) / s**2
        return -lap / (2.0 * np.pi * s) ** 2
