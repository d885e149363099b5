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

I + B is normal with its spectrum on Re z = 1, the ideal case for GMRES
(Kerzman and Trummer iterate this very equation; GMRES is Saad and
Schultz's).  A mesh that serves a few base points is solved by GMRES;
one that serves many is LU-factored once, when its GMRES products have
cost as much as the factorization (see SzegoSolver).  Assembling B, a
mesh's other cost, runs its tile pairs on one thread per core the
process may use, with the broadcast formula's bits (see
kerzman_stein_matrix).

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * arclength measure ds, c_D(a) = 2 pi S(a, a);
  * rhs_j = sqrt(w_j) conj(T_j / (2 pi i (z_j - a)));
  * Garabedian boundary values L(z,a) = i conj(S(z,a)) conj(T(z)), which
    makes L(w, a) = 1/(2 pi (w - a)) exact on the unit circle;
  * L has the simple pole 1/(2 pi (z - a)); its regular part is what the
    Cauchy quadrature sees when evaluating inside.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from ..errors import GeometryError, SolveError

_TWO_PI_I = 2j * np.pi

# node spacings (h_max) of clearance every base and evaluation point keeps
# from the boundary; closer in, the near-singular Cauchy data poisons the
# quadrature
CLEARANCE = 3.0

# matrix-vector products one LU factorization costs: its time over a
# matvec's was 137-192 at 2048-4096 nodes on a 2-core x86 box, where the
# choice matters (below 2048 nodes either side costs under 0.2 s)
LU_MATVECS = 150
# GMRES runs one cycle of at most this many iterations to the LU's
# accuracy; a solve that misses it falls through to the factorization
_RESTART = 60
_RTOL = 1e-14
# row and column tiles of the in-place assembly
_TILE = 256


def require_clearance(mesh, z, d):
    """Raise GeometryError unless z, at distance d from the boundary,
    keeps CLEARANCE node spacings of the mesh."""
    if d <= CLEARANCE * mesh.h_max:
        raise GeometryError(
            "point %s is too close to the boundary: distance %.3g, need > %g "
            "node spacings (%.3g) of the %d-node mesh"
            % (complex(z), d, CLEARANCE, CLEARANCE * mesh.h_max, mesh.size))


class KernelSolution:
    """Boundary data of S(., a) for one interior base point.

    diag_value is S(a, a) recovered from the reproducing identity
    S(a,a) = integral |S(w,a)|^2 ds(w), i.e. the squared norm of the
    symmetrized solution vector.
    """

    def __init__(self, base_point, mesh, szego_boundary, diag_value):
        self.base_point = complex(base_point)
        self.mesh = mesh
        self.szego_boundary = szego_boundary
        self.diag_value = float(diag_value)
        szego_boundary.flags.writeable = False

    def __repr__(self):
        return "KernelSolution(a=%s, n=%d, S(a,a)=%.6g)" % (
            self.base_point,
            self.mesh.size,
            self.diag_value,
        )


def _c_tile(z, t, sw, rows, cols, out):
    """C[rows, cols] into out, by the broadcast formula's elementwise
    steps in its order, so every entry is the same bits."""
    np.subtract(z[None, cols], z[rows, None], out=out)
    if rows == cols:
        np.fill_diagonal(out, 1.0)  # dummy; diagonal is zeroed below
    np.divide(t[None, cols], out, out=out)
    np.multiply(sw[rows, None] * sw[None, cols], out, out=out)
    np.divide(out, _TWO_PI_I, out=out)
    if rows == cols:
        np.fill_diagonal(out, 0.0)


def kerzman_stein_matrix(mesh):
    """The symmetrized discrete kernel B = C^H - C, zero diagonal.

    C_jk = sqrt(w_j w_k) T_k / (2 pi i (z_k - z_j)) off the diagonal.
    The continuous kernel extends smoothly by 0 to the diagonal, so the
    zero diagonal is the consistent quadrature choice, and B^H = -B holds
    to the last bit because the conjugate transpose is taken literally.

    Built tile pair by tile pair: the C tiles (i, j) and (j, i), j >= i,
    go into two _TILE x _TILE buffers, and B's tiles (i, j) and (j, i) are
    written from them once.  The elementwise operations are the broadcast
    formula's, in its order, so the entries are the same bits.  The tile
    pairs are shared round robin among threads, one per core this process
    may use; numpy releases the interpreter lock in each step, and no
    BLAS runs here to compete for the cores.
    """
    z = mesh.nodes
    t = mesh.tangents
    sw = np.sqrt(mesh.weights)
    n = z.size
    b = np.empty((n, n), dtype=complex)
    tiles = [slice(i0, min(i0 + _TILE, n)) for i0 in range(0, n, _TILE)]
    pairs = [(r, c) for i, r in enumerate(tiles) for c in tiles[i:]]

    def fill(share):
        c_rc = np.empty((_TILE, _TILE), dtype=complex)
        c_cr = np.empty((_TILE, _TILE), dtype=complex)
        for rows, cols in share:
            nr, nc = rows.stop - rows.start, cols.stop - cols.start
            ij, ji = c_rc[:nr, :nc], c_cr[:nc, :nr]
            _c_tile(z, t, sw, rows, cols, ij)
            # B[rows, cols] = conj(C[cols, rows]).T - C[rows, cols] and
            # B[cols, rows] = conj(C[rows, cols]).T - C[cols, rows]; the
            # conjugations are exact, so done in place they cost no buffer
            if rows == cols:
                np.conjugate(ij, out=ji)
                np.subtract(ji.T, ij, out=b[rows, cols])
                continue
            _c_tile(z, t, sw, cols, rows, ji)
            np.conjugate(ji, out=ji)
            np.subtract(ji.T, ij, out=b[rows, cols])
            np.conjugate(ji, out=ji)
            np.conjugate(ij, out=ij)
            np.subtract(ij.T, ji, out=b[cols, rows])

    workers = min(len(os.sched_getaffinity(0)), len(pairs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for done in [pool.submit(fill, pairs[k::workers])
                     for k in range(workers)]:
            done.result()
    return b


class SzegoSolver:
    """Kerzman-Stein system (I + B) nu = rhs on one mesh; solves many
    base points.

    Construction only assembles.  Each solve runs GMRES on the matrix and
    adds its matrix-vector products to matvecs; once they reach
    LU_MATVECS, the price of one factorization, the matrix is LU-factored
    in its own buffer, exactly once, and every later solve is an
    lu_solve.  A GMRES solve that misses its tolerance takes the factored
    path as well.  The rule counts products, never time, so reruns are
    identical.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        a_sys = kerzman_stein_matrix(mesh)
        np.fill_diagonal(a_sys, a_sys.diagonal() + 1.0)
        self._a = a_sys
        self._lu = None
        self.matvecs = 0
        self._sw = np.sqrt(mesh.weights)

    def _matvec(self, x):
        self.matvecs += 1
        return self._a @ x

    def _solve(self, rhs):
        """(I + B)^-1 rhs: GMRES within the budget, LU past it."""
        if self._lu is None and self.matvecs < LU_MATVECS:
            op = LinearOperator(self._a.shape, matvec=self._matvec,
                                dtype=complex)
            x, info = gmres(op, rhs, rtol=_RTOL, atol=0.0, restart=_RESTART,
                            maxiter=1)
            if info == 0:
                return x
        if self._lu is None:
            # the transpose is an F-ordered view that lu_factor overwrites
            # in place; the C-ordered matrix it would copy first
            try:
                self._lu = lu_factor(self._a.T, overwrite_a=True)
            except ValueError as exc:  # non-finite entries
                raise SolveError(
                    "boundary system factorization failed: %s" % exc)
            self._a = None
        return lu_solve(self._lu, rhs, trans=1)

    def solve(self, a):
        a = complex(a)
        m = self.mesh
        rhs = self._sw * np.conj(m.tangents / (_TWO_PI_I * (m.nodes - a)))
        nu = self._solve(rhs)
        diag = float(np.sum(np.abs(nu) ** 2))
        if not np.isfinite(diag) or diag <= 0.0:
            raise SolveError("solver returned a nonpositive diagonal value")
        return KernelSolution(a, m, nu / self._sw, diag)

    def kappa(self, sol):
        """Gaussian curvature -Delta log s / (2 pi s)^2 of the metric
        c = 2 pi s, s = S(a, a) = |nu|^2, at the base point a of sol, a
        solution this solver returned.

        mu, the a-bar derivative of nu, solves the same system for the
        a-bar derivative of the rhs: Delta log s = 4 (s |mu|^2 -
        |<nu, mu>|^2) / s^2.
        """
        a = sol.base_point
        m = self.mesh
        nu, s = sol.szego_boundary * self._sw, sol.diag_value
        rhs = self._sw * np.conj(m.tangents / (_TWO_PI_I * (m.nodes - a) ** 2))
        mu = self._solve(rhs)
        lap = 4.0 * (s * np.vdot(mu, mu).real - abs(np.vdot(nu, mu)) ** 2) / s**2
        return float(-lap / (2.0 * np.pi * s) ** 2)


def garabedian_boundary(sol):
    """Garabedian kernel values L(w_j, a) from the boundary identity."""
    return 1j * np.conj(sol.szego_boundary) * np.conj(sol.mesh.tangents)


def _cauchy_sums(boundary_values, mesh, z):
    """Value and derivative at z of the Cauchy integral of boundary data."""
    dw = mesh.tangents * mesh.weights
    den = mesh.nodes - z
    f = np.sum(boundary_values * dw / den) / _TWO_PI_I
    fp = np.sum(boundary_values * dw / den**2) / _TWO_PI_I
    return f, fp


def ahlfors_eval(sol, z):
    """The Ahlfors map f_a = S(., a)/L(., a) and its derivative at z.

    Interior values of S and of the regular part of L come from Cauchy
    quadrature of their boundary values; the 1/(2 pi (z - a)) pole of L
    is added back analytically.  At z = a the map vanishes and its
    derivative is c_D(a) = 2 pi S(a,a).
    """
    z = complex(z)
    a = sol.base_point
    mesh = sol.mesh
    scale = max(1.0, float(np.max(np.abs(mesh.nodes))))
    if abs(z - a) < 1e-12 * scale:
        return 0.0 + 0.0j, complex(2.0 * np.pi * sol.diag_value)
    if abs(z - a) < 1e-6 * scale:
        raise GeometryError(
            "evaluation point is too close to the base point %s" % a
        )
    require_clearance(mesh, z, mesh.owner.dist_to_boundary(z))

    s_bnd = sol.szego_boundary
    l_bnd = garabedian_boundary(sol)
    g_bnd = l_bnd - 1.0 / (2.0 * np.pi * (mesh.nodes - a))
    s_val, s_der = _cauchy_sums(s_bnd, mesh, z)
    g_val, g_der = _cauchy_sums(g_bnd, mesh, z)
    l_val = g_val + 1.0 / (2.0 * np.pi * (z - a))
    l_der = g_der - 1.0 / (2.0 * np.pi * (z - a) ** 2)
    f = s_val / l_val
    fp = (s_der * l_val - s_val * l_der) / l_val**2
    return complex(f), complex(fp)

