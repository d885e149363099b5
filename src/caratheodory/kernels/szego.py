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

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * arclength measure ds, c_D(a) = 2 pi S(a, a);
  * rhs_j = sqrt(w_j) conj(T_j / (2 pi i (z_j - a)));
  * Garabedian boundary values L(z,a) = i conj(S(z,a)) conj(T(z)), which
    makes L(w, a) = 1/(2 pi (w - a)) exact on the unit circle;
  * L has the simple pole 1/(2 pi (z - a)); its regular part is what the
    Cauchy quadrature sees when evaluating inside.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ..errors import GeometryError, SolveError

_TWO_PI_I = 2j * np.pi


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


def kerzman_stein_matrix(mesh):
    """The symmetrized discrete kernel B = C^H - C, zero diagonal.

    C_jk = sqrt(w_j w_k) T_k / (2 pi i (z_k - z_j)) off the diagonal.
    The continuous kernel extends smoothly by 0 to the diagonal, so the
    zero diagonal is the consistent quadrature choice, and B^H = -B holds
    to the last bit because the conjugate transpose is taken literally.
    """
    z = mesh.nodes
    t = mesh.tangents
    sw = np.sqrt(mesh.weights)
    dz = z[None, :] - z[:, None]
    np.fill_diagonal(dz, 1.0)  # dummy; diagonal is zeroed below
    c = (sw[:, None] * sw[None, :]) * (t[None, :] / dz) / _TWO_PI_I
    np.fill_diagonal(c, 0.0)
    return c.conj().T - c


class SzegoSolver:
    """Factorized Kerzman-Stein system on one mesh; solves many base points."""

    def __init__(self, mesh):
        self.mesh = mesh
        a_sys = kerzman_stein_matrix(mesh)
        np.fill_diagonal(a_sys, a_sys.diagonal() + 1.0)
        try:
            self._lu = lu_factor(a_sys, overwrite_a=True)
        except Exception as exc:  # singular to working precision
            raise SolveError("boundary system factorization failed: %s" % exc)
        self._sw = np.sqrt(mesh.weights)

    def solve(self, a):
        a = complex(a)
        m = self.mesh
        rhs = self._sw * np.conj(m.tangents / (_TWO_PI_I * (m.nodes - a)))
        nu = lu_solve(self._lu, rhs)
        diag = float(np.sum(np.abs(nu) ** 2))
        if not np.isfinite(diag) or diag <= 0.0:
            raise SolveError("solver returned a nonpositive diagonal value")
        return KernelSolution(a, m, nu / self._sw, diag)


def solve_szego(mesh, a):
    """Boundary Szego values S(w_j, a) and diagonal S(a,a) on one mesh.

    The base point must keep 3 node spacings of clearance from the
    boundary, otherwise the near-singular rhs poisons the quadrature.
    """
    a = complex(a)
    d = mesh.owner.dist_to_boundary(a)
    if d <= 3.0 * mesh.h_max:
        raise GeometryError(
            "base point %.6g+%.6gi is %.3g from the boundary; need > 3 "
            "node spacings (%.3g)" % (a.real, a.imag, d, 3.0 * mesh.h_max)
        )
    return SzegoSolver(mesh).solve(a)


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
    d = mesh.owner.dist_to_boundary(z)
    if d <= 3.0 * mesh.h_max:
        raise GeometryError("evaluation point too close to the boundary")

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

