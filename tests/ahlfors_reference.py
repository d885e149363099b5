"""The Ahlfors map from the Szego kernel's boundary data.

The package computes only the metric c_D(a) = 2 pi S(a, a) and its
curvature; the Ahlfors map f_a = S(., a) / L(., a) (Bell, The Cauchy
Transform, Potential Theory and Conformal Mapping) is built here, for
the tests, from the boundary values of S(., a) that SzegoSolver.solve
returns (Kerzman and Stein, Math. Ann. 1978).

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * Garabedian boundary values L(z,a) = i conj(S(z,a)) conj(T(z)), which
    makes L(w, a) = 1/(2 pi (w - a)) exact on the unit circle;
  * L has the simple pole 1/(2 pi (z - a)); its regular part is what the
    Cauchy quadrature sees when evaluating inside.

settled_solution gives the kernel solution that settles an evaluator's
value: SzegoEvaluator keeps only a small record per point, so it is
solved again on the finer mesh that record names.
"""

import numpy as np

from caratheodory.errors import GeometryError
from caratheodory.geometry import mesh_boundary
from caratheodory.kernels.szego import SzegoSolver, require_clearance


def settled_solution(ev, a):
    """The KernelSolution of the SzegoEvaluator ev at a, on the finer mesh
    of the pair that settles ev's value there, solved alone on a fresh
    solver (a lone point's climb solves it so too); values' clearance
    guard holds."""
    a = complex(a)
    ev.values([a])
    rec = ev._settled[a]
    mesh = mesh_boundary(ev.domain, rec.n2, rec.family)
    return SzegoSolver(mesh).solve(a)


def garabedian_boundary(sol):
    """Garabedian kernel values L(w_j, a) from the boundary identity."""
    return 1j * np.conj(sol.szego_boundary) * np.conj(sol.mesh.tangents)


def _cauchy_sums(boundary_values, mesh, z):
    """Value and derivative at z of the Cauchy integral of boundary data."""
    dw = mesh.tangents * mesh.weights
    den = mesh.nodes - z
    f = np.sum(boundary_values * dw / den) / (2j * np.pi)
    fp = np.sum(boundary_values * dw / den**2) / (2j * np.pi)
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
