"""The Ahlfors map from the Szego kernel's boundary data.

The package computes only the metric c_D(a) = 2 pi S(a, a) and its
curvature; the Ahlfors map f_a = S(., a) / L(., a) (Bell, The Cauchy
Transform, Potential Theory and Conformal Mapping) is built here, for
the tests, from the boundary values of S(., a) that SzegoSolver.solve's
rows give (Kerzman and Stein, Math. Ann. 1978).

Conventions (pinned by the disc oracle S(z,a) = 1/(2 pi (1 - z conj a))):
  * Garabedian boundary values L(z,a) = i conj(S(z,a)) conj(T(z)), which
    makes L(w, a) = 1/(2 pi (w - a)) exact on the unit circle;
  * L has the simple pole 1/(2 pi (z - a)); its regular part is what the
    Cauchy quadrature sees when evaluating inside.

szego_boundary solves one base point alone on a fresh solver and gives
S(a, a) with the boundary values S(., a), nus[0] / sqrt(w) of
SzegoSolver.solve's rows; settled_solution does so on the finer mesh
that settles an evaluator's value, since SzegoEvaluator keeps only a
small record per point.
"""

import numpy as np

from caratheodory.errors import GeometryError
from caratheodory.geometry import mesh_boundary
from caratheodory.kernels.szego import SzegoSolver, require_clearance


def szego_boundary(mesh, a):
    """(S(a, a), S(., a) at the nodes of mesh), a solved alone on a
    fresh solver."""
    s, nus = SzegoSolver(mesh).solve([a])
    return s[0], nus[0] / np.sqrt(mesh.weights)


def settled_solution(ev, a):
    """(mesh, S(a, a), S(., a) at its nodes) for the SzegoEvaluator ev
    at a: mesh is the finer one of the pair that settles ev's value
    there, and a is solved on it alone (a lone point's climb solves it
    so too); values' clearance guard holds."""
    a = complex(a)
    ev.values([a])
    rec = ev._settled[a]
    mesh = mesh_boundary(ev.domain, rec.n2, rec.family)
    return (mesh,) + szego_boundary(mesh, a)


def garabedian_boundary(mesh, s_bnd):
    """Garabedian kernel values L(w_j, a) from the boundary identity, for
    the boundary values s_bnd of S(., a) on mesh."""
    return 1j * np.conj(s_bnd) * np.conj(mesh.tangents)


def _cauchy_sums(boundary_values, mesh, z):
    """Value and derivative at z of the Cauchy integral of boundary data."""
    dw = mesh.tangents * mesh.weights
    den = mesh.nodes - z
    f = np.sum(boundary_values * dw / den) / (2j * np.pi)
    fp = np.sum(boundary_values * dw / den**2) / (2j * np.pi)
    return f, fp


def ahlfors_eval(mesh, a, s_bnd, z):
    """The Ahlfors map f_a = S(., a)/L(., a) and its derivative at z,
    from the boundary values s_bnd of S(., a) on mesh.

    Interior values of S and of the regular part of L come from Cauchy
    quadrature of their boundary values; the 1/(2 pi (z - a)) pole of L
    is added back analytically.  At z = a the map vanishes and its
    derivative is c_D(a) = 2 pi S(a,a), the squared norm of s_bnd by
    the reproducing identity.
    """
    z, a = complex(z), complex(a)
    scale = max(1.0, float(np.max(np.abs(mesh.nodes))))
    if abs(z - a) < 1e-12 * scale:
        diag = np.sum(np.abs(s_bnd) ** 2 * mesh.weights)
        return 0.0 + 0.0j, complex(2.0 * np.pi * diag)
    if abs(z - a) < 1e-6 * scale:
        raise GeometryError(
            "evaluation point is too close to the base point %s" % a
        )
    require_clearance(mesh, z, mesh.owner.dist_to_boundary(z))

    l_bnd = garabedian_boundary(mesh, s_bnd)
    g_bnd = l_bnd - 1.0 / (2.0 * np.pi * (mesh.nodes - a))
    s_val, s_der = _cauchy_sums(s_bnd, mesh, z)
    g_val, g_der = _cauchy_sums(g_bnd, mesh, z)
    l_val = g_val + 1.0 / (2.0 * np.pi * (z - a))
    l_der = g_der - 1.0 / (2.0 * np.pi * (z - a) ** 2)
    f = s_val / l_val
    fp = (s_der * l_val - s_val * l_der) / l_val**2
    return complex(f), complex(fp)
