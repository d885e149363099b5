"""Independent references for the Kerzman-Stein solve.

broadcast_kerzman_stein builds the matrix B the plain way, with N x N
temporaries, where the package assembles it in place, tile by tile, so
the tests can check the two agree bit for bit.  uniform_pair_values
solves a fixed uniform mesh pair, with no routing, as a reference for
the values SzegoEvaluator settles.
"""

import numpy as np

from caratheodory.geometry import mesh_boundary
from caratheodory.kernels import SzegoEvaluator
from caratheodory.kernels.szego import SzegoSolver


def broadcast_kerzman_stein(mesh):
    """B = C^H - C with C_jk = sqrt(w_j w_k) T_k / (2 pi i (z_k - z_j))
    off the diagonal and 0 on it."""
    z = mesh.nodes
    t = mesh.tangents
    sw = np.sqrt(mesh.weights)
    dz = z[None, :] - z[:, None]
    np.fill_diagonal(dz, 1.0)  # dummy; diagonal is zeroed below
    c = (sw[:, None] * sw[None, :]) * (t[None, :] / dz) / (2j * np.pi)
    np.fill_diagonal(c, 0.0)
    return c.conj().T - c


def uniform_pair_values(domain, n, zs, kappa=False):
    """The metric 2 pi S(a, a) at each point a of zs on the uniform mesh
    of 2n nodes on the outer curve (and each hole's share, as
    mesh_boundary gives it), asserted to agree with the mesh of n outer
    nodes within SzegoEvaluator's doubling tolerance; with kappa, the
    pair (values, curvatures), the curvatures from the finer solver.

    Each mesh solves zs as one block on a fresh solver, as a group's
    climb does, so a value has the bits of a group that settles on this
    pair."""
    zs = [complex(z) for z in np.ravel(zs)]
    coarse, _ = SzegoSolver(mesh_boundary(domain, n)).solve(zs)
    fine, _, *kappas = SzegoSolver(mesh_boundary(domain, 2 * n)).solve(
        zs, kappa)
    v1, v2 = 2.0 * np.pi * coarse, 2.0 * np.pi * fine
    change = np.max(np.abs(v2 - v1) / np.abs(v2))
    assert change <= SzegoEvaluator(domain).tol, change
    return (v2, kappas[0]) if kappa else v2
