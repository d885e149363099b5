"""Independent reference for the Kerzman-Stein matrix: the broadcast formula.

The package assembles B in place, tile by tile; this builds it the plain
way, with N x N temporaries, so the tests can check the two agree bit for
bit.
"""

import numpy as np


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
