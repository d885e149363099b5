"""Independent references for curvature: a finite-difference Laplacian and
the annulus series.

The package takes kappa from the Szego kernel's derivative; these give
the same quantity by other routes, so the tests can cross-check it.
"""

import numpy as np


def fd_log_laplacians(evaluator, z, steps):
    """5-point Laplacians of log(metric) at z, one per step, from one batch
    of metric values, and the metric at z."""
    pts = [z]
    for s in steps:
        pts += [z + s, z - s, z + 1j * s, z - 1j * s]
    vals = evaluator.values(np.array(pts, dtype=complex))
    logs = np.log(vals)
    laps = [(logs[i] + logs[i + 1] + logs[i + 2] + logs[i + 3]
             - 4.0 * logs[0]) / s**2
            for i, s in zip(range(1, len(pts), 4), steps)]
    return laps, vals[0]


def fd_kappa(evaluator, z, h=None):
    """FD curvatures at steps h and h/2 and their Richardson combination
    (4 kappa(h/2) - kappa(h)) / 3; h defaults to min(0.01, dist / 20)."""
    z = complex(z)
    if h is None:
        h = min(0.01, evaluator.domain.dist_to_boundary(z) / 20.0)
    (lap_h, lap_h2), c0 = fd_log_laplacians(evaluator, z, (h, h / 2))
    kappa, kappa_half = -lap_h / c0**2, -lap_h2 / c0**2
    return kappa, (4.0 * kappa_half - kappa) / 3.0


def annulus_series(q, r):
    """c, c' and c'' at radius r of the Caratheodory metric of q < |z| < 1,
    c(r) = sum_{n in Z} r^{2n} / (1 + q^{2n+1}).

    The cut grows with r and q / r: terms fall like r^{2n} for n > 0 and
    like (q/r)^{2|n|} for n < 0, so N terms each way leave under 1e-30.
    """
    x = max(r, q / r)
    big = int(np.ceil(35.0 / -np.log(x)))
    n = np.arange(-big, big + 1)
    p = q ** np.abs(2 * n + 1)  # 1 / (1 + q^(2n+1)) without overflow
    w = np.where(n >= 0, 1.0 / (1.0 + p), p / (1.0 + p))
    k = 2.0 * n
    c = np.sum(w * r**k)
    c1 = np.sum(w * k * r ** (k - 1))
    c2 = np.sum(w * k * (k - 1) * r ** (k - 2))
    return c, c1, c2


def annulus_kappa(q, r):
    """Exact curvature of the annulus metric at radius r:
    kappa = -Delta log c / c^2 with Delta f = f'' + f'/r for radial f."""
    c, c1, c2 = annulus_series(q, r)
    lap = c2 / c - (c1 / c) ** 2 + c1 / (r * c)
    return -lap / c**2
