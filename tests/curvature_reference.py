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

    The terms n = -m < 0 are summed as (q/r)^{2m} / (q (1 + q^{2m-1})),
    which never overflows, and c' and c'' weight each term r^k, k = 2n,
    by k / r and k (k - 1) / r^2.  The cut grows with r and q / r: terms
    fall like r^{2n} for n > 0 and like (q/r)^{2m} for n < 0, so N terms
    each way leave under 1e-30.
    """
    x = max(r, q / r)
    big = int(np.ceil(35.0 / -np.log(x)))
    n = np.arange(big + 1)
    m = n[1:]
    k = 2.0 * np.concatenate([n, -m])
    terms = np.concatenate([
        r ** (2 * n) / (1.0 + q ** (2 * n + 1)),
        (q / r) ** (2 * m) / (q * (1.0 + q ** (2 * m - 1)))])
    c = np.sum(terms)
    c1 = np.sum(terms * k) / r
    c2 = np.sum(terms * k * (k - 1)) / r**2
    return c, c1, c2


def annulus_kappa(q, r):
    """Exact curvature of the annulus metric at radius r:
    kappa = -Delta log c / c^2 with Delta f = f'' + f'/r for radial f."""
    c, c1, c2 = annulus_series(q, r)
    lap = c2 / c - (c1 / c) ** 2 + c1 / (r * c)
    return -lap / c**2
