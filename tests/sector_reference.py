"""40-digit reference for the two-disc lens and union densities.

Built apart from ``closed_forms.SectorPullback``: the Mobius map
M(z) = (z - p)/(z - q) sends both circles to lines through 0, and it
sends infinity, which lies outside both discs, to 1 and the midpoint of
the common chord, which lies in both, to -1.  So the lens is the sector
between the two lines that holds -1, and the union is the whole plane
less the sector that holds 1.  Each line's angle is read at the one of
the circle's two points on the line of centres that lies farther from
the crossing points.  The density is the
sector's, pi / (2 beta |w| sin(pi phi / beta)), times |M'(z)|.
"""

import mpmath as mp


def _crossings(c1, r1, c2, r2):
    d = abs(c2 - c1)
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h = mp.sqrt(r1 * r1 - a * a)
    u = (c2 - c1) / d
    m = c1 + a * u
    return m + 1j * h * u, m - 1j * h * u


def sector_density(disc1, disc2, which, zs, dps=40):
    """Lens ("intersection") or union density at the points zs, as mpf."""
    with mp.workdps(dps):
        (c1, r1), (c2, r2) = [(mp.mpc(c), mp.mpf(r)) for c, r in (disc1, disc2)]
        p, q = _crossings(c1, r1, c2, r2)

        def arg_m(z):
            return mp.arg((z - p) / (z - q)) % (2 * mp.pi)

        u = (c2 - c1) / abs(c2 - c1)
        lines = [arg_m(max(c + r * u, c - r * u, key=lambda z: abs(z - p)))
                 % mp.pi for c, r in ((c1, r1), (c2, r2))]
        rays = sorted(lines + [x + mp.pi for x in lines])

        def sector_holding(angle):
            for lo, hi in zip(rays, rays[1:] + [rays[0] + 2 * mp.pi]):
                if lo < angle < hi or lo < angle + 2 * mp.pi < hi:
                    return lo, hi - lo
            raise ValueError("angle on a ray")

        if which == "intersection":
            start, beta = sector_holding(mp.pi)
        else:
            lo, width = sector_holding(mp.mpf(0))
            start, beta = lo + width, 2 * mp.pi - width
        out = []
        for z in zs:
            z = mp.mpc(z)
            w = (z - p) / (z - q)
            phi = (arg_m(z) - start) % (2 * mp.pi)
            lam = mp.pi / (2 * beta * abs(w) * mp.sin(mp.pi * phi / beta))
            out.append(lam * abs(p - q) / abs(z - q) ** 2)
        return out
