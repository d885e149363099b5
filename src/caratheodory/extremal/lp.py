"""Certified lower bounds on the Caratheodory metric from one basis.

The bound rests on the identity the package computes by, c_D(a) = 2 pi
S(a, a), with S the Szego kernel of the boundary arclength ds: S(a, a) is
the largest |h(a)|^2 over h holomorphic on the closure of D with boundary
norm ||h|| = 1.  So for any phi_k orthonormal in L^2(boundary, ds),
2 pi sum_k |phi_k(a)|^2 <= c_D(a), and the sum never falls as the span
grows.  The span is the polynomials of degree <= N plus, for each hole,
(s/(z - p))^k for k = 1..N, with p the hole's centroid and s its
distance to the hole curve, so |s/(z - p)| <= 1 off the hole.  On the
unit disc the bound is (1 - r^(2N+2))/(1 - r^2).

The basis depends on the boundary and the degree only, so one
ExtremalProblem per domain and degree orthonormalises it by Arnoldi, a
weighted QR (Brubeck, Nakatsukasa and Trefethen, SIAM Rev. 2021), and
every base point a is evaluated by the same recurrence, alone, so its
bound has the same bits in any batch.  The quadrature is the one inexact
step: the bound is the smaller of its values on the meshes of m and 2m
nodes on the outer curve, each hole at the outer spacing (see
geometry.mesh), refused when they differ by over _MESH_AGREEMENT (the
uniform rule converges only algebraically over C1 joins).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ExtremalError, GeometryError
from ..geometry.mesh import mesh_boundary

_NODES = 2048  # outer-curve nodes of the coarser mesh; holes get their share
_MESH_AGREEMENT = 1e-7  # seen: ~1e-12, and up to 1.6e-8 over C1 joins


def __getattr__(name):
    # only perfbench's trace table reaches linprog, and no certificate
    # solves an LP: scipy is imported when the name is first looked up
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def choose_poles(domain):
    """One anchor point per hole, at the hole's area centroid."""
    poles = []
    for h in domain.holes:
        a = h.polyline(2048)[1]
        b = np.roll(a, -1)
        cross = a.real * b.imag - b.real * a.imag
        poles.append(complex(np.sum((a + b) * cross) / (3.0 * np.sum(cross))))
    return poles


class ExtremalProblem:
    """One domain's certificate basis, orthonormalised on the m and 2m meshes.

    Column c > 0 is multiplier i times column j for (i, j) = steps[c - 1]:
    multiplier 0 is z, multiplier i > 0 is s/(z - p) for hole i.  bases[l]
    holds mesh l's Gram-Schmidt coefficients, an upper triangular matrix.
    """

    def __init__(self, domain, degree=24):
        if degree < 1:
            raise GeometryError("degree must be at least 1")
        self.domain = domain
        self.degree = n = int(degree)
        self.poles = tuple(choose_poles(domain))
        self.pole_scales = tuple(float(np.min(np.abs(h.polyline(2048)[1] - p)))
                                 for p, h in zip(self.poles, domain.holes))
        self.steps = [(0, k) for k in range(n)]
        for i in range(1, len(self.poles) + 1):  # hole i's columns from 1 + n i
            self.steps += [(i, 0)] + [(i, n * i + k) for k in range(1, n)]
        self.bases = [self._arnoldi(mesh_boundary(domain, m))
                      for m in (_NODES, 2 * _NODES)]

    def _multipliers(self, z):
        return [z] + [s / (z - p) for p, s in zip(self.poles, self.pole_scales)]

    def _arnoldi(self, mesh):
        w = mesh.weights
        mult = self._multipliers(mesh.nodes)
        size = 1 + len(self.steps)
        q = np.empty((size, mesh.size), dtype=complex)  # row c: column c
        r = np.zeros((size, size), dtype=complex)
        r[0, 0] = np.sqrt(np.sum(w))
        q[0] = 1.0 / r[0, 0]
        for c, (i, j) in enumerate(self.steps, 1):
            v = mult[i] * q[j]
            for _ in range(2):  # twice is enough to keep q orthonormal
                h = q[:c].conj() @ (w * v)
                v = v - h @ q[:c]
                r[:c, c] += h
            r[c, c] = np.sqrt(np.sum(w * np.abs(v) ** 2))
            q[c] = v / r[c, c]
        return r

    def basis_at(self, r, z):
        """The orthonormal basis of coefficients r at the point z."""
        mult = self._multipliers(complex(z))
        phi = np.empty(r.shape[0], dtype=complex)
        phi[0] = 1.0 / r[0, 0]
        for c, (i, j) in enumerate(self.steps, 1):
            phi[c] = (mult[i] * phi[j] - phi[:c] @ r[:c, c]) / r[c, c]
        return phi

    def mesh_values(self, a):
        """2 pi sum_k |phi_k(a)|^2 on the m-node and the 2m-node mesh."""
        return tuple(2.0 * np.pi * math.fsum(np.abs(self.basis_at(r, a)) ** 2)
                     for r in self.bases)


def lp_caratheodory_lower(problem, zs):
    """The certificates of the points zs (see the module docstring)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    inside = problem.domain.contains_many(zs)
    if not np.all(inside):
        raise GeometryError("base point %s is not inside the domain"
                            % zs[~inside][0])
    out = np.empty(zs.size)
    for k, a in enumerate(zs.tolist()):
        vals = problem.mesh_values(a)
        spread = abs(vals[1] - vals[0]) / max(vals)
        if spread > _MESH_AGREEMENT:
            raise ExtremalError(
                "certificate at %s moves by %.3g from %d to %d outer nodes"
                % (a, spread, _NODES, 2 * _NODES))
        out[k] = min(vals)
    return out
