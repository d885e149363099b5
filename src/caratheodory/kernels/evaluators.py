"""Uniform metric evaluation front-end.

Every evaluator exposes value(z) -> float and values(zs) -> array for one
fixed domain, so curvature stencils and harness sweeps don't care which
authority (closed form, Szego solve, LP certificate) produced the number.

Batch calls on the Szego evaluator share a single mesh pair chosen from
the shallowest point of the batch.  That matters for finite differences:
the solver error is a smooth function of the base point on a FIXED mesh
and cancels in the stencil, while re-picking the mesh per point would
inject O(tol/h^2) noise into curvature estimates.  For the same reason a
doubling failure at any point moves the whole batch up the ladder.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, SolveError
from ..extremal.lp import ExtremalProblem, lp_caratheodory_lower
from ..geometry.curves import TrigCurve
from ..geometry.mesh import mesh_boundary
from .closed_forms import SectorPullback, annulus_metric, disc_metric
from .szego import SzegoSolver


class _EvaluatorBase:
    kind = None

    def __init__(self, domain):
        self.domain = domain

    def value(self, z):
        return float(self.values(np.array([z], dtype=complex))[0])

    def values(self, zs):
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.domain.label)


class ClosedFormDiscEvaluator(_EvaluatorBase):
    kind = "closed_form_disc"

    def __init__(self, domain):
        super().__init__(domain)
        if not domain.primitive or domain.primitive[0] != "disc":
            raise GeometryError("domain is not tagged as a disc")
        self.center, self.radius = domain.primitive[1]

    def values(self, zs):
        return np.atleast_1d(disc_metric(self.center, self.radius, zs))


class AnnulusPoincareEvaluator(_EvaluatorBase):
    kind = "closed_form_annulus_poincare"

    def __init__(self, domain):
        super().__init__(domain)
        if not domain.primitive or domain.primitive[0] != "annulus":
            raise GeometryError("domain is not tagged as an annulus")
        self.center, self.r_inner, self.r_outer = domain.primitive[1]

    def values(self, zs):
        return np.atleast_1d(
            annulus_metric(self.center, self.r_inner, self.r_outer, zs))


class SectorPullbackEvaluator(_EvaluatorBase):
    """Poincare density of a two-disc intersection or union via the
    Mobius map sending the circle crossings to 0 and infinity."""

    kind = "closed_form_sector_pullback"

    def __init__(self, domain):
        super().__init__(domain)
        tag = domain.primitive[0] if domain.primitive else None
        if tag == "lens":
            which = "intersection"
        elif tag == "two_disc_union":
            which = "union"
        else:
            raise GeometryError("domain is not a tagged two-disc region")
        d1, d2 = domain.primitive[1]
        self.pullback = SectorPullback(d1, d2, which)

    def values(self, zs):
        return np.atleast_1d(self.pullback.density(zs))


class SzegoEvaluator(_EvaluatorBase):
    """Caratheodory metric 2*pi*S(a,a) from the Kerzman-Stein solve.

    Meshes and LU factorizations are cached per node count, and each
    value is accepted only after a mesh-doubling agreement check
    (1e-8 relative on smooth boundaries, 1e-5 with corners) between the
    batch's mesh pair (n, 2n).  When any point fails it, the whole batch
    climbs one rung to (2n, 4n) and is evaluated again, up to a finer
    mesh of _CAP nodes per curve; SolveError is raised only when the
    check fails there, or at once when the caller pinned n.
    """

    kind = "szego"
    _LADDER = (256, 512, 1024, 2048)
    _CAP = 4096

    def __init__(self, domain, n=None, grading_exponent=3.0):
        super().__init__(domain)
        self.grading_exponent = float(grading_exponent)
        self.n_override = int(n) if n else None
        # corners, and even mere curvature jumps at C1 joins, cost the
        # Nystrom solve its spectral rate; ask only 1e-5 agreement there
        rough = any(not isinstance(c, TrigCurve) for c in domain.curves)
        self.tol = 1e-5 if rough else 1e-8
        self._meshes = {}
        self._solvers = {}
        self._value_cache = {}

    def _mesh(self, n):
        if n not in self._meshes:
            self._meshes[n] = mesh_boundary(self.domain, n,
                                            self.grading_exponent)
        return self._meshes[n]

    def _solver(self, n):
        if n not in self._solvers:
            self._solvers[n] = SzegoSolver(self._mesh(n))
        return self._solvers[n]

    def _pick_n(self, dist):
        if self.n_override:
            return self.n_override
        for n in self._LADDER:
            if 3.0 * self._mesh(n).h_max < dist:
                return n
        return self._LADDER[-1]

    def _guarded_n(self, zs):
        """The batch's coarse node count; every point must keep 3 node
        spacings of clearance on it."""
        dists = np.array([self.domain.dist_to_boundary(z) for z in zs])
        n1 = self._pick_n(float(np.min(dists)))
        guard = 3.0 * self._mesh(n1).h_max
        for z, d in zip(zs, dists):
            if d <= guard:
                raise GeometryError(
                    "point %s is %.3g from the boundary, need > %.3g "
                    "at n=%d" % (z, d, guard, n1))
        return n1

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        n1 = self._guarded_n(zs)
        while True:
            n2 = min(2 * n1, self._CAP)
            out = np.empty(zs.size)
            for i, z in enumerate(zs):
                key = (complex(z), n1, n2)
                if key not in self._value_cache:
                    v1 = 2.0 * np.pi * self._solver(n1).solve(z).diag_value
                    v2 = 2.0 * np.pi * self._solver(n2).solve(z).diag_value
                    rel = abs(v2 - v1) / abs(v2)
                    if rel > self.tol:
                        break  # the whole batch climbs, see the docstring
                    self._value_cache[key] = v2
                out[i] = self._value_cache[key]
            else:
                return out
            if self.n_override or 2 * n2 > self._CAP:
                raise SolveError(
                    "szego value did not settle at %s: n=%d vs %d changed "
                    "by %.3g (tol %.1g)" % (z, n1, n2, rel, self.tol))
            n1 = n2

    def solution(self, a):
        """Kernel solution at the base point on the finer mesh of its
        pair, for Ahlfors map work; same clearance guard as values."""
        a = complex(a)
        return self._solver(min(2 * self._guarded_n([a]), self._CAP)).solve(a)


class LPEvaluator(_EvaluatorBase):
    """On-demand LP certificates: certified lower bounds on the metric.

    Never chosen by auto routing; ask for it with method="lp" to check a
    closed-form or Szego value from below.  On smooth domains certificates
    sit ~0.1-0.5% below the truth (polyhedral deflation plus the sup
    rescale); on cornered ones they can fall far lower, e.g. 1.343502
    against the Szego 1.468978 (8.5% low) on the blob-disc union at 1+0j.
    Curvature assertions treat this kind more loosely than the
    solver-backed ones.
    """

    kind = "lp"

    def __init__(self, domain, degree=24, samples_per_curve=512,
                 angle_count=64):
        super().__init__(domain)
        self.degree = int(degree)
        self.samples_per_curve = int(samples_per_curve)
        self.angle_count = int(angle_count)
        self.cache = {}

    def certificate(self, z):
        z = complex(z)
        if z not in self.cache:
            problem = ExtremalProblem(
                self.domain, z, self.degree, self.samples_per_curve,
                self.angle_count)
            self.cache[z] = lp_caratheodory_lower(problem)
        return self.cache[z]

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        return np.array([self.certificate(z).certified_value for z in zs])


def evaluator_for(domain, method="auto", **params):
    """Route a domain to its metric authority.

    auto: tagged discs and two-disc lenses and unions get their closed
    forms; every other domain, smooth or cornered (boolean results,
    offsets, annuli), gets the Szego solver, which grades its mesh at
    corners and climbs its mesh ladder where the doubling check asks for
    it.  The LP is never picked here: method="lp" asks for certificates,
    and method="szego" forces the solver even where a closed form exists.
    """
    if method == "lp":
        return LPEvaluator(domain,
                           degree=params.get("degree", 24),
                           samples_per_curve=params.get("samples_per_curve", 512),
                           angle_count=params.get("angle_count", 64))
    if method not in ("auto", "szego"):
        raise GeometryError("unknown method %r" % (method,))
    tag = domain.primitive[0] if domain.primitive else None
    if method == "auto" and tag == "disc":
        return ClosedFormDiscEvaluator(domain)
    if method == "auto" and tag in ("lens", "two_disc_union"):
        return SectorPullbackEvaluator(domain)
    return SzegoEvaluator(domain, n=params.get("n"),
                          grading_exponent=params.get("grading_exponent", 3.0))
