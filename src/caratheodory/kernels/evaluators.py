"""Uniform metric evaluation front-end.

Every evaluator exposes value(z) -> float, values(zs) -> array and
curvatures(zs) -> array for one fixed domain, so curvature scans and
harness sweeps don't care which authority (closed form or Szego solve,
chosen by evaluator_for) produced the number.  LPEvaluator shares the
interface as the certificate layer.

Batch calls on the Szego evaluator share a single mesh pair chosen from
the shallowest point of the batch, and a doubling failure at any point
moves the whole batch up the ladder.  Curvature no longer needs that
sharing (it comes from the kernel's derivative, not from differences of
values); the pair stays because settling each point on its own pair
would move values.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, SolveError
from ..extremal.lp import ExtremalProblem, lp_caratheodory_lower
from ..geometry.curves import TrigCurve
from ..geometry.mesh import mesh_boundary
from .closed_forms import SectorPullback, annulus_metric, disc_metric
from .szego import CLEARANCE, SzegoSolver, require_clearance


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


class _ClosedFormEvaluator(_EvaluatorBase):
    """Closed-form densities, all normalized to curvature -4."""

    def curvatures(self, zs):
        return np.full_like(self.values(zs), -4.0)


class ClosedFormDiscEvaluator(_ClosedFormEvaluator):
    kind = "closed_form_disc"

    def __init__(self, domain):
        super().__init__(domain)
        if not domain.primitive or domain.primitive[0] != "disc":
            raise GeometryError("domain is not tagged as a disc")
        self.center, self.radius = domain.primitive[1]

    def values(self, zs):
        return np.atleast_1d(disc_metric(self.center, self.radius, zs))


class AnnulusPoincareEvaluator(_ClosedFormEvaluator):
    kind = "closed_form_annulus_poincare"

    def __init__(self, domain):
        super().__init__(domain)
        if not domain.primitive or domain.primitive[0] != "annulus":
            raise GeometryError("domain is not tagged as an annulus")
        self.center, self.r_inner, self.r_outer = domain.primitive[1]

    def values(self, zs):
        return np.atleast_1d(
            annulus_metric(self.center, self.r_inner, self.r_outer, zs))


class SectorPullbackEvaluator(_ClosedFormEvaluator):
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

    Meshes and their solvers are cached per node count (a solver turns
    from GMRES to one LU factorization once its mesh has served enough
    solves), and each value is accepted only after a mesh-doubling
    agreement check (1e-8 relative on smooth boundaries, 1e-5 with
    corners) between the batch's mesh pair (n, 2n).  When any point
    fails it, the whole batch climbs one rung to (2n, 4n) and is
    evaluated again, up to a finer mesh of _CAP nodes per curve;
    SolveError is raised only when the check fails there, or at once
    when the caller pinned n.  The finer-mesh solution that settles a
    value is kept, so its curvature costs one derivative solve more.

    A pinned n pairs with min(2n, _CAP), and its mesh is built at
    construction: an n that mesh_boundary refuses, or one above _CAP,
    raises GeometryError there.  At n = _CAP the pair collapses to one
    mesh, so each point is solved once and no doubling check runs.
    """

    kind = "szego"
    _LADDER = (256, 512, 1024, 2048)
    _CAP = 4096

    def __init__(self, domain, n=None):
        super().__init__(domain)
        self.n_override = None if n is None else int(n)
        # corners, and even mere curvature jumps at C1 joins, cost the
        # Nystrom solve its spectral rate; ask only 1e-5 agreement there
        rough = any(not isinstance(c, TrigCurve) for c in domain.curves)
        self.tol = 1e-5 if rough else 1e-8
        self._meshes = {}
        self._solvers = {}
        self._settled = {}
        if self.n_override is not None:
            if self.n_override > self._CAP:
                raise GeometryError("n is past the mesh cap %d" % self._CAP)
            self._mesh(self.n_override)  # mesh_boundary refuses bad counts

    def _mesh(self, n):
        if n not in self._meshes:
            self._meshes[n] = mesh_boundary(self.domain, n)
        return self._meshes[n]

    def _solver(self, n):
        if n not in self._solvers:
            self._solvers[n] = SzegoSolver(self._mesh(n))
        return self._solvers[n]

    def _pick_n(self, dist):
        if self.n_override is not None:
            return self.n_override
        for n in self._LADDER:
            if CLEARANCE * self._mesh(n).h_max < dist:
                return n
        return self._LADDER[-1]

    def _guarded_n(self, zs):
        """The batch's coarse node count; every point must keep CLEARANCE
        node spacings on its mesh."""
        dists = [self.domain.dist_to_boundary(z) for z in zs]
        n1 = self._pick_n(min(dists))
        for z, d in zip(zs, dists):
            require_clearance(self._mesh(n1), z, d)
        return n1

    def _settle(self, zs):
        """The finer node count of the batch's mesh pair, and the kernel
        solutions on it that settle the batch's values."""
        zs = np.asarray(zs, dtype=complex).ravel()
        if zs.size == 0:
            return None, []
        n1 = self._guarded_n(zs)
        while True:
            n2 = min(2 * n1, self._CAP)
            out = []
            for z in zs:
                key = (complex(z), n1, n2)
                if key not in self._settled:
                    # one solve per distinct mesh: a collapsed pair has rel 0
                    sols = [self._solver(m).solve(z) for m in sorted({n1, n2})]
                    v1, v2 = (2.0 * np.pi * sol.diag_value
                              for sol in (sols[0], sols[-1]))
                    rel = abs(v2 - v1) / abs(v2)
                    if rel > self.tol:
                        break  # the whole batch climbs, see the docstring
                    self._settled[key] = sols[-1]
                out.append(self._settled[key])
            else:
                return n2, out
            if self.n_override is not None or 2 * n2 > self._CAP:
                raise SolveError(
                    "szego value did not settle at %s: n=%d vs %d changed "
                    "by %.3g (tol %.1g)" % (z, n1, n2, rel, self.tol))
            n1 = n2

    def values(self, zs):
        return np.array([2.0 * np.pi * sol.diag_value
                         for sol in self._settle(zs)[1]], dtype=float)

    def curvatures(self, zs):
        """SzegoSolver.kappa of the finer-mesh solutions that settle the
        values: one derivative solve per point."""
        n2, sols = self._settle(zs)
        return np.array([self._solver(n2).kappa(sol) for sol in sols],
                        dtype=float)

    def solution(self, a):
        """Kernel solution at the base point on the finer mesh of its
        pair, for Ahlfors map work; same clearance guard as values."""
        a = complex(a)
        return self._solver(min(2 * self._guarded_n([a]), self._CAP)).solve(a)


class LPEvaluator(_EvaluatorBase):
    """On-demand LP certificates: certified lower bounds on the metric.

    Not a metric authority, so evaluator_for never returns it; build it
    directly to check a closed-form or Szego value from below.  On smooth
    domains certificates sit ~0.1-0.5% below the truth (polyhedral
    deflation plus the sup rescale); on cornered ones they can fall far
    lower, e.g. 1.343502 against the Szego 1.468978 (8.5% low) on the
    blob-disc union at 1+0j.
    A lower bound has no curvature, so curvatures raises.
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

    def curvatures(self, zs):
        raise GeometryError(
            "LP certificates are lower bounds and carry no curvature")


def evaluator_for(domain, method="auto", n=None):
    """Route a domain to its metric authority; the one place that does.

    auto: tagged discs and two-disc lenses and unions get their closed
    forms; every other domain, smooth or cornered (boolean results,
    offsets, annuli), gets the Szego solver, which grades its mesh at
    corners and climbs its mesh ladder where the doubling check asks for
    it.  method="szego" forces the solver even where a closed form
    exists.  n pins the solver's coarse node count; n for a closed form
    raises GeometryError.  LP certificates are not metric values: build
    an LPEvaluator for them.
    """
    if method not in ("auto", "szego"):
        raise GeometryError("unknown method %r" % (method,))
    tag = domain.primitive[0] if domain.primitive else None
    if method == "auto" and tag == "disc":
        ev = ClosedFormDiscEvaluator(domain)
    elif method == "auto" and tag in ("lens", "two_disc_union"):
        ev = SectorPullbackEvaluator(domain)
    else:
        return SzegoEvaluator(domain, n=n)
    if n is not None:
        raise GeometryError("n is not an option of the %s evaluator" % ev.kind)
    return ev
