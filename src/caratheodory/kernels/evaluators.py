"""Uniform metric evaluation front-end.

Every evaluator exposes value(z) -> float, values(zs) -> array and
curvatures(zs) -> array for one fixed domain, so curvature scans and
harness sweeps don't care which authority (closed form or Szego solve,
chosen by evaluator_for) produced the number.  LPEvaluator shares the
interface as the certificate layer.

Batch calls on the Szego evaluator share a single uniform mesh pair
chosen from the shallowest point that the ladder's top rung, 1024 nodes
per curve, clears, and a doubling failure at any of those points moves
them all up the ladder.  Each mesh of the pair solves the batch as one
block, values and curvatures alike, so an interior grid costs one LU
per mesh and a few triangular solves with many right-hand sides.  The
points past that rung's clearance, and those its pair does not settle,
are settled one by one on pairs of meshes adapted to each point's
nearest boundary point, its foot, instead of on uniform meshes of 2048
or 4096 nodes.
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

    Each value is accepted only after a mesh-doubling agreement check
    (1e-8 relative on smooth boundaries, 1e-5 with corners) between a
    mesh pair (n, 2n).  The points of a batch that some uniform rung of
    _LADDER keeps CLEARANCE node spacings (h_max) from the boundary
    share the pair of the first rung that does so for the shallowest of
    them, and each mesh solves them, and later their curvatures, as one
    block; uniform meshes and their solvers are cached per node count (a
    solver turns from GMRES to one LU factorization once its mesh has
    served, or is about to serve, enough solves).  When any of them fails
    the check, they all climb one rung, up to (1024, 2048).

    A point too near the boundary for the top rung, or that fails the
    check there, is settled on its own, on meshes adapted to its foot
    (mesh_boundary's foot): the pairs of _ADAPTED in turn, the first
    whose coarse mesh keeps the point's local clearance.  SolveError is
    raised only when the last adapted pair fails the check, or at once
    when the caller pinned n.  The finer-mesh solution that settles a
    value is kept, so its curvature costs one derivative solve more, and
    solution() returns it.  The latest adapted point's finer solver is
    kept with it (curvature_at asks for the curvature, then the value);
    an earlier point's curvature builds its solver again.

    A pinned n pairs with min(2n, _CAP) on uniform meshes, and its mesh
    is built at construction: an n that mesh_boundary refuses, or one
    above _CAP, raises GeometryError there.  At n = _CAP the pair
    collapses to one mesh, so each point is solved once and no doubling
    check runs.
    """

    kind = "szego"
    _LADDER = (256, 512, 1024)
    _ADAPTED = ((512, 1024), (1024, 2048))
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
        # (z, n1, n2) on uniform pairs, (z, "foot") on adapted ones ->
        # the finer-mesh solution that settles z
        self._settled = {}
        self._foot_solver = None  # the latest adapted finer solver
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
        """The coarse node count for points at dist or farther: the pin,
        else the first rung whose h_max keeps CLEARANCE at dist, else
        None."""
        if self.n_override is not None:
            return self.n_override
        for n in self._LADDER:
            if CLEARANCE * self._mesh(n).h_max < dist:
                return n
        return None

    def _route(self, zs):
        """The _settled key of each point of the batch.

        The points some rung clears climb the ladder together and are
        settled here on their shared uniform pair, (z, n1, n2).  The
        rest, and those the top rung's pair does not settle, are keyed
        (z, "foot") and settled at their feet by _solution.
        """
        zs = np.asarray(zs, dtype=complex).ravel()
        dists = [d for _, _, d in self.domain.feet(zs)]
        if self.n_override is not None:
            for z, d in zip(zs, dists):
                require_clearance(self._mesh(self.n_override), z, d)
        keys = [(complex(z), "foot") for z in zs]
        climbing = [i for i, d in enumerate(dists)
                    if keys[i] not in self._settled
                    and self._pick_n(d) is not None]
        if climbing:
            n1 = self._pick_n(min(dists[i] for i in climbing))
            for i, key in zip(climbing, self._climb(zs[climbing], n1)):
                keys[i] = key or keys[i]
        return keys

    def _climb(self, zs, n1):
        """Keys of the points settled on the first uniform pair from
        (n1, 2 n1) up whose doubling check they all pass; at the top
        rung, None for each point that still fails it.  Each mesh solves
        the points it has not settled as one block."""
        while True:
            n2 = min(2 * n1, self._CAP)
            keys = [(complex(z), n1, n2) for z in zs]
            todo = [key for key in dict.fromkeys(keys)
                    if key not in self._settled]
            if not todo:
                return keys
            # one block per distinct mesh: a collapsed pair has rel 0
            sols = [self._solver(m).solve([key[0] for key in todo])
                    for m in sorted({n1, n2})]
            rels = [_doubling_change(c, f) for c, f in zip(sols[0], sols[-1])]
            failed = [(key[0], rel) for key, rel in zip(todo, rels)
                      if rel > self.tol]
            if failed and self.n_override is not None:
                raise SolveError(
                    "szego value did not settle at %s: n=%d vs %d changed by "
                    "%.3g (tol %.1g)" % (failed[0][0], n1, n2, failed[0][1],
                                         self.tol))
            if failed and n1 < self._LADDER[-1]:
                n1 = n2  # the whole batch climbs, see the docstring
                continue
            for key, rel, sol in zip(todo, rels, sols[-1]):
                if rel <= self.tol:
                    self._settled[key] = sol
            return [key if key in self._settled else None for key in keys]

    def _solution(self, key):
        """The finer-mesh solution that settles a key's value; a foot key
        is settled on first use."""
        if key not in self._settled:
            self._settle_at_foot(key[0])
        return self._settled[key]

    def _foot_solver_of(self, key):
        """The finer solver of a point settled at its foot.  Only the
        latest one is kept, so an earlier point's is built again."""
        mesh = self._settled[key].mesh
        if self._foot_solver is None or self._foot_solver.mesh is not mesh:
            self._foot_solver = SzegoSolver(mesh)
        return self._foot_solver

    def _settle_at_foot(self, z):
        """Settle z on the first adapted pair that keeps its clearance and
        passes the doubling check; its finer solver becomes _foot_solver."""
        foot = self.domain.foot(z)
        self._foot_solver = None
        coarse = None  # (n, solver, solution)
        for n1, n2 in self._ADAPTED:
            if coarse is None or coarse[0] != n1:
                mesh = mesh_boundary(self.domain, n1, foot)
                try:
                    require_clearance(mesh, z, foot[2])
                except GeometryError:
                    if (n1, n2) == self._ADAPTED[-1]:
                        raise
                    continue
                coarse = (n1,) + _solved(mesh, z)
            fine = (n2,) + _solved(mesh_boundary(self.domain, n2, foot), z)
            rel = _doubling_change(coarse[2], fine[2])
            if rel <= self.tol:
                self._foot_solver = fine[1]
                self._settled[(z, "foot")] = fine[2]
                return
            coarse = fine
        raise SolveError(
            "szego value did not settle at %s: n=%d vs %d at its foot changed "
            "by %.3g (tol %.1g)" % (z, n1, n2, rel, self.tol))

    def values(self, zs):
        return np.array([2.0 * np.pi * self._solution(key).diag_value
                         for key in self._route(zs)], dtype=float)

    def curvatures(self, zs):
        """SzegoSolver.kappa of the finer-mesh solutions that settle the
        values: one derivative solve per point, as one block per uniform
        mesh."""
        keys = self._route(zs)
        blocks = {}  # uniform finer node count -> its distinct keys
        for key in dict.fromkeys(keys):
            if key[1] != "foot":
                blocks.setdefault(key[2], []).append(key)
        kappas = {}
        for n2, block in blocks.items():
            sols = [self._settled[key] for key in block]
            kappas.update(zip(block, self._solver(n2).kappa(sols)))
        out = []
        for key in keys:
            if key[1] == "foot":
                sol = self._solution(key)  # a foot point keeps its solver
                kappas[key] = self._foot_solver_of(key).kappa(sol)
            out.append(kappas[key])
        return np.array(out, dtype=float)

    def solution(self, a):
        """The kernel solution that settles the value at the base point,
        for Ahlfors map work; same clearance guard as values."""
        return self._solution(self._route([a])[0])


def _solved(mesh, z):
    solver = SzegoSolver(mesh)
    return solver, solver.solve(z)


def _doubling_change(coarse, fine):
    """Relative change of the metric value from the coarse solution to
    the fine one."""
    v1, v2 = (2.0 * np.pi * sol.diag_value for sol in (coarse, fine))
    return abs(v2 - v1) / abs(v2)


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
