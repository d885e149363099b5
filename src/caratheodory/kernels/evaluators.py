"""Uniform metric evaluation front-end.

Every evaluator exposes value(z) -> float, values(zs) -> array and
curvatures(zs) -> array for one fixed domain, so curvature scans and
harness sweeps don't care which authority (closed form or Szego solve,
chosen by evaluator_for) produced the number.  LPEvaluator shares the
interface as the certificate layer: lower bounds from one orthonormal
boundary basis per domain and degree, built with the evaluator, with no
Szego solve.

The Szego evaluator settles a batch nearest point first: the nearest
point still pending leads a group of every pending point its first mesh
clears, and each rung of the group's climb solves them as one block,
values and curvatures alike.  On a uniform mesh of a smooth boundary
whose curves keep apart, a rung settles the group alone once the
Fourier tails of its densities show them resolved; elsewhere a rung
settles it once its values agree with the rung below's.  An interior
grid on a smooth domain so costs one factorization and a few triangular
solves with many right-hand sides, and a march toward the boundary one
pair adapted to its nearest point.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, SolveError
from ..extremal.lp import ExtremalProblem, lp_caratheodory_lower
from ..geometry.curves import TrigCurve
from ..geometry.mesh import mesh_boundary
from .closed_forms import SectorPullback, annulus_metric, disc_metric
from .szego import (CLEARANCE, SzegoSolver, _clears, _resolved,
                    require_clearance)


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
    """Poincare density of an annulus-tagged domain, which is not its c_D
    (see closed_forms.poincare_annulus); auto routing sends annuli to the
    Szego solve."""

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

    Each value settles, to tol (1e-8 relative on smooth boundaries, 1e-5
    with corners), on one rung of a mesh-doubling ladder, _climb: each
    rung solves its group's points as one block, and settles a point
    whose value agrees with the rung below's within tol or, on a
    uniform mesh of a smooth boundary (every curve a TrigCurve), that
    it resolves alone: the Fourier tail of the point's density
    sqrt(w) nu meets TAIL_FACTOR tail^2 <= tol and every curve keeps
    CLEARANCE node spacings of the others (szego._resolved).  While a
    member is unsettled the whole group moves up one rung, its values
    becoming the ones the next rung's are checked against, and the
    climb stops at 2048, twice _LADDER's top.  So an interior grid on a
    smooth domain usually settles on its first rung; curves that nearly
    touch, meshes adapted to a foot (whose tails understate the error
    more, see szego.TAIL_FACTOR) and rough boundaries settle on the
    finer rung of the first pair (n, 2n) that agrees; and a group
    settles on one rung, whose solver gives its curvatures.  A rung
    counts the outer curve's nodes; each hole is meshed at the outer
    spacing, so a holed domain's system is sized by its boundary's
    length, and a mesh adapted to a foot gives the foot's curve all the
    rung's nodes (see geometry.mesh).

    A batch settles in one loop, nearest point first, equal distances
    in the order of their feet (curve, then parameter), so the leads do
    not depend on the batch's order.  The nearest pending point leads,
    on the first mesh of the first mesh family it
    has not failed on that clears it (CLEARANCE local node spacings, see
    require_clearance): its uniform rung of _LADDER (the first below the
    top whose h_max keeps clearance), the first rung adapted to its
    nearest boundary point, its foot (mesh_boundary's foot), that keeps
    clearance, or the uniform top rung.  Its group is every pending point
    that first mesh clears and that has not failed on that family, in
    the batch's order; the group climbs once, and its curvatures come
    from the solver of the rung that settles it.  A member failing at
    the top stays pending with that family refused; a lead with no
    family left is dropped, and once the rest have settled the first
    such lead's error is raised.
    Uniform meshes and solvers are cached per node count for the
    evaluator's life (a solver turns from MINRES to one LU once its mesh
    has served, or is about to serve, enough solves), so a later batch,
    or the pointwise retry of a failed one, assembles none of them again.
    An adapted solver lives only while its group needs it: a climbing
    group drops each rung's solver before it builds the next one's, and
    the last one goes once the group's curvatures are taken, before the
    next lead builds its meshes.  So at most one adapted solver is alive,
    besides the cached uniform ones.

    Uniform climbs start at _LADDER's 256-node rung.  Adapted climbs
    start there too on smooth boundaries, where the trapezoid rule
    through the foot's Mobius map stays spectrally accurate; on rough
    ones (corners or C1 joins) the graded rule converges only
    algebraically, and a (256, 512) start can pass the 1e-5 check 1e-8
    away from the value the pairs above give, so they start one rung up,
    at 512.  Their densities' tails say nothing there, so rough
    boundaries settle by the pair alone.

    What settling keeps of a point is a _Settled record: its value, its
    curvature once asked for, the rung that settled it and its family.
    No boundary density or mesh outlives its solver, so a later batch
    reads the value off the record, and curvatures asked after values
    solve the point again on its settling mesh (see curvatures).
    """

    kind = "szego"
    _LADDER = (256, 512, 1024)

    def __init__(self, domain):
        super().__init__(domain)
        # corners, and even mere curvature jumps at C1 joins, cost the
        # Nystrom solve its spectral rate; ask only 1e-5 agreement there
        rough = any(not isinstance(c, TrigCurve) for c in domain.curves)
        self.tol = 1e-5 if rough else 1e-8
        self._smooth = not rough  # tails settle its uniform rungs
        self._foot_start = 512 if rough else 256  # see the class docstring
        self._meshes = {}
        self._solvers = {}
        self._settled = {}  # point -> its _Settled record

    def _mesh(self, n):
        if n not in self._meshes:
            self._meshes[n] = mesh_boundary(self.domain, n)
        return self._meshes[n]

    def _solver(self, n):
        if n not in self._solvers:
            self._solvers[n] = SzegoSolver(self._mesh(n))
        return self._solvers[n]

    def _settle(self, zs, kappa=False):
        """Settle the new points of zs (see the class docstring); with
        kappa, their records take their curvatures too.  A lead with no
        family left is dropped and the rest settle; then the first such
        lead's error is raised."""
        new = [z for z in dict.fromkeys(zs.tolist()) if z not in self._settled]
        feet = dict(zip(new, self.domain.feet(new)))
        refused = {z: set() for z in new}  # the families z failed on
        errors, unsettled = {}, []
        # nearest first, ties broken by the foot (curve, then parameter),
        # so the order of the batch does not choose the leads
        pending = sorted(new, key=lambda z: (feet[z][2],) + feet[z][:2])
        while pending:
            lead = pending[0]
            try:
                family, n1, mesh = self._lead(lead, feet[lead], refused[lead],
                                              errors.get(lead))
            except (GeometryError, SolveError) as exc:
                unsettled.append(exc)
                pending = pending[1:]
                continue
            clear = _clears(mesh, pending, [feet[z][2] for z in pending])
            members = {z for z, ok in zip(pending, clear)
                       if ok and family not in refused[z]}
            group = [z for z in new if z in members]
            solver = self._solver if family is None else (
                lambda n: SzegoSolver(mesh if n == n1 else
                                      mesh_boundary(self.domain, n, family)))
            n, fine, values, nus, failed = self._climb(
                group, n1, solver, self._smooth and family is None)
            for z in failed:
                refused[z].add(family)
            errors.update(failed)
            ok = np.array([z not in failed for z in group])
            passed = [z for z in group if z not in failed]
            kappas = (fine.kappa(passed, nus[ok]).tolist() if kappa
                      else [None] * len(passed))
            self._settled.update(
                (z, _Settled(v, k, n, family))
                for z, v, k in zip(passed, values[ok].tolist(), kappas))
            # the densities, and an adapted solver, go before the next
            # lead's meshes
            del fine, nus
            pending = [z for z in pending if z not in self._settled]
        if unsettled:
            raise unsettled[0]

    def _lead(self, z, foot, refused, error):
        """(family, n1, mesh): the first mesh z leads its group on, of the
        first family it has not refused whose mesh clears it: its uniform
        rung (the first of _LADDER below the top whose h_max keeps
        CLEARANCE at its distance), the first rung from _foot_start up
        adapted to its foot, the uniform top rung.  A family is the foot
        its meshes are adapted to, None for the uniform one.  When none is
        left, raises the last error z met: error, from a failed climb, or
        a refusal of clearance here."""
        n = next((n for n in self._LADDER[:-1]
                  if CLEARANCE * self._mesh(n).h_max < foot[2]), None)
        if n is not None and None not in refused:
            return None, n, self._mesh(n)
        if foot not in refused:
            for n1 in (n for n in self._LADDER if n >= self._foot_start):
                mesh = mesh_boundary(self.domain, n1, foot)
                try:
                    require_clearance(mesh, z, foot[2])
                    return foot, n1, mesh
                except GeometryError as exc:
                    error = exc
        mesh = self._mesh(self._LADDER[-1])
        if None not in refused and CLEARANCE * mesh.h_max < foot[2]:
            return None, self._LADDER[-1], mesh
        raise error

    def _climb(self, zs, n, solver, by_tail):
        """Settle the points zs on the first rung from n up to twice the
        top of _LADDER that settles them all; solver(n) gives the solver
        of the n-node mesh.  A rung settles a point whose value agrees
        with the rung below's within tol or, with by_tail, whose row the
        rung resolves alone (see szego._resolved).  Returns (n,
        fine, values, nus, failed): the rung n and its solver, the metric
        2 pi S(a, a) of each point of zs on it and the rows nu its solve
        gave them (see SzegoSolver.solve), and a SolveError by point for
        each that the top rung does not settle."""
        coarse = np.nan  # no rung below, so no value agrees with it
        while True:
            fine = solver(n)
            s, nus = fine.solve(zs)
            values = 2.0 * np.pi * s
            rels = np.abs(values - coarse) / np.abs(values)
            ok = rels <= self.tol
            if by_tail:
                ok |= _resolved(fine.mesh, nus, self.tol)
            if ok.all() or n >= 2 * self._LADDER[-1]:
                break
            n, coarse = 2 * n, values  # the whole group climbs
            del fine, nus  # an adapted solver goes before the next rung
        failed = {z: SolveError(
            "szego value did not settle at %s: n=%d vs %d changed by "
            "%.3g (tol %.1g)" % (z, n // 2, n, rel, self.tol))
            for z, rel, good in zip(zs, rels, ok) if not good}
        return n, fine, values, nus, failed

    def values(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        self._settle(zs)
        return np.array([self._settled[z].value for z in zs.tolist()],
                        dtype=float)

    def curvatures(self, zs):
        """SzegoSolver.kappa of each point, kept in its record, so a
        point's curvature is computed once.  The points settled during
        the call take it from their group's settling solver, in one block.
        A point settled earlier without it is solved again on its
        settling mesh, one block per (family, n), on the cached uniform
        solver or on a rebuilt adapted one, then takes its derivative
        solve there."""
        zs = np.asarray(zs, dtype=complex).ravel()
        self._settle(zs, kappa=True)
        blocks = {}  # (family, n) -> its distinct points with no kappa
        for z in dict.fromkeys(zs.tolist()):
            rec = self._settled[z]
            if rec.kappa is None:
                blocks.setdefault((rec.family, rec.n), []).append(z)
        for (family, n), block in blocks.items():
            solver = self._solver(n) if family is None else SzegoSolver(
                mesh_boundary(self.domain, n, family))
            kappas = solver.kappa(block, solver.solve(block)[1]).tolist()
            for z, k in zip(block, kappas):
                self._settled[z].kappa = k
            del solver  # an adapted one goes before the next is built
        return np.array([self._settled[z].kappa for z in zs.tolist()],
                        dtype=float)


class _Settled:
    """What SzegoEvaluator keeps of a settled point: value, the metric
    2 pi S(a, a); kappa, its curvature, None until asked for; n, the
    rung that settled it; family, None for the uniform ladder, else the
    foot its meshes are adapted to."""

    __slots__ = ("value", "kappa", "n", "family")

    def __init__(self, value, kappa, n, family):
        self.value, self.kappa, self.n, self.family = value, kappa, n, family


class LPEvaluator(_EvaluatorBase):
    """On-demand certificates: certified lower bounds on the metric.

    Not a metric authority, so evaluator_for never returns it; build it
    directly to check a closed-form or Szego value from below.  Each
    value is 2 pi sum_k |phi_k(z)|^2 over a basis orthonormal on the
    boundary, polynomials of degree <= degree plus as many powers of
    1/(z - p) per hole (see extremal.lp).  The basis depends only on the
    domain and the degree, so it is built once, here, and every later
    point and call reuses it.  The value rises with the degree.  At
    degree 24 it is 2.2e-5 below the Szego value on the Fourier blob at
    0.1, but points near the boundary or a corner fall further: 7.9% on
    the ellipse at 0.9j, 6.1% on the blob-disc union at 1+0j.
    A lower bound has no curvature, so curvatures raises.
    """

    kind = "lp"

    def __init__(self, domain, degree=24):
        super().__init__(domain)
        self.problem = ExtremalProblem(domain, degree)

    def values(self, zs):
        return lp_caratheodory_lower(self.problem, zs)

    def curvatures(self, zs):
        raise GeometryError(
            "LP certificates are lower bounds and carry no curvature")


def evaluator_for(domain):
    """Route a domain to its metric authority; the one place that does.

    Tagged discs and two-disc lenses and unions get their closed forms;
    every other domain, smooth or cornered (boolean results, offsets,
    annuli), gets the Szego solver, which grades its mesh at corners and
    climbs its mesh ladder where the doubling check asks for it.  To
    force the solve where a closed form exists, build SzegoEvaluator;
    certificates are not metric values: build an LPEvaluator for them.
    """
    tag = domain.primitive[0] if domain.primitive else None
    if tag == "disc":
        return ClosedFormDiscEvaluator(domain)
    if tag in ("lens", "two_disc_union"):
        return SectorPullbackEvaluator(domain)
    return SzegoEvaluator(domain)
