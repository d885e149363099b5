"""Seeded inputs, suite calls and correctness checks of the workloads.

A workload draws its inputs from a seed once, then each repetition
rebuilds its input domains (curves cache their polylines, so a reused
domain would make later repetitions cheaper than a user's first call),
runs its suite calls through the public ``caratheodory`` API, and checks
every output point with the tolerances the repository's tests use.

Seed 0 gives the test fixtures unchanged.  Other seeds translate every
input domain by an offset drawn inside one lattice cell: the metric is
translation invariant, so each reference still holds.  ``product_rule``
translates by a whole lattice vector instead (see its class).

An output point is a grid row or a localization distance.
A point fails when the suite drops it or raises on it, or when it fails
its check.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

import caratheodory
from caratheodory.errors import ExtremalError, GeometryError, SolveError
from caratheodory.geometry.curves import TrigCurve
from caratheodory.harness import fixtures
from caratheodory.harness.reports import TREND_DISTANCES, write_csv

# what a suite call may raise on a bad point; anything else is a bug in
# the benchmark or the program and stops the run
SUITE_ERRORS = (ExtremalError, GeometryError, SolveError)

CSV_HEADER = ("re", "im", "c_int", "c_uni", "c_d1", "c_d2", "ratio")


class Outcome:
    """Output points of one repetition and the reasons any of them failed."""

    def __init__(self, attempted, failed=0, problems=()):
        self.attempted = int(attempted)
        self.failed = int(failed)
        self.problems = list(problems)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def translated(domain, offset):
    """The domain moved by a complex offset; offset 0 returns it as is."""
    if offset == 0:
        return domain
    # a translate of a valid curve is valid; checking it again would make
    # set-up dearer on every seed but 0
    curves = [TrigCurve(c.samples + offset, validate=False)
              for c in domain.curves]
    primitive = domain.primitive
    if primitive is not None:
        tag, params = primitive
        if tag not in ("disc", "annulus"):
            raise ValueError("cannot translate a %r primitive" % tag)
        primitive = (tag, (params[0] + offset,) + tuple(params[1:]))
    return caratheodory.Domain(curves[0], curves[1:], label=domain.label,
                               primitive=primitive)


def _cell_offset(rng, cell):
    if rng is None:
        return 0.0
    return cell * complex(rng.uniform(), rng.uniform())


class Workload:
    """One named set of inputs.

    ``prepare`` computes what the checks compare against, outside the
    timed region; ``build`` makes fresh domains; ``run`` is the timed suite
    call; ``check`` turns its output into an ``Outcome``.
    """

    name = None
    inputs = None
    min_reps = 2

    def __init__(self, seed, small=False):
        self.seed = int(seed)
        self.small = bool(small)
        self.rng = None if self.seed == 0 else np.random.default_rng(self.seed)

    def prepare(self):
        pass

    def build(self):
        raise NotImplementedError

    def run(self, domains):
        raise NotImplementedError

    def check(self, output):
        raise NotImplementedError

    def describe(self):
        return {"name": self.name, "inputs": self.inputs}


class SuitaScan(Workload):
    name = "suita_scan"
    inputs = ("verify_suita(fourier_blob(), 0.15, spacing=0.1), the blob "
              "translated inside one 0.1 lattice cell for seeds other than 0")

    delta = 0.15
    # the first repetition in a process is often the slowest by a second
    # (lazy imports, fresh heap pages); a median of three leaves it out
    min_reps = 3

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        # the small variant swaps in the closed-form disc for smoke tests
        self.spacing = 0.3 if small else 0.1
        self.offset = _cell_offset(self.rng, self.spacing)

    def build(self):
        dom = fixtures.unit_disc() if self.small else fixtures.fourier_blob()
        return translated(dom, self.offset)

    def prepare(self):
        grid = caratheodory.grid_sample(self.build(), self.delta, self.spacing)
        self.points = len(grid) + len(TREND_DISTANCES)

    def run(self, domain):
        return caratheodory.verify_suita(domain, self.delta,
                                         spacing=self.spacing)

    def check(self, report):
        problems = []
        if not report.passed:
            problems.append("kappa_max %.6f above -4 + %g"
                            % (report.kappa_max, report.tol))
        if not report.trend_values[-1] <= 0.05:
            problems.append("|kappa + 4| = %.3g at distance %g"
                            % (report.trend_values[-1],
                               report.trend_distances[-1]))
        return Outcome(self.points, self.points if problems else 0, problems)


class ProductRule(Workload):
    name = "product_rule"
    inputs = ("verify_submult(*blob_disc_pair(), spacing=0.5), one "
              "intersection grid point, translated by a lattice vector "
              "for seeds other than 0")

    delta = 0.1
    # HiGHS is most of a repetition, and its speed on a shared 2-core
    # machine varies by about 10% from one repetition to the next, more
    # than the Szego-bound workloads' does; a median over four tames it
    min_reps = 4

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.spacing = 0.3 if small else 0.5
        # each intersection point costs two certificates (about 13 s), so
        # a sub-cell offset, which changes the number of grid points, would
        # change the work several-fold; a whole lattice vector keeps it
        self.offset = 0.0
        if self.rng is not None:
            i, j = self.rng.integers(-2, 3, size=2)
            self.offset = self.spacing * complex(i, j)
        self.first_csv = None

    def build(self):
        if self.small:
            pair = fixtures.two_disc_pair("symmetric")
        else:
            pair = fixtures.blob_disc_pair()
        return tuple(translated(d, self.offset) for d in pair)

    def prepare(self):
        d1, d2 = self.build()
        self.points = sum(len(caratheodory.grid_sample(c, self.delta,
                                                       self.spacing))
                          for c in caratheodory.boolean_intersect(d1, d2))

    def run(self, domains):
        return caratheodory.verify_submult(*domains, delta=self.delta,
                                           spacing=self.spacing)

    def check(self, report):
        buf = io.StringIO()
        write_csv(buf, CSV_HEADER, report.rows)
        if self.first_csv is None:
            self.first_csv = buf.getvalue()
        problems = []
        if not report.passed:
            problems.append("max ratio %.6f exceeds %.6f + 2%%"
                            % (report.max_ratio, report.bound))
        if buf.getvalue() != self.first_csv:
            problems.append("rows differ from the first repetition's")
        if len(report.rows) + report.dropped != self.points:
            problems.append("%d rows and %d dropped, expected %d points"
                            % (len(report.rows), report.dropped, self.points))
        failed = self.points if problems else report.dropped
        return Outcome(self.points, failed, problems)


class Localization(Workload):
    name = "localization"
    inputs = ("localization_experiment on ellipse() at t=0.25 and unit_disc() "
              "at t=0, radius 0.5, distances [0.1, 0.05, 0.02], both "
              "translated inside one 0.1 cell for seeds other than 0")

    radius = 0.5
    distances = (0.1, 0.05, 0.02)

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.offset = _cell_offset(self.rng, 0.1)
        self.cases = ((fixtures.unit_disc, 0.0),) if small else \
            ((fixtures.ellipse, 0.25), (fixtures.unit_disc, 0.0))
        self.points = len(self.cases) * len(self.distances)

    def build(self):
        return [(translated(make(), self.offset), t) for make, t in self.cases]

    def run(self, cases):
        out = []
        for dom, t in cases:
            try:
                out.append((dom.label, caratheodory.localization_experiment(
                    dom, t, self.radius, list(self.distances))))
            except SUITE_ERRORS as exc:
                out.append((dom.label, exc))
        return out

    def check(self, output):
        total = Outcome(0)
        n = len(self.distances)
        for label, ratios in output:
            if isinstance(ratios, Exception):
                total.add(Outcome(n, n, ["%s: %s" % (label, ratios)]))
            elif not abs(ratios[-1] - 1.0) <= 0.05:
                total.add(Outcome(n, n, ["%s: ratio %.6f at distance %g"
                                         % (label, ratios[-1],
                                            self.distances[-1])]))
            else:
                total.add(Outcome(n))
        return total


WORKLOADS = {w.name: w for w in (SuitaScan, ProductRule, Localization)}


def make(name, seed, small=False):
    return WORKLOADS[name](seed, small)


def run_once(workload, clock, region=contextlib.nullcontext):
    """One repetition: fresh domains, the timed suite call, the check.

    ``region`` is entered around the timed call only (the traced run
    opens its root span there).  Returns (seconds, Outcome); a suite
    error fails every point.
    """
    domains = workload.build()
    with region():
        t0 = clock()
        try:
            output = workload.run(domains)
        except SUITE_ERRORS as exc:
            output = exc
        dt = clock() - t0
    if isinstance(output, Exception):
        n = workload.points
        return dt, Outcome(n, n, ["%s: %s" % (type(output).__name__, output)])
    return dt, workload.check(output)
