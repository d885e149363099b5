"""Spans around the public functions of each layer, from outside the program.

``Tracer.install`` replaces each function or method in ``PATCHES`` where
the program looks it up (``mesh_boundary`` is imported by name into
``kernels.evaluators`` and ``extremal.lp``, so both names are wrapped) with
a wrapper that records a span: name, start, end and parent.  Spans stay in
memory; ``uninstall`` puts every original back.  ``layer_metrics`` turns
the spans of one repetition into the per-layer metrics.

A span's self time is its duration minus the durations of its child
spans.  Children of one span run one after another (the program is
single-threaded), so their durations never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref

import numpy as np

import caratheodory
from caratheodory import curvature
from caratheodory.extremal import lp
from caratheodory.geometry.domain import Domain
from caratheodory.harness import reports
from caratheodory.kernels import closed_forms, evaluators, szego

# span names
ASSEMBLY = "kernels.szego.assembly"
FACTOR = "kernels.szego.factor"
SOLVE = "kernels.szego.solve"
VALUES = "kernels.evaluators.values"
CLOSED_FORM = "kernels.closed_forms"
CERTIFICATE = "extremal.lp.certificate"
PROBLEM = "extremal.lp.problem"
HIGHS = "extremal.lp.highs"
MESH = "geometry.mesh"
DIST = "geometry.domain.dist"
CONTAINS = "geometry.domain.contains"
GRID = "geometry.sampling.grid"
ESTIMATE = "curvature.estimate"
SCAN = "curvature.scan"
BOOLEAN = "geometry.boolean"
SUITE = "harness.reports.suite"
NAN_GUARD = "harness.reports.nan_guard"
ROOT = "bench.repetition"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, name, start, parent):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, **self.attrs}


def _factor_post(tracer, span, args, result):
    solver = args[0]
    n = solver.mesh.size
    span.attrs["n"] = n
    tracer.track_live(solver, 16 * n * n)


def _values_pre(tracer, span, args, kwargs):
    span.attrs["kind"] = args[0].kind
    span.attrs["points"] = int(np.asarray(args[1]).size)


def _nodes_post(tracer, span, args, result):
    span.attrs["nodes"] = int(result.size)


def _grid_post(tracer, span, args, result):
    span.attrs["points"] = len(result)


def _suite_post(tracer, span, args, result):
    span.attrs["dropped"] = int(getattr(result, "dropped", 0))


# (owner, attribute, span name, hook before the call, hook after it)
PATCHES = (
    (szego, "kerzman_stein_matrix", ASSEMBLY, None, None),
    (szego.SzegoSolver, "__init__", FACTOR, None, _factor_post),
    (szego.SzegoSolver, "solve", SOLVE, None, None),
    (evaluators.SzegoEvaluator, "values", VALUES, _values_pre, None),
    (evaluators.LPEvaluator, "values", VALUES, _values_pre, None),
    (evaluators.ClosedFormDiscEvaluator, "values", VALUES, _values_pre, None),
    (evaluators.AnnulusPoincareEvaluator, "values", VALUES, _values_pre,
     None),
    (evaluators.SectorPullbackEvaluator, "values", VALUES, _values_pre,
     None),
    (evaluators, "disc_metric", CLOSED_FORM, None, None),
    (evaluators, "annulus_metric", CLOSED_FORM, None, None),
    (closed_forms.SectorPullback, "__init__", CLOSED_FORM, None, None),
    (closed_forms.SectorPullback, "density", CLOSED_FORM, None, None),
    (evaluators, "lp_caratheodory_lower", CERTIFICATE, None, None),
    (lp.ExtremalProblem, "__init__", PROBLEM, None, None),
    (lp, "linprog", HIGHS, None, None),
    (evaluators, "mesh_boundary", MESH, None, _nodes_post),
    (lp, "mesh_boundary", MESH, None, _nodes_post),
    (Domain, "dist_to_boundary", DIST, None, None),
    (Domain, "contains_many", CONTAINS, None, None),
    (curvature, "grid_sample", GRID, None, _grid_post),
    (reports, "grid_sample", GRID, None, _grid_post),
    (curvature, "curvature_at", ESTIMATE, None, None),
    (reports, "curvature_at", ESTIMATE, None, None),
    (reports, "scan_curvature", SCAN, None, None),
    (reports, "boolean_intersect", BOOLEAN, None, None),
    (reports, "boolean_union", BOOLEAN, None, None),
    (reports, "disc_metric", CLOSED_FORM, None, None),
    (reports, "_values_or_nan", NAN_GUARD, None, None),
    (reports, "_kappa_or_nan", NAN_GUARD, None, None),
    (caratheodory, "verify_suita", SUITE, None, _suite_post),
    (caratheodory, "verify_submult", SUITE, None, _suite_post),
    (caratheodory, "localization_experiment", SUITE, None, _suite_post),
)


class Tracer:
    """In-memory span recorder that wraps the names in ``patches``."""

    def __init__(self, patches=PATCHES, clock=time.perf_counter):
        self.patches = patches
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError("span %s closed out of order" % span.name)

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def reset(self):
        """Drop recorded spans; live factorisations carry over."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.peak_live_bytes = self.live_bytes

    def track_live(self, obj, nbytes):
        self.live_bytes += nbytes
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        weakref.finalize(obj, self._release, nbytes)

    def _release(self, nbytes):
        self.live_bytes -= nbytes

    # -- patching ----------------------------------------------------------

    def _wrapper(self, original, name, pre, post):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if pre is not None:
                pre(tracer, span, args, kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                tracer.close(span)
            if post is not None:
                post(tracer, span, args, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, pre, post in self.patches:
                if isinstance(owner, type):
                    original = vars(owner)[attr]  # the function, unbound
                else:
                    original = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(original, name, pre, post))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- metrics -----------------------------------------------------------------

def self_times(spans):
    """Self time of each span, indexed like ``spans`` (ids are indices)."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _pct_ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, peak_live_bytes=0):
    """Per-layer metrics of one traced repetition.

    Times named ``*_s`` are inclusive span durations summed over calls,
    except ``factor_s`` (the factorisation without its assembly) and
    ``self_s``, which sum self times.  Counts are calls or items.
    """
    own = self_times(spans)
    by = {}
    for s, t in zip(spans, own):
        by.setdefault(s.name, []).append((s, t))

    def calls(name):
        return len(by.get(name, ()))

    def total(name):
        return sum(s.duration for s, _ in by.get(name, ()))

    def self_s(*names):
        return sum(t for n in names for _, t in by.get(n, ()))

    def attr_sum(name, key, pick=lambda s: True):
        return sum(s.attrs.get(key, 0) for s, _ in by.get(name, ()) if pick(s))

    # a factorisation that raised has no size
    factor_n = [s.attrs["n"] for s, _ in by.get(FACTOR, ()) if "n" in s.attrs]
    solve_d = [s.duration for s, _ in by.get(SOLVE, ())]
    values = [s for s, _ in by.get(VALUES, ())]
    szego_points = sum(s.attrs["points"] for s in values
                       if s.attrs["kind"] == "szego")
    certificates = calls(CERTIFICATE)
    m = {
        "kernels.szego.assembly_calls": calls(ASSEMBLY),
        "kernels.szego.assembly_s": total(ASSEMBLY),
        "kernels.szego.factor_calls": calls(FACTOR),
        "kernels.szego.factor_s": self_s(FACTOR),
        "kernels.szego.factor_n_max": max(factor_n, default=0),
        "kernels.szego.factor_gflop": sum(8.0 / 3.0 * n**3 for n in factor_n)
        / 1e9,
        "kernels.szego.factor_bytes": peak_live_bytes,
        "kernels.szego.solve_calls": len(solve_d),
        "kernels.szego.solve_s": sum(solve_d),
        "kernels.szego.solve_p50_ms": _pct_ms(solve_d, 50),
        "kernels.szego.solve_p99_ms": _pct_ms(solve_d, 99),
        "kernels.evaluators.values_calls": len(values),
        "kernels.evaluators.failed_calls": sum(
            1 for s in values if s.attrs.get("raised")),
        "kernels.evaluators.self_s": self_s(VALUES),
        "kernels.evaluators.szego_points": szego_points,
        "kernels.evaluators.lp_points": sum(
            s.attrs["points"] for s in values if s.attrs["kind"] == "lp"),
        "kernels.evaluators.closed_form_points": sum(
            s.attrs["points"] for s in values
            if s.attrs["kind"].startswith("closed_form")),
        "kernels.evaluators.solves_per_point": _ratio(len(solve_d),
                                                      szego_points),
        "kernels.closed_forms.self_s": self_s(CLOSED_FORM),
        "extremal.lp.certificates": certificates,
        "extremal.lp.certificate_s": total(CERTIFICATE),
        "extremal.lp.problem_s": total(PROBLEM),
        "extremal.lp.highs_calls": calls(HIGHS),
        "extremal.lp.highs_s": total(HIGHS),
        "extremal.lp.rounds_per_certificate": _ratio(calls(HIGHS),
                                                     certificates),
        "extremal.lp.failed": attr_sum(CERTIFICATE, "raised"),
        "geometry.mesh.calls": calls(MESH),
        "geometry.mesh.nodes": attr_sum(MESH, "nodes"),
        "geometry.mesh.self_s": self_s(MESH),
        "geometry.domain.dist_calls": calls(DIST),
        "geometry.domain.dist_s": total(DIST),
        "geometry.domain.contains_calls": calls(CONTAINS),
        "geometry.domain.contains_s": total(CONTAINS),
        "geometry.sampling.grid_calls": calls(GRID),
        "geometry.sampling.grid_points": attr_sum(GRID, "points"),
        "geometry.sampling.grid_s": total(GRID),
        "curvature.estimates": calls(ESTIMATE),
        "curvature.self_s": self_s(ESTIMATE, SCAN),
        "geometry.boolean.calls": calls(BOOLEAN),
        "geometry.boolean.self_s": self_s(BOOLEAN),
        "harness.reports.dropped": attr_sum(SUITE, "dropped"),
        "harness.reports.self_s": self_s(SUITE, NAN_GUARD),
    }
    roots = [(s, t) for s, t in zip(spans, own) if s.parent is None]
    m["trace.spans"] = len(spans)
    m["trace.root_s"] = sum(s.duration for s, _ in roots)
    m["trace.unattributed_s"] = sum(t for s, t in roots if s.name == ROOT)
    return m
