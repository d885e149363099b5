"""The benchmark's trace sites exist and are looked up at call time.

``perfbench/spans.py`` wraps functions and methods of the package where
the program looks them up by name (``mesh_boundary`` in both
``kernels.evaluators`` and ``extremal.lp``, each evaluator's own
``values``, ``reports._values_or_nan``, ...).  Deleting or renaming one of
them breaks the traced benchmark, so this checks the sites from the test
suite.  Nothing under ``perfbench/`` is changed.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from caratheodory.harness import ellipse, unit_disc  # noqa: E402
from caratheodory.kernels import LPEvaluator, SzegoEvaluator  # noqa: E402


def _current(owner, attr):
    # a class site must be the class's own attribute, as Tracer.install reads it
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


def test_every_trace_site_resolves():
    missing = [(owner, attr) for owner, attr, *_ in spans.PATCHES
               if _current(owner, attr) is None]
    assert missing == []


def test_tracer_install_and_uninstall_restore_every_site():
    before = [_current(o, a) for o, a, *_ in spans.PATCHES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [_current(o, a) for o, a, *_ in spans.PATCHES]
        assert all(d is not b for d, b in zip(during, before))
        # the program reaches the wrapped names, so the spans appear
        SzegoEvaluator(unit_disc()).value(0.2)
        LPEvaluator(unit_disc(), degree=3).value(0.2)
    finally:
        tracer.uninstall()
    after = [_current(o, a) for o, a, *_ in spans.PATCHES]
    assert all(x is y for x, y in zip(after, before))
    seen = {s.name for s in tracer.spans}
    assert {spans.MESH, spans.ASSEMBLY, spans.FACTOR, spans.SOLVE, spans.VALUES,
            spans.PROBLEM, spans.CERTIFICATE} <= seen
    # mesh_boundary is reached through both of its wrapped names
    by_id = {s.id: s for s in tracer.spans}
    mesh_parents = {by_id[s.parent].name for s in tracer.spans
                    if s.name == spans.MESH}
    assert {spans.VALUES, spans.PROBLEM} <= mesh_parents


def test_an_lp_evaluator_opens_one_problem_span():
    # the problem is built with the evaluator; a second batch only
    # evaluates its basis, so the trace table counts one problem
    tracer = spans.Tracer()
    with tracer:
        ev = LPEvaluator(unit_disc(), degree=3)
        ev.values([0.2, 0.3j])
        first = len(tracer.spans)
        ev.values([0.4])
    names = [s.name for s in tracer.spans]
    assert names[:first].count(spans.PROBLEM) == 1
    assert spans.CERTIFICATE in names[first:]
    assert spans.PROBLEM not in names[first:]


def test_adapted_meshes_are_traced_under_values():
    # meshes adapted to a point's foot are built through
    # evaluators.mesh_boundary, the name the tracer wraps
    tracer = spans.Tracer()
    with tracer:
        SzegoEvaluator(ellipse()).value(0.98j)
    by_id = {s.id: s for s in tracer.spans}
    nodes = [s.attrs["nodes"] for s in tracer.spans
             if s.name == spans.MESH and by_id[s.parent].name == spans.VALUES]
    # the cached uniform 256 and 512 rungs only measure clearance; 0.98j,
    # past the 512 rung's, settles on its adapted (256, 512) pair
    assert nodes == [256, 512, 256, 512]


class _ThreadTracer(spans.Tracer):
    """Tracer that also records the thread each span opens on."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def open(self, name):
        self.threads.append(threading.get_ident())
        return super().open(name)


def test_threaded_assembly_keeps_every_span_on_the_calling_thread():
    # the tracer keeps one span stack; a site reached on a worker thread
    # would take a wrong parent or close out of order
    tracer = _ThreadTracer()
    with tracer:
        # 0.9j settles on the (512, 1024) pair: assemblies of several tiles
        SzegoEvaluator(ellipse()).values([0.3, 0.9j])
    assert set(tracer.threads) == {threading.get_ident()}
    by_id = {s.id: s for s in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    assembled = [s for s in tracer.spans if s.name == spans.ASSEMBLY]
    assert assembled
    assert all(spans.VALUES in ancestors(s) for s in assembled)
