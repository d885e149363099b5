"""Tests of the benchmark itself: span arithmetic, unpatching, accounting.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test
run does not collect it.  The smoke runs use the reduced-size variant of
each workload (closed-form domains, fewer points), which takes about a
minute in all.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import caratheodory  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from caratheodory.errors import SolveError  # noqa: E402
from caratheodory.harness.reports import PairReport, SuitaReport  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: float(next(it))


# -- span arithmetic ---------------------------------------------------------

def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = spans.Tracer(patches=(), clock=_fake_clock(
        [0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span(spans.ROOT):
        with tracer.span(spans.FACTOR) as factor:
            factor.attrs["n"] = 1000
            with tracer.span(spans.ASSEMBLY):
                pass
        with tracer.span(spans.SOLVE):
            pass
    root, a, b, c = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]

    m = spans.layer_metrics(tracer.spans)
    assert m["kernels.szego.factor_s"] == 2.0  # self time, assembly excluded
    assert m["kernels.szego.factor_gflop"] == pytest.approx(8.0 / 3.0)
    assert m["kernels.szego.assembly_s"] == 1.0
    assert m["kernels.szego.solve_s"] == 4.0
    assert m["kernels.szego.solve_p50_ms"] == 4000.0
    assert m["trace.unattributed_s"] == 3.0
    # self times add up to the root span, which is the traced wall time
    assert sum(spans.self_times(tracer.spans)) == m["trace.root_s"] == 10.0


def test_spans_must_close_in_order():
    tracer = spans.Tracer(patches=(), clock=_fake_clock(range(10)))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- patching ----------------------------------------------------------------

def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner,
                                                                      attr)


def test_uninstall_restores_every_patched_attribute():
    before = [_current(o, a) for o, a, *_ in spans.PATCHES]
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            during = [_current(o, a) for o, a, *_ in spans.PATCHES]
            assert all(d is not b for d, b in zip(during, before))
            1 / 0
    after = [_current(o, a) for o, a, *_ in spans.PATCHES]
    assert all(x is y for x, y in zip(after, before))


def test_install_twice_is_refused_and_leaves_nothing_patched():
    before = [_current(o, a) for o, a, *_ in spans.PATCHES]
    tracer = spans.Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert all(_current(o, a) is b
               for (o, a, *_), b in zip(spans.PATCHES, before))


def test_traced_solver_call_records_layers():
    tracer = spans.Tracer()
    dom = caratheodory.harness.fourier_blob()
    with tracer:
        with tracer.span(spans.ROOT):
            caratheodory.SzegoEvaluator(dom).value(0.1)
    m = spans.layer_metrics(tracer.spans, tracer.peak_live_bytes)
    assert m["kernels.evaluators.szego_points"] == 1
    assert m["kernels.szego.solve_calls"] == 2  # the doubling check
    assert m["kernels.evaluators.solves_per_point"] == 2.0
    assert m["kernels.szego.factor_calls"] == m["kernels.szego.assembly_calls"]
    assert m["kernels.szego.factor_bytes"] >= 16 * 512**2
    assert m["geometry.domain.dist_calls"] >= 1
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(
        m["trace.root_s"])


# -- smoke runs and failure accounting ---------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_reduced_size_workload_passes_its_checks(name, seed):
    wl = workloads.make(name, seed, small=True)
    wl.prepare()
    total = workloads.Outcome(0)
    for _ in range(2):
        dt, out = workloads.run_once(wl, time.perf_counter)
        assert dt > 0.0
        total.add(out)
    assert total.problems == []
    assert total.failed == 0
    assert total.attempted == 2 * wl.points > 0


def test_seed_zero_builds_the_test_fixtures_bit_for_bit():
    blob = workloads.make("suita_scan", 0).build()
    assert np.array_equal(blob.outer.samples,
                          caratheodory.harness.fourier_blob().outer.samples)
    moved = workloads.make("suita_scan", 3).build()
    shift = moved.outer.samples - blob.outer.samples
    assert np.allclose(shift, shift[0]) and 0 < abs(shift[0]) < 0.1 * 2**0.5


def test_a_failed_check_fails_every_point_of_its_case(monkeypatch):
    wl = workloads.make("localization", 0, small=True)
    wl.prepare()
    monkeypatch.setattr(caratheodory, "localization_experiment",
                        lambda *a, **k: np.array([1.2, 1.1, 1.07]))
    _, out = workloads.run_once(wl, time.perf_counter)
    assert (out.attempted, out.failed) == (3, 3)
    assert "ratio 1.070000" in out.problems[0]


def test_a_suite_error_fails_every_point(monkeypatch):
    wl = workloads.make("suita_scan", 0, small=True)
    wl.prepare()

    def boom(*a, **k):
        raise SolveError("did not settle")

    monkeypatch.setattr(caratheodory, "verify_suita", boom)
    _, out = workloads.run_once(wl, time.perf_counter)
    assert out.attempted == out.failed == wl.points
    assert out.problems == ["SolveError: did not settle"]


def test_suita_check_uses_the_trend_tolerance(monkeypatch):
    wl = workloads.make("suita_scan", 0, small=True)
    wl.prepare()
    report = SuitaReport("d", 1e-3, -4.1, -4.0, (0.08, 0.04, 0.02),
                         (0.0, 0.0, 0.06), True, True)
    monkeypatch.setattr(caratheodory, "verify_suita", lambda *a, **k: report)
    _, out = workloads.run_once(wl, time.perf_counter)
    assert out.failed == wl.points


def test_product_rule_counts_dropped_rows_and_rerun_changes(monkeypatch):
    wl = workloads.make("product_rule", 0, small=True)
    wl.prepare()
    n = wl.points
    reports = iter([
        PairReport("a", "b", 0, None, None, 0.9, 8.0, 2**0.5, True,
                   rows=[(0.0, 0.0, 1, 1, 1, 1, 0.9)] * (n - 1), dropped=1),
        PairReport("a", "b", 0, None, None, 0.9, 8.0, 2**0.5, True,
                   rows=[(0.0, 0.0, 1, 1, 1, 1, 0.8)] * (n - 1), dropped=1),
    ])
    monkeypatch.setattr(caratheodory, "verify_submult",
                        lambda *a, **k: next(reports))
    _, first = workloads.run_once(wl, time.perf_counter)
    assert (first.attempted, first.failed) == (n, 1)
    _, second = workloads.run_once(wl, time.perf_counter)
    assert second.failed == n
    assert "rows differ" in second.problems[0]
