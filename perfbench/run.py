"""Benchmark of the caratheodory verification suites.

    python3 perfbench/run.py --workload suita_scan --seed 0 --seconds 15 \\
        --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout: its suite calls repeat, each time on freshly built domains,
until ``--seconds`` have passed and at least ``min_reps`` times (see
``workloads.py``).  Every output point is checked on every repetition.
The script prints each metric by name and unit, then, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median seconds of one repetition's suite calls;
* ``points_per_s``: median output points per second of ``wall_s``;
* ``setup_s``: median seconds, over three fresh interpreters, for
  interpreter start, ``import caratheodory`` and building the domains;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs one warm-up repetition, then alternates traced and
untraced ones, and reports the per-layer metrics of ``spans.py`` (medians
over the traced repetitions) with the tracing overhead, the median
traced minus the median untraced wall time; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Workload names and metric units come from ``BENCHMARK.json``.  BLAS and
OpenMP get as many threads as the process may use cores.  The exit status
is 1 when any point fails, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_RUNS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCH["end_to_end"] + BENCH["per_layer"]}

SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.make(sys.argv[3], int(sys.argv[4])).build()")


def nproc():
    return len(os.sched_getaffinity(0))


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                        name, str(seed)],
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def repeat(seconds, step, min_reps):
    """Call step(i) until seconds have passed and min_reps calls are done."""
    t0 = time.perf_counter()
    i = 0
    while i < min_reps or time.perf_counter() - t0 < seconds:
        step(i)
        i += 1


def run_plain(wl, seconds, outcome):
    from workloads import run_once

    setup = measure_setup(wl.name, wl.seed)
    walls, rates = [], []

    def step(_):
        dt, out = run_once(wl, time.perf_counter)
        outcome.add(out)
        walls.append(dt)
        rates.append(out.attempted / dt)

    repeat(seconds, step, wl.min_reps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": statistics.median(walls),
               "points_per_s": statistics.median(rates),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    counts = {"wall_s": len(walls), "points_per_s": len(rates),
              "setup_s": len(setup), "peak_rss_mb": 1}
    for name, value in metrics.items():
        print("%-14s %14.6f %-4s median of %d" % (
            name, value, UNITS[name], counts[name]))
    print("repetitions (s): %s" % " ".join("%.3f" % w for w in walls))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def run_traced(wl, seconds, outcome):
    import spans
    from workloads import run_once

    tracer = spans.Tracer()
    warmup, plain, traced, layers, recorded = [], [], [], [], []

    def step(i):
        if i == 0:
            # warm-up: the first repetition in a process pays for lazy
            # imports and fresh heap pages, which would count against
            # whichever side ran first
            dt, out = run_once(wl, time.perf_counter)
            warmup.append(dt)
        elif i % 2 == 0:
            dt, out = run_once(wl, time.perf_counter)
            plain.append(dt)
        else:
            tracer.reset()
            with tracer:
                dt, out = run_once(wl, time.perf_counter,
                                   lambda: tracer.span(spans.ROOT))
            traced.append(dt)
            layers.append(spans.layer_metrics(tracer.spans,
                                              tracer.peak_live_bytes))
            recorded.append(tracer.spans)
        outcome.add(out)

    repeat(seconds, step, 3)  # a warm-up, one traced, one untraced
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    metrics["trace.warmup_wall_s"] = warmup[0]

    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.jsonl" % (wl.name, wl.seed))
    with open(path, "w") as fh:
        for rep, rep_spans in enumerate(recorded):
            for s in rep_spans:
                fh.write(json.dumps({"rep": rep, **s.as_dict()}) + "\n")

    for name, value in metrics.items():
        print("%-40s %16.6f %s" % (name, value, UNITS[name]))
    print("after one warm-up, traced repetitions: %d, untraced: %d; root "
          "span covers %.4f of traced wall time; spans in %s" % (
              len(traced), len(plain),
              metrics["trace.root_s"] / metrics["trace.wall_s"],
              path.relative_to(ROOT)))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "caratheodory" / "__init__.py").is_file():
        print("perfbench: no package source under %s" % SRC, file=sys.stderr)
        return 2
    threads = nproc()
    for var in THREAD_VARS:  # read by the BLAS when numpy is imported
        os.environ[var] = str(threads)
    sys.path[:0] = [str(SRC), str(HERE)]
    import caratheodory
    import workloads

    if not Path(caratheodory.__file__).resolve().is_relative_to(SRC):
        print("perfbench: imported caratheodory from %s, not %s"
              % (caratheodory.__file__, SRC), file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    print("workload %s seed %d, trace %d: nproc %d, BLAS threads %d" % (
        wl.name, wl.seed, args.trace, threads, threads))
    wl.prepare()
    outcome = workloads.Outcome(0)
    if args.trace:
        metrics = run_traced(wl, args.seconds, outcome)
    else:
        metrics = run_plain(wl, args.seconds, outcome)
    for problem in outcome.problems:
        print("FAILED %s" % problem)
    print("failed_frac %.6f (%d of %d points)" % (
        outcome.failed / outcome.attempted, outcome.failed,
        outcome.attempted))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
