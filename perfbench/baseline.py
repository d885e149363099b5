"""Repeat the benchmark over seeds, check its spread, record a baseline.

    python3 perfbench/baseline.py --write

For every workload in ``BENCHMARK.json`` this runs ``run.py`` once per
seed 0-9 with tracing off, and once per seed 0 and 1 with tracing on, one
run at a time.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, and marks a spread at or above a third of the
metric's bound.  ``--write`` stores the results in ``baseline.json`` next
to this script, with the environment, the workloads' inputs and the
layer-to-end-to-end map below; names, units and directions of the
metrics, and each workload's "why", are in ``BENCHMARK.json``.  Exits 1
when a run fails or a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
TRACE_SEEDS = (0, 1)

# which end-to-end metric each group of per-layer metrics should move, on
# which workloads, and where it should not move anything; the LP's
# sup-check meshes are built inside product_rule's certificates
LAYER_MAP = (
    ("kernels.szego", ("assembly_calls", "assembly_s", "factor_calls",
                       "factor_s", "factor_n_max", "factor_gflop",
                       "factor_bytes"),
     {"wall_s": ("localization", "suita_scan"),
      "peak_rss_mb": ("localization", "suita_scan")}, ()),
    ("kernels.szego", ("solve_calls", "solve_s", "solve_p50_ms",
                       "solve_p99_ms"),
     {"points_per_s": ("suita_scan",)}, ("localization",)),
    ("kernels.evaluators", ("solves_per_point",),
     {"points_per_s": ("suita_scan",)}, ("localization",)),
    ("kernels.evaluators", ("values_calls", "failed_calls", "self_s",
                            "szego_points", "lp_points",
                            "closed_form_points"),
     {"wall_s": ("product_rule",)}, ()),
    ("extremal.lp", ("certificates", "certificate_s", "problem_s",
                     "highs_calls", "highs_s", "rounds_per_certificate",
                     "failed"),
     {"wall_s": ("product_rule",)}, ("suita_scan", "localization")),
    ("geometry.mesh", ("calls", "nodes", "self_s"),
     {"wall_s": ("product_rule",)}, ()),
    ("geometry.domain", ("dist_calls", "dist_s", "contains_calls",
                         "contains_s"),
     {"wall_s": ("suita_scan",)}, ()),
    ("geometry.sampling", ("grid_calls", "grid_points", "grid_s"),
     {"wall_s": ("suita_scan",)}, ()),
    ("curvature", ("estimates", "self_s"), {"wall_s": ("suita_scan",)}, ()),
    ("geometry.boolean", ("calls", "self_s"),
     {"wall_s": ("product_rule", "localization")}, ("suita_scan",)),
    ("kernels.closed_forms", ("self_s",), {}, ()),
    ("harness.reports", ("dropped", "self_s"), {}, ()),
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s failed at seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def environment():
    import numpy
    import scipy
    from scipy.optimize._highspy import _core

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": "%d.%d.%d" % (_core.HIGHS_VERSION_MAJOR,
                               _core.HIGHS_VERSION_MINOR,
                               _core.HIGHS_VERSION_PATCH),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the results in baseline.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    results, steady = {}, True
    for name in names:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print("%s seed %d: %s" % (name, seed, json.dumps(runs[-1])),
                  flush=True)
        e2e = {}
        for metric in bench["end_to_end"]:
            m = metric["name"]
            e2e[m] = spread([r[m] for r in runs])
            flag = ""
            if e2e[m]["spread"] >= metric["bound"] / 3:
                flag, steady = "  <-- spread reaches a third of the bound", \
                    False
            print("%-13s %-13s median %12.6f  q1 %12.6f  q3 %12.6f  spread "
                  "%.4f (bound %.2f)%s" % (
                      name, m, e2e[m]["median"], e2e[m]["q1"], e2e[m]["q3"],
                      e2e[m]["spread"], metric["bound"], flag), flush=True)
        traced = [run_once(name, seed, seconds, 1) for seed in TRACE_SEEDS]
        layers = {k: statistics.median(t[k] for t in traced)
                  for k in traced[0]}
        results[name] = {
            "seeds": list(SEEDS),
            "end_to_end": e2e,
            "trace_seeds": list(TRACE_SEEDS),
            "per_layer": layers,
        }

    if args.write:
        doc = {
            "environment": environment(),
            "run_seconds": seconds,
            "workloads": [workloads.make(n, 0).describe() for n in names],
            "layer_map": [{"layer": layer, "metrics": list(metrics),
                           "moves": {k: list(v) for k, v in moves.items()},
                           "should_not_move": list(stays)}
                          for layer, metrics, moves, stays in LAYER_MAP],
            "results": results,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
