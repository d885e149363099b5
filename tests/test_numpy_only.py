"""The package imports and runs on numpy alone: no scipy module loads,
and it starts no thread of its own.

scipy stays a test dependency (the tests compare against its
minimize_scalar and special functions), so the check runs in a fresh
interpreter that imports only the package.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import contextlib, io, json, sys, threading
sys.path.insert(0, sys.argv[1])
import caratheodory
from caratheodory import boolean_intersect, evaluator_for
from caratheodory.geometry import domain
from caratheodory.harness import cli, disc, ellipse, fourier_blob
from caratheodory.kernels import LPEvaluator, SzegoEvaluator

sys.argv = ["caratheodory", "--help"]  # the console script's entry point
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main()
    except SystemExit as exc:
        assert exc.code == 0, exc.code

blob = SzegoEvaluator(fourier_blob())
value, kappa = blob.value(0.1), blob.curvatures([0.1])[0]

polished = []
real = domain._bisect_feet
domain._bisect_feet = lambda *args: polished.extend(args[1]) or real(*args)
piece = boolean_intersect(disc(ellipse().outer.point(0.25), 0.5), ellipse())[0]
corner = piece.outer.point(piece.outer.corner_params[0])
outside = piece.contains(corner - 1e-3)  # its foot is the corner itself
piece_value = evaluator_for(piece).value(0.9j)

bound = LPEvaluator(fourier_blob(), degree=3).value(0.1)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "futures": "concurrent.futures" in sys.modules,
    "threads": threading.active_count(),
    "values": [value, kappa, piece_value, bound],
    "outside": outside,
    "polished": len(polished),
}))
"""


def test_the_package_loads_no_scipy_module():
    run = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=300,
                         check=True)
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["scipy"] == []
    # every value above ran on the calling thread alone
    assert out["futures"] is False and out["threads"] == 1
    value, kappa, piece_value, bound = out["values"]
    assert value > 0 and abs(kappa + 4.0) < 1e-10
    assert piece_value > 0 and 0 < bound <= value
    # the corner foot took the bisection
    assert out["outside"] is False and out["polished"] >= 1
