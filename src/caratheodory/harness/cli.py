"""Command line front end for the verification suites.

Subcommands and their CSV columns:

  metric            re,im,value            (or plain values with --point)
  curvature         re,im,kappa
  suita             summary text only
  solynin           re,im,ratio
  submult           re,im,c_int,c_uni,c_d1,c_d2,ratio  (+ --svg heatmap)
  thicken-converge  eps,value
  localize          distance,ratio

Exit codes: 0 pass, 2 verification failure, 1 usage or geometry error.
All sampling is deterministic; --seed is accepted for interface
stability but nothing here draws random numbers.
"""

import argparse
import re
import sys

import numpy as np

from ..curvature import scan_curvature
from ..errors import ExtremalError, GeometryError, SolveError
from ..geometry import grid_sample
from ..kernels import evaluator_for
from .fixtures import load_domain_file, two_disc_pair
from .reports import (
    ASYMPTOTIC_RTOL,
    converge_thickening,
    localization_experiment,
    verify_solynin_two_discs,
    verify_submult,
    verify_suita,
    write_csv,
)
from .svg import svg_heatmap


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse takes a token that starts with "-" for a flag unless it is
    # a plain decimal, so "--point -0.3+0.2j" or "--tol -1e-3" would lose
    # their values; no flag here is a dash and a digit, a point, inf or
    # nan, so every such token is a value
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    # argparse wants to sys.exit(2) on bad flags; route that to exit 1
    def error(self, message):
        raise _Usage(message)


def _cx(s):
    if "," in s:
        re, im = s.split(",", 1)
        return complex(float(re), float(im))
    return complex(s)


def _floats(s):
    return [float(tok) for tok in s.split(",") if tok]


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _dump(path, header, rows):
    fh, close = _open_out(path)
    try:
        write_csv(fh, header, rows)
    finally:
        if close:
            fh.close()


def _cmd_metric(args):
    dom = load_domain_file(args.domain)
    ev = evaluator_for(dom)
    if args.point:
        for z in args.point:
            print("%.6f" % ev.value(z))
        return 0
    pts = grid_sample(dom, args.delta, args.spacing)
    vals = ev.values(pts)
    _dump(args.out, ("re", "im", "value"),
          [(z.real, z.imag, v) for z, v in zip(pts, vals)])
    return 0


def _cmd_curvature(args):
    dom = load_domain_file(args.domain)
    spacing = args.delta if args.spacing is None else args.spacing
    scan = scan_curvature(dom, evaluator_for(dom), args.delta, spacing)
    _dump(args.out, ("re", "im", "kappa"),
          [(z.real, z.imag, k) for z, k in zip(scan.grid, scan.kappas)])
    print("kappa in [%.6f, %.6f] over %d points"
          % (scan.kappa_min, scan.kappa_max, len(scan.grid)))
    return 0


def _cmd_suita(args):
    dom = load_domain_file(args.domain)
    rep = verify_suita(dom, delta=args.delta, tol=args.tol,
                       spacing=args.spacing)
    print("kappa in [%.6f, %.6f], bound -4 + %g: %s"
          % (rep.kappa_min, rep.kappa_max, rep.tol,
             "pass" if rep.passed else "FAIL"))
    for d, v in zip(rep.trend_distances, rep.trend_values):
        print("boundary trend d=%g |kappa+4|=%.3g" % (d, v))
    return 0 if rep.passed else 2


def _cmd_solynin(args):
    if args.nested:
        d1, d2 = two_disc_pair("nested")
    else:
        if not (args.d1 and args.d2):
            raise _Usage("need --d1 and --d2, or --nested")
        d1, d2 = load_domain_file(args.d1), load_domain_file(args.d2)
    rep = verify_solynin_two_discs(d1, d2, delta=args.delta,
                                   spacing=args.spacing)
    if args.out:
        _dump(args.out, ("re", "im", "ratio"),
              [(z.real, z.imag, r) for z, r in zip(rep.grid, rep.ratios)])
    print("max ratio %.12g over %d points (%s): %s"
          % (rep.max_ratio, rep.grid.size,
             "nested" if rep.nested else "crossing",
             "pass" if rep.passed else "FAIL"))
    return 0 if rep.passed else 2


def _cmd_submult(args):
    d1, d2 = load_domain_file(args.d1), load_domain_file(args.d2)
    rep = verify_submult(d1, d2, delta=args.delta, spacing=args.spacing)
    if args.out:
        _dump(args.out, ("re", "im", "c_int", "c_uni", "c_d1", "c_d2",
                         "ratio"), rep.rows)
    if args.svg:
        pts = np.array([complex(r[0], r[1]) for r in rep.rows])
        vals = np.array([r[6] for r in rep.rows])
        with open(args.svg, "w") as fh:
            fh.write(svg_heatmap(
                pts, vals, (d1, d2), args.spacing,
                title="ratio c_int*c_uni / (c_d1*c_d2)"))
    print("max_ratio %.6f  C_hat %.6f  bound %.6f  dropped %d: %s"
          % (rep.max_ratio, rep.C_hat, rep.bound, rep.dropped,
             "pass" if rep.passed else "FAIL"))
    return 0 if rep.passed else 2


def _cmd_thicken(args):
    dom = load_domain_file(args.domain)
    rep = converge_thickening(dom, args.point, args.eps)
    if args.out:
        _dump(args.out, ("eps", "value"), list(zip(rep.eps_list, rep.values)))
    for e, v in zip(rep.eps_list, rep.values):
        print("eps=%g value=%.8f" % (e, v))
    print("limit %.8f, gap at smallest eps %.4f%%, %s"
          % (rep.limit_value, 100.0 * rep.rel_gap_at_min_eps,
             "strictly increasing" if rep.monotone else "NOT monotone"))
    ok = rep.monotone
    if args.gap_tol is not None:
        ok = ok and rep.rel_gap_at_min_eps <= args.gap_tol
    return 0 if ok else 2


def _cmd_localize(args):
    dom = load_domain_file(args.domain)
    ratios = localization_experiment(dom, args.t, args.radius,
                                     args.distances)
    if args.out:
        _dump(args.out, ("distance", "ratio"),
              list(zip(args.distances, ratios)))
    for d, r in zip(args.distances, ratios):
        print("d=%g ratio=%.6f" % (d, r))
    final = abs(ratios[-1] - 1.0)
    if final > ASYMPTOTIC_RTOL:
        print("note: smallest distance is not in the asymptotic regime")
    return 0 if final <= args.rtol else 2


def _check_flags(args):
    """Refuse, before any geometry is built, a tolerance that is not
    finite and nonnegative, and a --delta that stands in for a missing
    --spacing but is no spacing."""
    for name in ("tol", "rtol", "gap_tol"):
        x = getattr(args, name, None)
        if x is not None and not 0 <= x < np.inf:  # nan fails too
            raise _Usage("--%s must be nonnegative and finite, got %s"
                         % (name.replace("_", "-"), x))
    if "spacing" in args and args.spacing is None \
            and not 0 < args.delta < np.inf:
        raise _Usage("--delta is the spacing when --spacing is not given, "
                     "so it must be positive and finite, got %s"
                     % args.delta)


def _build_parser():
    top = _Parser(prog="caratheodory",
                  description="metric and curvature verification suites")
    top.add_argument("--seed", type=int, default=0,
                     help="accepted for reproducibility; sampling is "
                          "deterministic")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="metric values at points or on a grid")
    p.add_argument("--domain", required=True)
    p.add_argument("--point", type=_cx, action="append")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--spacing", type=float, default=0.2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("curvature", help="curvature scan over a grid")
    p.add_argument("--domain", required=True)
    p.add_argument("--delta", type=float, default=0.15)
    p.add_argument("--spacing", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("suita", help="curvature upper bound scan")
    p.add_argument("--domain", required=True)
    p.add_argument("--delta", type=float, default=0.15)
    p.add_argument("--spacing", type=float)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_suita)

    p = sub.add_parser("solynin", help="two-disc Poincare product baseline")
    p.add_argument("--d1")
    p.add_argument("--d2")
    p.add_argument("--nested", action="store_true",
                   help="use the nested preset pair")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--spacing", type=float, default=0.06)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solynin)

    p = sub.add_parser("submult", help="submultiplicativity sweep on a pair")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--spacing", type=float, default=0.12)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_submult)

    p = sub.add_parser("thicken-converge",
                       help="metric of the eps-grown domain vs its limit")
    p.add_argument("--domain", required=True)
    p.add_argument("--point", type=_cx, required=True)
    p.add_argument("--eps", type=_floats, required=True,
                   help="comma list, strictly decreasing")
    p.add_argument("--gap-tol", type=float, dest="gap_tol")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thicken)

    p = sub.add_parser("localize", help="boundary localization ratios")
    p.add_argument("--domain", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--distances", type=_floats,
                   default=[0.1, 0.05, 0.02])
    p.add_argument("--rtol", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_localize)

    return top


def run_cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except _Usage as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (GeometryError, SolveError, ExtremalError, OSError,
            ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
