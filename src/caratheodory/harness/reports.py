"""Verification suites behind the CLI.

Each verify_* routine runs one experiment end to end: build a grid with
interior clearance, take each domain's metric authority from
evaluator_for (the closed form where one exists, the Szego solve
everywhere else), evaluate the inequality under test, and return a small
report object with the numbers and a pass flag.  Nothing here plots; the
CLI dumps reports as CSV/SVG.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

# curvature_at is not called here; the benchmark's trace table wraps it
from ..curvature import curvature_at, scan_curvature  # noqa: F401
from ..errors import ExtremalError, GeometryError, SolveError
from ..geometry import (
    boolean_intersect, boolean_union, curve_eval, grid_sample, thicken)
# disc_metric is not called here; the benchmark's trace table wraps it
from ..kernels import disc_metric, evaluator_for  # noqa: F401
from .fixtures import disc

log = logging.getLogger(__name__)

# distances marched toward the boundary for the kappa -> -4 trend
TREND_DISTANCES = (0.08, 0.04, 0.02)

# on domains where kappa is identically -4 the trend values are rounding
# noise (measured up to 4e-14 on the ellipse and the blob), so
# "decreasing" is only checked up to this floor
KAPPA_NOISE = 1e-9

# relative slack verify_submult allows over its bound sqrt(C_hat/4)
SUBMULT_TOL_REL = 0.02

# a localization ratio this far from 1 at the smallest distance is not
# yet in the asymptotic regime
ASYMPTOTIC_RTOL = 0.2


@dataclass
class PairReport:
    """Outcome of one submultiplicativity sweep over a domain pair."""

    d1_label: str
    d2_label: str
    component_id: int
    grid: np.ndarray
    ratio_values: np.ndarray
    max_ratio: float
    C_hat: float
    bound: float
    passed: bool
    rows: list = field(repr=False, default_factory=list)
    dropped: int = 0


@dataclass
class ConvergenceReport:
    point: complex
    eps_list: tuple
    values: tuple
    limit_value: float
    monotone: bool
    rel_gap_at_min_eps: float


@dataclass
class SuitaReport:
    domain_label: str
    tol: float
    kappa_min: float
    kappa_max: float
    trend_distances: tuple
    trend_values: tuple
    trend_ok: bool
    passed: bool


@dataclass
class SolyninReport:
    d1_label: str
    d2_label: str
    nested: bool
    grid: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    passed: bool
    rows: list = field(repr=False, default_factory=list)


def _disc_params(domain):
    if not domain.primitive or domain.primitive[0] != "disc":
        raise GeometryError("need a disc-tagged domain, got %r" % (domain.label,))
    return domain.primitive[1]


def verify_suita(domain, delta=0.15, tol=1e-3, spacing=None):
    """Scan the curvature bound kappa <= -4 + tol over an interior grid.

    Also walks a boundary point inward through TREND_DISTANCES and
    records |kappa + 4| there, from one curvatures batch; trend_ok says
    whether those values are nonincreasing up to the rounding floor
    KAPPA_NOISE.  Pass/fail is decided by the grid scan alone.
    """
    for c in domain.curves:
        if c.corner_params:
            raise GeometryError("curvature scan needs a smooth domain")
    if spacing is None:
        if not 0 < delta < np.inf:  # nan fails too
            raise GeometryError(
                "delta is the spacing when no spacing is given, so it must "
                "be positive and finite, got %s" % delta)
        spacing = delta
    ev = evaluator_for(domain)
    scan = scan_curvature(domain, ev, delta, spacing)

    p = domain.outer.point(0.0)
    nrm = -curve_eval(domain.outer, 0.0).normal
    kappas = ev.curvatures([p + d * nrm for d in TREND_DISTANCES])
    trend = [abs(float(k) + 4.0) for k in kappas]
    trend_ok = all(
        trend[i + 1] <= trend[i] + KAPPA_NOISE for i in range(len(trend) - 1))

    return SuitaReport(
        domain_label=domain.label,
        tol=tol,
        kappa_min=scan.kappa_min,
        kappa_max=scan.kappa_max,
        trend_distances=TREND_DISTANCES,
        trend_values=tuple(trend),
        trend_ok=trend_ok,
        passed=bool(scan.kappa_max <= -4.0 + tol),
    )


def verify_solynin_two_discs(disc1, disc2, delta=0.05, spacing=0.06):
    """Poincare-metric product inequality for a pair of round discs.

    The product sweep of verify_submult, whose routing gives all four
    densities from closed forms, so this is the analytic baseline:
    crossing discs must give max ratio < 1 strictly, nested discs give
    ratio identically 1.  Grid and ratios run over every intersection
    component.
    """
    (c1, r1), (c2, r2) = _disc_params(disc1), _disc_params(disc2)
    nested = abs(c1 - c2) + min(r1, r2) <= max(r1, r2)

    comps = boolean_intersect(disc1, disc2)
    if not comps:
        raise GeometryError("discs do not overlap")
    parts, rows, _, _ = _product_sweep(disc1, disc2, comps, delta, spacing)
    if not parts:
        raise GeometryError("no grid points survive inside the intersection")
    grid = np.concatenate([pts for _, pts, _ in parts])
    rat = np.concatenate([r for _, _, r in parts])
    max_ratio = float(np.max(rat))
    if nested:
        passed = bool(np.max(np.abs(rat - 1.0)) <= 1e-10)
    else:
        passed = bool(max_ratio < 1.0)
    return SolyninReport(
        d1_label=disc1.label,
        d2_label=disc2.label,
        nested=nested,
        grid=grid,
        ratios=rat,
        max_ratio=max_ratio,
        passed=passed,
        rows=rows,
    )


def _or_nan(batch, pts, warning, *context):
    # batch fast path; on failure redo pointwise so one bad point only
    # costs itself, and log each point that fails alone
    try:
        return np.asarray(batch(pts), dtype=float)
    except (ExtremalError, GeometryError, SolveError):
        pass
    out = np.full(pts.size, np.nan)
    for i, z in enumerate(pts):
        try:
            out[i] = batch(pts[i:i + 1])[0]
        except (ExtremalError, GeometryError, SolveError) as exc:
            log.warning(warning, z, *context, exc)
    return out


def _values_or_nan(ev, pts):
    return _or_nan(ev.values, pts, "dropping %s from %r: %s", ev.kind)


def _kappa_or_nan(ev, pts):
    return _or_nan(ev.curvatures, pts, "dropping curvature at %s: %s")


def _product_sweep(D1, D2, comps, delta, spacing):
    """The ratio c_int * c_uni / (c_1 * c_2) over each component's grid.

    Every value and curvature comes from evaluator_for(domain).  Each
    component's grid is sampled first.  Then one evaluator at a time
    runs over the grids, component by component, and is dropped before
    the next is built, so only one domain's solvers are alive at once:
    each component's own, then the union's, D1's and D2's, the last two
    curvatures first, as in scan_curvature (a point settled at its foot
    takes kappa from the solver that settled it).  Returns (parts, rows,
    C_hat, dropped): parts holds (k, points, ratios) for each component
    k with a surviving point, rows the CSV rows in that order, and C_hat
    the sup of -(kappa_1 + kappa_2) over the surviving points.  A point
    where any evaluation fails is dropped with a warning and counted.
    """
    grids = [grid_sample(comp, delta, spacing) for comp in comps]
    c_int = [_values_or_nan(evaluator_for(comp), pts)
             for comp, pts in zip(comps, grids)]
    c_uni = _sweep(boolean_union(D1, D2), grids)
    k_1, c_1 = _sweep(D1, grids, kappa=True)
    k_2, c_2 = _sweep(D2, grids, kappa=True)

    C_hat = 0.0
    parts, rows = [], []
    dropped = 0
    for k, pts in enumerate(grids):
        cols = (c_int[k], c_uni[k], c_1[k], c_2[k], k_1[k], k_2[k])
        ok = np.logical_and.reduce([np.isfinite(col) for col in cols])
        dropped += int(np.count_nonzero(~ok))
        if not np.any(ok):
            continue
        C_hat = max(C_hat, float(np.max(-(k_1[k][ok] + k_2[k][ok]))))
        rat = c_int[k][ok] * c_uni[k][ok] / (c_1[k][ok] * c_2[k][ok])
        for z, a, b, u, v, r in zip(pts[ok], c_int[k][ok], c_uni[k][ok],
                                    c_1[k][ok], c_2[k][ok], rat):
            rows.append((z.real, z.imag, a, b, u, v, r))
        parts.append((k, pts[ok], rat))
    return parts, rows, C_hat, dropped


def _sweep(domain, grids, kappa=False):
    """The values of domain's metric authority on each grid, one batch
    per grid on one evaluator, which goes when this returns; with kappa,
    the pair (curvatures, values), each grid's curvatures asked first."""
    ev = evaluator_for(domain)
    if not kappa:
        return [_values_or_nan(ev, pts) for pts in grids]
    kappas, values = [], []
    for pts in grids:
        kappas.append(_kappa_or_nan(ev, pts))
        values.append(_values_or_nan(ev, pts))
    return kappas, values


def verify_submult(D1, D2, delta=0.1, spacing=0.12):
    """Test c_int * c_uni <= sqrt(C_hat/4) * c_1 * c_2 over a pair.

    Each domain's values and curvatures come from its metric authority,
    evaluator_for's.  Every component's grid is sampled first; then the
    domains are evaluated one at a time over all the grids, in the order
    each intersection component, the union, D1, D2, and only one
    evaluator, with its solvers, is alive at a time (see _product_sweep).
    C_hat is the empirical sup of -(kappa_1 + kappa_2)
    over the intersection grid.  The report keeps the component with the
    largest ratio (the first such), its ratio field and the resulting
    bound; it passes within a relative SUBMULT_TOL_REL (2%) of the bound.
    Points where any evaluation fails are dropped with a warning and
    counted.
    """
    comps = boolean_intersect(D1, D2)
    if not comps:
        raise GeometryError("domains do not intersect")
    parts, rows, C_hat, dropped = _product_sweep(D1, D2, comps, delta,
                                                 spacing)
    if not parts:
        raise GeometryError("every grid point failed to evaluate")
    comp_id, grid, rat = max(parts, key=lambda part: np.max(part[2]))
    max_ratio = float(np.max(rat))
    bound = float(np.sqrt(C_hat / 4.0))
    return PairReport(
        d1_label=D1.label,
        d2_label=D2.label,
        component_id=comp_id,
        grid=grid,
        ratio_values=rat,
        max_ratio=max_ratio,
        C_hat=C_hat,
        bound=bound,
        passed=bool(max_ratio <= bound * (1.0 + SUBMULT_TOL_REL)),
        rows=rows,
        dropped=dropped,
    )


def _decreasing(name, values):
    """values as floats, refused unless finite, positive and strictly
    decreasing."""
    xs = [float(x) for x in values]
    if not xs or not all(0 < x < np.inf for x in xs):  # nan fails too
        raise GeometryError("%s must be positive and finite" % name)
    if any(b >= a for a, b in zip(xs, xs[1:])):
        raise GeometryError("%s must be strictly decreasing" % name)
    return xs


def converge_thickening(U, p, eps_list):
    """Watch c of the eps-grown domain rise to c_U as eps shrinks.

    Growing the domain can only lower the metric, so the values must
    increase as eps decreases; the report records whether they do
    strictly, plus the relative gap left at the smallest eps.
    """
    eps = _decreasing("eps_list", eps_list)
    p = complex(p)
    if not U.contains(p):
        raise GeometryError("point %s is not inside the domain" % p)

    limit = float(evaluator_for(U).value(p))
    vals = []
    for e in eps:
        vals.append(float(evaluator_for(thicken(U, e)).value(p)))
    monotone = all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))
    gap = (limit - vals[-1]) / limit
    return ConvergenceReport(
        point=p,
        eps_list=tuple(eps),
        values=tuple(vals),
        limit_value=limit,
        monotone=monotone,
        rel_gap_at_min_eps=float(gap),
    )


def localization_experiment(domain, boundary_param, neighborhood_radius,
                            distances):
    """Ratio c_{U cap D} / c_D marching toward a boundary point.

    U is the disc of the given radius about p = outer(t); evaluation
    points walk the inward normal at the given distances.  Ratios tend
    to 1 as the distance shrinks; monotonicity of the metric keeps them
    >= 1 the whole way.  Returns the array of ratios.  A boundary_param
    that is not finite, or a radius that is not positive and finite, is
    refused before any geometry is built.
    """
    t, radius = float(boundary_param), float(neighborhood_radius)
    if not np.isfinite(t):
        raise GeometryError("boundary_param must be finite")
    if not 0 < radius < np.inf:  # nan fails too
        raise GeometryError("neighborhood_radius must be positive and finite")
    t %= 1.0
    curve = domain.outer
    if any(abs(t - tc) < 1e-9 or abs(t - tc) > 1.0 - 1e-9
           for tc in curve.corner_params):
        raise GeometryError("boundary point %g sits on a corner" % t)
    ds = _decreasing("distances", distances)
    if max(ds) >= radius:
        raise GeometryError(
            "distance %g reaches outside the radius-%g neighborhood"
            % (max(ds), radius))

    p = curve.point(t)
    nrm = -curve_eval(curve, t).normal
    zs = np.array([p + d * nrm for d in ds], dtype=complex)

    hood = disc(p, radius)
    comps = boolean_intersect(hood, domain)
    comp = None
    for c in comps:
        if all(c.contains(z) for z in zs):
            comp = c
            break
    if comp is None:
        raise GeometryError(
            "no single piece of the cutoff neighborhood holds every "
            "evaluation point; shrink the radius")

    ev_num = evaluator_for(comp)
    ev_den = evaluator_for(domain)
    ratios = np.asarray(ev_num.values(zs), float) / \
        np.asarray(ev_den.values(zs), float)
    if abs(ratios[-1] - 1.0) > ASYMPTOTIC_RTOL:
        log.warning(
            "smallest distance %g is not in the asymptotic regime "
            "(ratio %.3f)", ds[-1], ratios[-1])
    return ratios


def write_csv(fh, header, rows):
    """Plain CSV with %.12g floats; byte-stable for identical inputs."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        cells = [c if isinstance(c, str) else "%.12g" % c for c in row]
        fh.write(",".join(cells) + "\n")
