"""Verification suites behind the CLI.

Each verify_* routine runs one experiment end to end: build a grid with
interior clearance, pick the metric authority per domain (the closed form
where one exists, the Szego solve everywhere else, unless a method is
forced), evaluate the inequality under test, and return a small report
object with the numbers and a pass flag.  Nothing here plots; the CLI
dumps reports as CSV/SVG.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from ..curvature import curvature_at, scan_curvature
from ..errors import ExtremalError, GeometryError, SolveError
from ..geometry import boolean_intersect, boolean_union, grid_sample, thicken
from ..kernels import disc_metric, evaluator_for
from ..kernels.closed_forms import SectorPullback
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


def _inward_normal(curve, t):
    # ccw boundary keeps the interior on the left of the velocity
    v = curve.velocity(t)
    return 1j * v / abs(v)


def _disc_params(domain):
    if not domain.primitive or domain.primitive[0] != "disc":
        raise GeometryError("need a disc-tagged domain, got %r" % (domain.label,))
    return domain.primitive[1]


def verify_suita(domain, delta=0.15, tol=1e-3, spacing=None):
    """Scan the curvature bound kappa <= -4 + tol over an interior grid.

    Also walks a boundary point inward through TREND_DISTANCES and
    records |kappa + 4| there; the report's trend_ok says whether those
    values are nonincreasing up to the rounding floor KAPPA_NOISE.
    Pass/fail is decided by the grid scan alone.
    """
    for c in domain.curves:
        if getattr(c, "corner_params", ()):
            raise GeometryError("curvature scan needs a smooth domain")
    if spacing is None:
        spacing = delta
    ev = evaluator_for(domain)
    scan = scan_curvature(domain, ev, delta, spacing)

    p = domain.outer.point(0.0)
    nrm = _inward_normal(domain.outer, 0.0)
    trend = []
    for d in TREND_DISTANCES:
        est = curvature_at(ev, p + d * nrm)
        trend.append(abs(est.kappa + 4.0))
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

    All four densities come from closed forms, so this is the analytic
    baseline: crossing discs must give max ratio < 1 strictly, nested
    discs give ratio identically 1.
    """
    (c1, r1) = _disc_params(disc1)
    (c2, r2) = _disc_params(disc2)
    c1, r1, c2, r2 = complex(c1), float(r1), complex(c2), float(r2)
    nested = abs(c1 - c2) + min(r1, r2) <= max(r1, r2)

    comps = boolean_intersect(disc1, disc2)
    if not comps:
        raise GeometryError("discs do not overlap")

    if not nested:
        pin = SectorPullback((c1, r1), (c2, r2), "intersection")
        pun = SectorPullback((c1, r1), (c2, r2), "union")

    grids, ratios, rows = [], [], []
    for comp in comps:
        pts = grid_sample(comp, delta, spacing)
        if not nested:
            # polyline containment can leak a hair at sliver tips; the
            # pullback knows the exact circles, so recheck and drop
            pts = pts[pin.contains(pts)]
        if pts.size == 0:
            continue
        lam1 = disc_metric(c1, r1, pts)
        lam2 = disc_metric(c2, r2, pts)
        if nested:
            small = (c1, r1) if r1 <= r2 else (c2, r2)
            big = (c2, r2) if r1 <= r2 else (c1, r1)
            lam_int = disc_metric(small[0], small[1], pts)
            lam_uni = disc_metric(big[0], big[1], pts)
        else:
            lam_int = pin.density(pts)
            lam_uni = pun.density(pts)
        rat = lam_int * lam_uni / (lam1 * lam2)
        grids.append(pts)
        ratios.append(rat)
        for z, a, b, u, v, r in zip(pts, lam_int, lam_uni, lam1, lam2, rat):
            rows.append((z.real, z.imag, a, b, u, v, r))

    if not grids:
        raise GeometryError("no grid points survive inside the intersection")
    grid = np.concatenate(grids)
    rat = np.concatenate(ratios)
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


def _values_or_nan(ev, pts):
    # batch fast path; on failure redo pointwise so one bad point only
    # costs itself
    try:
        return np.asarray(ev.values(pts), dtype=float)
    except (ExtremalError, GeometryError, SolveError):
        pass
    out = np.full(pts.size, np.nan)
    for i, z in enumerate(pts):
        try:
            out[i] = ev.value(z)
        except (ExtremalError, GeometryError, SolveError) as exc:
            log.warning("dropping %s from %r: %s", z, ev.kind, exc)
    return out


def _kappa_or_nan(ev, pts):
    out = np.full(pts.size, np.nan)
    for i, z in enumerate(pts):
        try:
            out[i] = curvature_at(ev, z).kappa
        except (ExtremalError, GeometryError, SolveError) as exc:
            log.warning("dropping curvature at %s: %s", z, exc)
    return out


def verify_submult(D1, D2, delta=0.1, spacing=0.12, method="auto"):
    """Test c_int * c_uni <= sqrt(C_hat/4) * c_1 * c_2 over a pair.

    C_hat is the empirical sup of -(kappa_1 + kappa_2) over the
    intersection grid, a property of the input domains: certificates carry
    no curvature, so with method="lp" it comes from their auto authority
    (otherwise from the evaluators of the metric values).  The
    ratio field, its max over every intersection component, and the
    resulting bound all land in the returned PairReport, which passes
    within a relative SUBMULT_TOL_REL (2%) of the bound; points where
    any evaluation fails are dropped with a warning and counted.
    """
    comps = boolean_intersect(D1, D2)
    if not comps:
        raise GeometryError("domains do not intersect")
    union = boolean_union(D1, D2)

    ev1 = evaluator_for(D1, method)
    ev2 = evaluator_for(D2, method)
    ev_uni = evaluator_for(union, method)
    kev1 = evaluator_for(D1) if ev1.kind == "lp" else ev1
    kev2 = evaluator_for(D2) if ev2.kind == "lp" else ev2

    C_hat = 0.0
    rows = []
    dropped = 0
    best = None
    for k, comp in enumerate(comps):
        pts = grid_sample(comp, delta, spacing)
        ev_int = evaluator_for(comp, method)
        c_int = _values_or_nan(ev_int, pts)
        c_uni = _values_or_nan(ev_uni, pts)
        c_1 = _values_or_nan(ev1, pts)
        c_2 = _values_or_nan(ev2, pts)
        k_1 = _kappa_or_nan(kev1, pts)
        k_2 = _kappa_or_nan(kev2, pts)

        ok = np.isfinite(c_int) & np.isfinite(c_uni) & np.isfinite(c_1)
        ok &= np.isfinite(c_2) & np.isfinite(k_1) & np.isfinite(k_2)
        dropped += int(np.count_nonzero(~ok))
        if not np.any(ok):
            continue
        C_hat = max(C_hat, float(np.max(-(k_1[ok] + k_2[ok]))))
        rat = c_int[ok] * c_uni[ok] / (c_1[ok] * c_2[ok])
        for z, a, b, u, v, r in zip(
                pts[ok], c_int[ok], c_uni[ok], c_1[ok], c_2[ok], rat):
            rows.append((z.real, z.imag, a, b, u, v, r))
        comp_max = float(np.max(rat))
        if best is None or comp_max > best[0]:
            best = (comp_max, k, pts[ok], rat)

    if best is None:
        raise GeometryError("every grid point failed to evaluate")
    max_ratio, comp_id, grid, rat = best
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
    """values as floats, refused unless positive and strictly decreasing."""
    xs = [float(x) for x in values]
    if not xs or any(x <= 0 for x in xs):
        raise GeometryError("%s must be positive" % name)
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
    >= 1 the whole way.  Returns the array of ratios.
    """
    t = float(boundary_param) % 1.0
    curve = domain.outer
    if any(abs(t - tc) < 1e-9 or abs(t - tc) > 1.0 - 1e-9
           for tc in getattr(curve, "corner_params", ())):
        raise GeometryError("boundary point %g sits on a corner" % t)
    ds = _decreasing("distances", distances)
    radius = float(neighborhood_radius)
    if max(ds) >= radius:
        raise GeometryError(
            "distance %g reaches outside the radius-%g neighborhood"
            % (max(ds), radius))

    p = curve.point(t)
    nrm = _inward_normal(curve, t)
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
    if abs(ratios[-1] - 1.0) > 0.2:
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
