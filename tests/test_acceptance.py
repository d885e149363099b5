"""End-to-end gate: the headline guarantees at their stated tolerances.

Each test checks one guarantee and prints a single pass/fail line.
Broken sub-checks are collected before the assert so a red run shows
the whole picture at once.  The tests stay strict: a target that is out
of reach fails honestly rather than loosening the target.
"""

import io
import time

import numpy as np

from caratheodory.geometry import boolean_intersect, mesh_boundary
from caratheodory.harness import (
    annulus,
    blob_disc_pair,
    converge_thickening,
    ellipse,
    fourier_blob,
    localization_experiment,
    two_disc_pair,
    unit_disc,
    verify_solynin_two_discs,
    verify_submult,
    verify_suita,
)
from caratheodory.harness.reports import write_csv
from caratheodory.kernels import (
    AnnulusPoincareEvaluator,
    LPEvaluator,
    SzegoEvaluator,
    evaluator_for,
)
from caratheodory.kernels.szego import SzegoSolver, kerzman_stein_matrix
from curvature_reference import fd_kappa
from kernel_reference import uniform_pair_values


def _gate(label, failures):
    print("%s: %s" % (label, "pass" if not failures else
                      "FAIL  " + "; ".join(failures)))
    assert not failures, "; ".join(failures)


def test_01_disc_sweep_hits_the_exact_metric_with_both_backends():
    # 20 radii across the disc: the solver must match 1/(1 - r^2) to
    # 1e-6 relative and the degree-24 certificates to 1%, all inside a
    # 10 second budget.  The solver half passes with ~1e-12 to spare.
    # The degree-24 certificate is the Szego sum over z^0..z^24,
    # (1 - r^50)/(1 - r^2), so it falls short of the truth by r^50:
    # 5.2e-3 at r = 0.9, the worst radius.
    radii = np.linspace(0.0, 0.9, 20)
    truth = 1.0 / (1.0 - radii**2)
    failures = []
    t0 = time.perf_counter()
    sz = uniform_pair_values(unit_disc(), 256, radii)
    worst_sz = float(np.max(np.abs(sz / truth - 1.0)))
    if worst_sz > 1e-6:
        failures.append("solver off by %.3g > 1e-6" % worst_sz)
    lp = LPEvaluator(unit_disc(), degree=24).values(radii)
    rel_lp = np.abs(lp / truth - 1.0)
    bad = int(np.sum(rel_lp > 1e-2))
    if bad:
        failures.append(
            "certificates miss 1%% at %d of 20 radii (worst %.3g at "
            "r=%.3g)" % (bad, float(np.max(rel_lp)),
                         float(radii[np.argmax(rel_lp)])))
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append("took %.1fs > 10s" % elapsed)
    _gate("disc metric sweep", failures)


def test_02_gaussian_curvature_is_minus_four():
    # the refined FD reference on the exact densities: -4 to 1e-4 on
    # the disc, 2e-3 on the annulus hyperbolic form
    k = 20
    spin = np.exp(2j * np.pi * np.arange(k) / k)
    failures = []
    disc_ev = evaluator_for(unit_disc())
    worst = max(abs(fd_kappa(disc_ev, z)[1] + 4.0)
                for z in np.linspace(0.0, 0.8, k) * spin)
    if worst > 1e-4:
        failures.append("disc stencil off by %.3g > 1e-4" % worst)
    ann_ev = AnnulusPoincareEvaluator(annulus())
    worst_a = max(abs(fd_kappa(ann_ev, z)[1] + 4.0)
                  for z in np.linspace(0.56, 0.94, k) * spin)
    if worst_a > 2e-3:
        failures.append("annulus stencil off by %.3g > 2e-3" % worst_a)
    _gate("curvature normalization", failures)


def test_03_curvature_bound_holds_on_smooth_fixtures():
    # kappa <= -4 + 1e-3 across the interior, and the trend stays
    # within 0.05 of -4 even at distance 0.02 from the boundary
    failures = []
    for dom, delta, spacing in ((ellipse(), 0.15, 0.35),
                                (fourier_blob(), 0.15, 0.25),
                                (annulus(), 0.12, 0.15)):
        rep = verify_suita(dom, delta, spacing=spacing)
        if not rep.passed:
            failures.append("%s: kappa_max %.6f above the bound"
                            % (rep.domain_label, rep.kappa_max))
        near = rep.trend_values[-1]
        if not near <= 0.05:
            failures.append("%s: |kappa+4| = %.3g at distance 0.02"
                            % (rep.domain_label, near))
    _gate("curvature bound scan", failures)


def test_04_crossing_discs_stay_under_the_single_disc_metric():
    # ratio < 1 on a grid of >= 200 points for the symmetric pair,
    # identically 1 for a nested pair, under a 5 second budget
    failures = []
    t0 = time.perf_counter()
    rep = verify_solynin_two_discs(*two_disc_pair("symmetric"))
    if len(rep.grid) < 200:
        failures.append("only %d grid points" % len(rep.grid))
    if not rep.max_ratio < 1.0:
        failures.append("max ratio %.12g not below 1" % rep.max_ratio)
    nested = verify_solynin_two_discs(*two_disc_pair("nested"))
    dev = float(np.max(np.abs(nested.ratios - 1.0)))
    if dev > 1e-10:
        failures.append("nested ratios off 1 by %.3g" % dev)
    elapsed = time.perf_counter() - t0
    if elapsed > 5.0:
        failures.append("took %.1fs > 5s" % elapsed)
    _gate("two-disc baseline", failures)


def test_05_product_rule_on_closed_form_pairs():
    # intersection metric <= sqrt(C/4) * product bound, with the
    # curvature constant C = 8 exact for disc pairs; a nested pair
    # degenerates to ratio 1
    failures = []
    rep = verify_submult(*two_disc_pair("symmetric"))
    if not rep.passed:
        failures.append("crossing pair: max ratio %.6f over bound %.6f"
                        % (rep.max_ratio, rep.bound))
    if not rep.max_ratio < 1.0:
        failures.append("crossing pair: max ratio %.6f not below 1"
                        % rep.max_ratio)
    if abs(rep.C_hat - 8.0) > 1e-3:
        failures.append("crossing pair: C_hat %.6f is not 8" % rep.C_hat)
    if abs(rep.bound - np.sqrt(2.0)) > 1e-4:
        failures.append("crossing pair: bound %.6f is not sqrt(2)"
                        % rep.bound)
    nested = verify_submult(*two_disc_pair("nested"))
    if abs(nested.max_ratio - 1.0) > 1e-9:
        failures.append("nested pair: max ratio %.12g is not 1"
                        % nested.max_ratio)
    _gate("product inequality, disc pairs", failures)


def test_06_product_rule_on_the_blob_disc_pair():
    # the mixed-backend pair at default resolution, run twice: the
    # worst ratio must clear the bound with its 2% quadrature allowance
    # and the emitted rows must reproduce byte for byte
    failures = []
    header = ("re", "im", "c_int", "c_uni", "c_d1", "c_d2", "ratio")
    outs, reps = [], []
    t0 = time.perf_counter()
    for _ in range(2):
        rep = verify_submult(*blob_disc_pair())
        buf = io.StringIO()
        write_csv(buf, header, rep.rows)
        outs.append(buf.getvalue())
        reps.append(rep)
    elapsed = time.perf_counter() - t0
    if outs[0] != outs[1]:
        failures.append("reruns do not reproduce byte for byte")
    rep = reps[0]
    if not rep.passed:
        failures.append("max ratio %.6f exceeds %.6f + 2%%"
                        % (rep.max_ratio, rep.bound))
    if elapsed > 600.0:
        failures.append("runs averaged %.0fs, over the 5 minute budget"
                        % (elapsed / 2.0))
    _gate("product inequality, blob and disc", failures)


def test_07_thickened_lenses_approach_the_corner_value():
    # growing the lens by eps and shrinking eps -> 0 walks the metric
    # up to the lens value: strictly increasing, within 2% at eps=0.01
    lens = boolean_intersect(*two_disc_pair("symmetric"))[0]
    rep = converge_thickening(lens, 0.0, [0.1, 0.05, 0.02, 0.01])
    failures = []
    if not rep.monotone:
        failures.append("values %s not strictly increasing"
                        % (rep.values,))
    if not rep.rel_gap_at_min_eps < 0.02:
        failures.append("gap %.4f%% at eps=0.01"
                        % (100.0 * rep.rel_gap_at_min_eps))
    _gate("thickening convergence", failures)


def test_08_metric_localizes_near_the_boundary():
    # cutting the domain down to a radius-0.5 neighborhood of a
    # boundary point moves the metric by under 5% at distance 0.02
    failures = []
    for dom, t in ((unit_disc(), 0.0), (ellipse(), 0.25)):
        ratios = localization_experiment(dom, t, 0.5, [0.1, 0.05, 0.02])
        final = float(ratios[-1])
        if abs(final - 1.0) > 0.05:
            failures.append("%s: ratio %.6f at distance 0.02"
                            % (dom.label, final))
    _gate("boundary localization", failures)


def test_09_certificates_track_the_solver_across_domains():
    # certified values sit just under the solver values: never above
    # by more than rounding, never more than 1% below
    failures = []
    disc_pts = np.linspace(0.0, 0.72, 10)
    ann_pts = (np.linspace(0.62, 0.82, 10)
               * np.exp(2j * np.pi * np.arange(10) / 10.0))
    for dom, pts, tag in ((unit_disc(), disc_pts, "disc"),
                          (annulus(), ann_pts, "annulus")):
        sz = SzegoEvaluator(dom).values(pts)
        lp = LPEvaluator(dom).values(pts)
        over = float(np.max(lp - sz))
        if over > 1e-6:
            failures.append("%s: certificate above the solver by %.3g"
                            % (tag, over))
        deficit = float(np.max((sz - lp) / sz))
        if deficit > 1e-2:
            failures.append("%s: certificate %.3g below the solver"
                            % (tag, deficit))
    _gate("certificates against the solver", failures)


def test_10_solver_internals_are_self_consistent():
    # the discrete kernel is skew-hermitian to the last bit, the
    # computed boundary values reproduce holomorphic test functions,
    # and mesh doubling leaves the metric unchanged to 1e-8
    failures = []
    fs = (lambda z: np.ones_like(z), lambda z: z**2,
          lambda z: 1.0 / (z - 4.0))
    for dom, a in ((ellipse(), 0.25 + 0.1j), (fourier_blob(), 0.1)):
        mesh = mesh_boundary(dom, 256)
        b = kerzman_stein_matrix(mesh)
        skew = float(np.max(np.abs(b + b.conj().T)))
        if skew != 0.0:
            failures.append("%s: kernel matrix skew defect %.3g"
                            % (dom.label, skew))
        (s,), (nu,) = SzegoSolver(mesh).solve([a])
        bnd = nu / np.sqrt(mesh.weights)
        worst = max(abs(np.sum(f(mesh.nodes) * np.conj(bnd) * mesh.weights)
                        - f(complex(a)))
                    for f in fs)
        if worst > 1e-8:
            failures.append("%s: reproducing identity off by %.3g"
                            % (dom.label, worst))
        v1 = 2.0 * np.pi * s
        v2 = (2.0 * np.pi
              * SzegoSolver(mesh_boundary(dom, 512)).solve([a])[0][0])
        if abs(v2 - v1) / v2 > 1e-8:
            failures.append("%s: doubling moves the metric by %.3g"
                            % (dom.label, abs(v2 - v1) / v2))
    _gate("solver self-consistency", failures)
