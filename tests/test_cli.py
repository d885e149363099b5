"""Command line driver: formats, exit codes, file outputs."""

from pathlib import Path

import pytest

import caratheodory.harness
from caratheodory.harness import run_cli

FIX = Path(caratheodory.harness.__file__).parent / "fixtures"


def _fx(name):
    return str(FIX / name)


def test_metric_at_a_point(capsys):
    rc = run_cli(["metric", "--domain", _fx("disc.json"), "--point", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out == "1.333333\n"


def test_metric_at_several_points(capsys):
    rc = run_cli(["metric", "--domain", _fx("disc.json"),
                  "--point", "0", "--point", "0,0.5"])
    assert rc == 0
    assert capsys.readouterr().out == "1.000000\n1.333333\n"


def test_metric_grid_csv_is_byte_stable(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = run_cli(["metric", "--domain", _fx("disc.json"),
                      "--delta", "0.2", "--spacing", "0.5",
                      "--out", str(out)])
        assert rc == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 10  # 9 grid points at this clearance and spacing


def test_curvature_scan_summary(capsys, tmp_path):
    out = tmp_path / "kappa.csv"
    rc = run_cli(["curvature", "--domain", _fx("disc.json"),
                  "--delta", "0.2", "--spacing", "0.5", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("kappa in [")
    assert "over 9 points" in text
    assert out.read_text().splitlines()[0] == "re,im,kappa"


def test_suita_run_passes_on_the_ellipse(capsys):
    rc = run_cli(["suita", "--domain", _fx("ellipse.json"),
                  "--delta", "0.15", "--spacing", "0.35"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "bound -4 + 0.001: pass" in lines[0]
    assert sum(1 for ln in lines if ln.startswith("boundary trend d=")) == 3


def test_solynin_nested_preset(capsys):
    rc = run_cli(["solynin", "--nested"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "max ratio 1 over 177 points (nested): pass\n"


def test_solynin_crossing_pair_from_files(capsys):
    rc = run_cli(["solynin", "--d1", _fx("discL.json"),
                  "--d2", _fx("discR.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "max ratio 0.901572095052 over 281 points (crossing): pass\n"


def test_solynin_requires_a_pair(capsys):
    rc = run_cli(["solynin"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "--nested" in err


def test_submult_writes_csv_and_svg(tmp_path, capsys):
    out, svg = tmp_path / "ratios.csv", tmp_path / "ratios.svg"
    # the pins below are the sweep at spacing 0.15, not the 0.12 default
    rc = run_cli(["submult", "--d1", _fx("discL.json"),
                  "--d2", _fx("discR.json"), "--spacing", "0.15",
                  "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text == ("max_ratio 0.879085  C_hat 8.000000  bound 1.414214"
                    "  dropped 0: pass\n")
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,c_int,c_uni,c_d1,c_d2,ratio"
    assert len(lines) == 38
    art = svg.read_text()
    assert art.startswith("<svg") and art.rstrip().endswith("</svg>")


def test_thicken_converge_lines(capsys):
    rc = run_cli(["thicken-converge", "--domain", _fx("disc.json"),
                  "--point", "0", "--eps", "0.2,0.1,0.05"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "eps=0.2 value=0.83333333",
        "eps=0.1 value=0.90909091",
        "eps=0.05 value=0.95238095",
        "limit 1.00000000, gap at smallest eps 4.7619%, strictly increasing",
    ]


def test_thicken_converge_gap_tolerance_exit(capsys):
    rc = run_cli(["thicken-converge", "--domain", _fx("disc.json"),
                  "--point", "0", "--eps", "0.2,0.1,0.05",
                  "--gap-tol", "0.01"])
    assert rc == 2
    capsys.readouterr()


def test_localize_defaults(capsys):
    rc = run_cli(["localize", "--domain", _fx("disc.json")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "d=0.1 ratio=1.055730",
        "d=0.05 ratio=1.013007",
        "d=0.02 ratio=1.002010",
    ]


def test_localize_on_the_ellipse_reaches_the_boundary(capsys):
    # 0.005 from the top is past the uniform meshes' clearance; meshes
    # adapted to the foot settle it, for the ellipse and the cornered piece
    rc = run_cli(["localize", "--domain", _fx("ellipse.json"), "--t", "0.25",
                  "--distances", "0.1,0.02,0.005"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["d=0.1", "d=0.02", "d=0.005"]
    ratios = [float(ln.split("ratio=")[1]) for ln in lines]
    assert all(r >= 1.0 for r in ratios)
    gaps = [r - 1.0 for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]


def test_localize_far_from_the_boundary_fails(capsys, tmp_path):
    out = tmp_path / "loc.csv"
    rc = run_cli(["localize", "--domain", _fx("disc.json"),
                  "--distances", "0.4", "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d=0.4 ratio=3.652591"
    assert lines[1] == "note: smallest distance is not in the asymptotic regime"
    assert out.read_text().splitlines()[0] == "distance,ratio"


def test_missing_domain_file_is_an_error(capsys):
    rc = run_cli(["metric", "--domain", "no_such_domain.json", "--point", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_domain_file_with_a_nan_radius_is_an_error(tmp_path, capsys):
    bad = tmp_path / "nan_disc.json"
    bad.write_text('{"type": "disc", "center": [0.0, 0.0], "radius": NaN}')
    rc = run_cli(["metric", "--domain", str(bad), "--point", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: samples must be finite\n"


@pytest.mark.parametrize("flag", ["--delta", "--spacing"])
def test_metric_grid_refuses_a_nan_flag(flag, capsys):
    rc = run_cli(["metric", "--domain", _fx("disc.json"), flag, "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("flag, name", [("--t", "boundary_param"),
                                        ("--radius", "neighborhood_radius")])
def test_localize_refuses_a_nan_flag(flag, name, capsys):
    rc = run_cli(["localize", "--domain", _fx("ellipse.json"), flag, "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be" % name) and "finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["suita"], "--tol"),
    (["localize"], "--rtol"),
    (["thicken-converge", "--point", "0", "--eps", "0.1"], "--gap-tol"),
], ids=["suita", "localize", "thicken"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(
        argv, flag, value, capsys):
    # refused before the domain file is read, so the missing file is
    # never reported: no geometry is built for a run that cannot pass
    rc = run_cli(argv[:1] + ["--domain", "no_such_domain.json"] + argv[1:]
                 + [flag, value])
    assert rc == 1
    assert capsys.readouterr().err == (
        "usage error: %s must be nonnegative and finite, got %s\n"
        % (flag, float(value)))


@pytest.mark.parametrize("command", ["curvature", "suita"])
@pytest.mark.parametrize("value", ["0", "nan"])
def test_a_delta_standing_in_for_the_spacing_is_named(command, value, capsys):
    # without --spacing, --delta is the spacing, and the error names the
    # flag that was passed
    assert run_cli([command, "--domain", _fx("disc.json"),
                    "--delta", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --delta is the spacing")
    assert "got %s" % float(value) in err


@pytest.mark.parametrize("argv, flag, value", [
    (["metric", "--domain", _fx("disc.json")], "--point", "-0.3+0.2j"),
    (["metric", "--domain", _fx("disc.json")], "--point", "-0.3,0.2"),
    (["localize", "--domain", _fx("disc.json")], "--t", "-2.5e-1"),
    (["suita", "--domain", "no_such_domain.json"], "--tol", "-1e-3"),
], ids=["complex", "pair", "exponent", "refused"])
def test_a_negative_value_parses_after_a_space(argv, flag, value, capsys):
    # a value that starts with "-" is no flag, spaced or joined by "="
    rc = run_cli(argv + [flag, value])
    out = capsys.readouterr()
    assert "expected one argument" not in out.err
    assert (rc, out) == (run_cli(argv + [flag + "=" + value]),
                         capsys.readouterr())


def test_bad_flags_are_usage_errors(capsys):
    assert run_cli(["metric"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert run_cli(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["curvature", "--domain", _fx("disc.json"), "--method", "lp"],
    ["metric", "--domain", _fx("disc.json"), "--point", "0",
     "--method", "lp"],
    ["metric", "--domain", _fx("disc.json"), "--point", "0",
     "--degree", "5"],
    ["submult", "--d1", _fx("discL.json"), "--d2", _fx("discR.json"),
     "--method", "lp"],
    ["metric", "--domain", _fx("disc.json"), "--point", "0", "--n", "4"],
    ["metric", "--domain", _fx("disc.json"), "--point", "0",
     "--method", "szego"],
], ids=["curvature-lp", "metric-lp", "metric-degree", "submult-lp",
        "metric-n", "metric-szego"])
def test_curvature_has_no_lp_method(argv, capsys):
    # an LP certificate is a lower bound, not a metric value, and carries
    # no curvature: no subcommand routes to it or takes its degree.  Each
    # domain has one metric authority, so no subcommand takes a method or
    # a mesh size either
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["curvature", "suita"])
def test_a_zero_spacing_is_an_error(command, capsys):
    assert run_cli([command, "--domain", _fx("disc.json"),
                    "--spacing", "0"]) == 1
    assert "spacing must be positive" in capsys.readouterr().err


def test_seed_flag_is_accepted(capsys):
    rc = run_cli(["--seed", "7", "metric", "--domain", _fx("disc.json"),
                  "--point", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out == "1.333333\n"
