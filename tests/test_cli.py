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


def test_bad_flags_are_usage_errors(capsys):
    assert run_cli(["metric"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert run_cli(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv, why", [
    (["curvature", "--domain", _fx("disc.json"), "--method", "lp"],
     "invalid choice"),
    (["metric", "--domain", _fx("disc.json"), "--point", "0",
      "--method", "lp"], "invalid choice"),
    (["metric", "--domain", _fx("disc.json"), "--point", "0",
      "--degree", "5"], "unrecognized arguments"),
    (["submult", "--d1", _fx("discL.json"), "--d2", _fx("discR.json"),
      "--method", "lp"], "invalid choice"),
], ids=["curvature-lp", "metric-lp", "metric-degree", "submult-lp"])
def test_curvature_has_no_lp_method(argv, why, capsys):
    # an LP certificate is a lower bound, not a metric value, and carries
    # no curvature: no subcommand routes to it or takes its degree
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and why in err


def test_metric_refuses_a_pin_no_mesh_accepts(capsys):
    assert run_cli(["metric", "--domain", _fx("ellipse.json"), "--method",
                    "szego", "--n", "0", "--point", "0.1"]) == 1
    assert "n_per_curve must be even" in capsys.readouterr().err


def test_seed_flag_is_accepted(capsys):
    rc = run_cli(["--seed", "7", "metric", "--domain", _fx("disc.json"),
                  "--point", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out == "1.333333\n"
