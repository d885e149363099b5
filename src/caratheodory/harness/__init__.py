"""Fixtures, verification suites, and the CLI."""

from .cli import main, run_cli
from .fixtures import (
    annulus,
    blob_disc_pair,
    blob_with_hole,
    disc,
    disc_with_holes,
    domain_from_dict,
    ellipse,
    fourier_blob,
    load_domain_file,
    two_disc_pair,
    unit_disc,
)
from .reports import (
    ConvergenceReport,
    PairReport,
    SolyninReport,
    SuitaReport,
    converge_thickening,
    localization_experiment,
    verify_solynin_two_discs,
    verify_submult,
    verify_suita,
    write_csv,
)
from .svg import svg_heatmap

__all__ = [
    "ConvergenceReport",
    "PairReport",
    "SolyninReport",
    "SuitaReport",
    "annulus",
    "blob_disc_pair",
    "blob_with_hole",
    "converge_thickening",
    "disc",
    "disc_with_holes",
    "domain_from_dict",
    "ellipse",
    "fourier_blob",
    "load_domain_file",
    "localization_experiment",
    "main",
    "run_cli",
    "svg_heatmap",
    "two_disc_pair",
    "unit_disc",
    "verify_solynin_two_discs",
    "verify_submult",
    "verify_suita",
    "write_csv",
]
