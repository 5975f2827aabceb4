"""Configuration, matrix file I/O, experiment sweeps, and self-checks."""

from .config import ExperimentConfig, parse_config_lines
from .experiment import (
    CSV_HEADER,
    ExperimentReport,
    ReportRow,
    render_report,
    replay_report,
    run_experiment,
    write_report,
)
from .matrix_io import load_matrix, save_matrix
from .selfcheck import run_verification

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRow",
    "load_matrix",
    "parse_config_lines",
    "render_report",
    "replay_report",
    "run_experiment",
    "run_verification",
    "save_matrix",
    "write_report",
]
