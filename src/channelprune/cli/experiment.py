"""Sweep orchestration and CSV report emission.

A sweep runs every (seed, lambda, selector) cell of the config, one row
per cell. Rows are emitted sorted by (seed, lambda, selector), so the
report is independent of execution order. Wall-clock timings are always
measured but only written when the config enables them; with timing off,
identical configs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

from ..core import ChannelMatrix
from ..errors import CapacityError
from ..prune import Problem, ProtectionPolicy, Selector, protect_channels
from ..sim import generate_instance
from .config import _KEYS, ExperimentConfig, format_value, parse_config_lines
from .matrix_io import load_matrix

__all__ = [
    "CSV_HEADER",
    "ExperimentReport",
    "ReportRow",
    "load_instance",
    "replay_report",
    "run_experiment",
    "write_report",
]

CSV_HEADER = (
    "instance,seed,selector,lambda,protection,n_prune,n_protected,"
    "error_sq,relative_error,error_future,approx_ratio,wall_time_ms"
)

ORACLE_SKIPPED = "oracle_skipped"

TOLERANT_COLUMNS = ("error_sq", "relative_error", "error_future", "approx_ratio")
REPLAY_TOLERANCE = 1e-9  # relative error a replayed TOLERANT_COLUMNS value may show


@dataclass(frozen=True)
class ReportRow:
    instance: str
    seed: int
    selector: Selector
    lam: float
    protection: bool
    n_prune: int
    n_protected: int
    error_sq: float
    relative_error: float
    error_future: float | None
    approx_ratio: float | str | None  # None: oracle off; ORACLE_SKIPPED: cap exceeded
    wall_time_ms: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]


def _approx_ratio(error_sq: float, optimum: float) -> float:
    if optimum > 0.0:
        return error_sq / optimum
    return 1.0 if error_sq <= 0.0 else math.inf


def load_instance(
    cfg: ExperimentConfig, seed: int
) -> tuple[str, ChannelMatrix, ChannelMatrix, ChannelMatrix | None]:
    """(instance name, q, k, q_future) for one seed of the config.

    Synthetic mode draws the seeded instance; from-files mode reads the
    configured matrices (q_future is None without q_future_path).
    """
    if cfg.mode == "synthetic":
        q, k, q_future = generate_instance(cfg.synthetic_spec(seed))
        return f"syn-{seed}", q, k, q_future
    q = load_matrix(cfg.q_path)
    k = load_matrix(cfg.k_path)
    q_future = load_matrix(cfg.q_future_path) if cfg.q_future_path else None
    if q.cols != k.cols or (q_future is not None and q_future.cols != k.cols):
        raise ValueError("loaded matrices disagree on channel count")
    return f"file-{Path(cfg.q_path).stem}", q, k, q_future


def _oracle_optimum(problem: Problem, lam: float, cap: int) -> float | str:
    try:
        return problem.select(Selector.ORACLE, lam, cap=cap).error_sq
    except CapacityError:
        return ORACLE_SKIPPED


def _check_oracle_capacity(cfg: ExperimentConfig, policy: ProtectionPolicy) -> None:
    """CapacityError when some (seed, lambda) oracle cell would exceed the cap.

    Loads each instance and protects its channels; builds no W and runs no selector.
    """
    for seed in cfg.seeds:
        _, _, k, _ = load_instance(cfg, seed)
        n_protected = len(protect_channels(k, policy))
        for lam in cfg.lambdas:
            Problem.check_oracle_capacity(k.cols, n_protected, lam, cfg.enumeration_cap)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep described by the config.

    Each seed gets one `Problem`, so W is built at most once, and the
    greedy and the oracle run at most once per seed and budget; a cell's
    wall_time_ms includes whatever of that work it was the first to need.
    An `oracle` selector over the enumeration cap raises CapacityError
    before any cell runs. A zero or overflowing attention product, observed
    or future, raises DegenerateInputError before any selector runs on it.
    """
    cfg.validate()
    policy = cfg.policy()
    if Selector.ORACLE in cfg.selectors:
        _check_oracle_capacity(cfg, policy)
    rows: list[ReportRow] = []
    for seed in cfg.seeds:
        instance, q, k, q_future = load_instance(cfg, seed)
        problem = Problem(q, k, protect_channels(k, policy), q_future)
        norms = problem.attention_norms()  # observed, then future when there is one

        for lam in cfg.lambdas:
            cells = []
            for selector in cfg.selectors:
                start = time.perf_counter()
                selection = problem.select(selector, lam, seed=seed, cap=cfg.enumeration_cap)
                cells.append((selection, (time.perf_counter() - start) * 1e3))
            # After the cells: an oracle cell is charged for the search, and the ratio reuses it.
            optimum = _oracle_optimum(problem, lam, cfg.enumeration_cap) if cfg.oracle else None

            for selection, wall_ms in cells:
                error_future = None
                if selection.error_future_sq is not None:
                    error_future = math.sqrt(selection.error_future_sq) / norms[1]

                approx = optimum
                if isinstance(optimum, float):
                    approx = _approx_ratio(selection.error_sq, optimum)

                rows.append(
                    ReportRow(
                        instance=instance,
                        seed=seed,
                        selector=selection.selector,
                        lam=lam,
                        protection=policy.enabled,
                        n_prune=selection.n_prune,
                        n_protected=len(problem.protected),
                        error_sq=selection.error_sq,
                        relative_error=math.sqrt(selection.error_sq) / norms[0],
                        error_future=error_future,
                        approx_ratio=approx,
                        wall_time_ms=wall_ms,
                    )
                )

    rows.sort(key=lambda r: (r.seed, r.lam, r.selector.value))
    return ExperimentReport(config=cfg, rows=tuple(rows))


def _format_row(row: ReportRow, timing: bool) -> str:
    if row.approx_ratio is None:
        approx = ""
    elif isinstance(row.approx_ratio, str):
        approx = row.approx_ratio
    else:
        approx = format_value(row.approx_ratio)
    fields = [
        row.instance,
        str(row.seed),
        row.selector.value,
        _KEYS["lambdas"][1]((row.lam,)),  # the embedded config's lossless writer
        "true" if row.protection else "false",
        str(row.n_prune),
        str(row.n_protected),
        format_value(row.error_sq),
        format_value(row.relative_error),
        "" if row.error_future is None else format_value(row.error_future),
        approx,
        format_value(row.wall_time_ms) if timing else "",
    ]
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(fields)  # quotes a field holding a comma or a quote
    return line.getvalue()


def render_report(report: ExperimentReport) -> str:
    """Render the report as CSV text with the resolved config on top."""
    lines = [f"# {key}={value}" for key, value in report.config.resolved_items()]
    lines.append(CSV_HEADER)
    lines.extend(_format_row(row, report.config.timing) for row in report.rows)
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(render_report(report), encoding="utf-8")


def _within(recorded: str, value: float | str | None) -> bool:
    """A recorded number is within REPLAY_TOLERANCE relative error of a replayed float."""
    if not isinstance(value, float):
        return False
    try:
        number = float(recorded)
    except ValueError:
        return False
    return abs(number - value) <= REPLAY_TOLERANCE * max(1.0, abs(value))


def replay_report(path: str | Path) -> list[str]:
    """Re-run a report's embedded config and diff every column but wall_time_ms.

    Each field must equal the replayed row's text; error_sq,
    relative_error, error_future and approx_ratio may instead differ by
    REPLAY_TOLERANCE relative error, but an empty field or the oracle-skip
    marker must still be reproduced as the same kind. Returns a list of
    mismatch descriptions; an empty list means every row matched.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    config_lines = [line[2:] for line in lines if line.startswith("# ")]
    cfg = parse_config_lines(config_lines)
    fresh = run_experiment(cfg)

    data_lines = [line for line in lines if line and not line.startswith("#")]
    if not data_lines or data_lines[0] != CSV_HEADER:
        return [f"{path}: missing or unexpected header"]
    problems = []
    if len(data_lines) - 1 != len(fresh.rows):
        problems.append(f"row count {len(data_lines) - 1} != replay count {len(fresh.rows)}")
        return problems
    columns = CSV_HEADER.split(",")
    for lineno, (fields, row) in enumerate(zip(csv.reader(data_lines[1:]), fresh.rows), start=2):
        if len(fields) != len(columns):
            problems.append(f"line {lineno}: {len(fields)} fields, expected {len(columns)}")
            continue
        replayed = next(csv.reader([_format_row(row, timing=False)]))
        for name, recorded, expected in zip(columns, fields, replayed):
            if name == "wall_time_ms" or recorded == expected:
                continue
            if not (name in TOLERANT_COLUMNS and _within(recorded, getattr(row, name))):
                problems.append(f"line {lineno}: {name} {recorded!r} not reproduced (replay {expected!r})")
    return problems
