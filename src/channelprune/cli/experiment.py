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
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from ..core import exact_ceil
from ..errors import CapacityError
from ..prune import Problem, Selector, protect_channels
from ..sim import generate_instance
from .config import ExperimentConfig, _embedded, _write_bool, format_value, parse_config_lines
from .matrix_io import load_matrix

__all__ = [
    "CSV_HEADER",
    "ExperimentReport",
    "ReportRow",
    "load_problem",
    "render_report",
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


def load_problem(cfg: ExperimentConfig, seed: int) -> tuple[str, Problem]:
    """(instance name, `Problem`) for one seed: the seeded draw, or the configured files, protected.

    Without q_future_path, a from-files `Problem` has no future queries.
    """
    if cfg.mode == "synthetic":
        name = f"syn-{seed}"
        q, k, q_future = generate_instance(cfg.synthetic_spec(seed))
    else:
        name = f"file-{Path(cfg.q_path).stem}"
        q, k = load_matrix(cfg.q_path), load_matrix(cfg.k_path)
        q_future = load_matrix(cfg.q_future_path) if cfg.q_future_path else None
    return name, Problem(q, k, protect_channels(k, cfg.policy()), q_future)


def _oracle_optimum(problem: Problem, lam: float, cap: int) -> float | str:
    try:
        return problem.select(Selector.ORACLE, lam, cap=cap).error_sq
    except CapacityError:
        return ORACLE_SKIPPED


def _oracle_counts_settled(cfg: ExperimentConfig) -> bool:
    """Whether no synthetic seed's oracle can exceed the cap: protection keeps at least ceil(a * d) channels
    (a = 0 when off), and C(m, min(n_prune, m)) never shrinks as the pool m grows, so the largest pool decides."""
    pool = cfg.d - exact_ceil(cfg.policy().a, cfg.d)
    counts = (math.comb(pool, min(exact_ceil(lam, cfg.d), pool)) for lam in cfg.lambdas)
    return cfg.mode == "synthetic" and all(count <= cfg.enumeration_cap for count in counts)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep described by the config.

    Each instance gets one `Problem`, so W is built at most once, and the
    greedy and the oracle run at most once per instance and budget; a cell's
    wall_time_ms includes whatever of that work it was the first to need.
    The seeds of a from-files sweep read the same files, so they share one
    `Problem`, loaded once. Synthetic seeds stream one at a time, and so does
    an `oracle` sweep whose largest possible pool stays within the enumeration
    cap at every lambda. Any other `oracle` sweep loads and checks its seeds in
    order before any cell, each kept until its cells are done, and stops at the
    first one over the cap at some lambda: CapacityError, with no later seed
    loaded and no W built. A zero or overflowing attention product, observed or
    future, raises DegenerateInputError before any selector runs on it.
    """
    cfg.validate()
    if cfg.mode == "synthetic":
        problems = (load_problem(cfg, seed) for seed in cfg.seeds)
    else:
        problems = repeat(load_problem(cfg, cfg.seeds[0]), len(cfg.seeds))
    if Selector.ORACLE in cfg.selectors and not _oracle_counts_settled(cfg):
        loaded = deque()
        for instance, problem in problems:  # a refused seed stops the loading
            for lam in cfg.lambdas:
                problem.check_oracle_capacity(lam, cfg.enumeration_cap)
            loaded.append((instance, problem))
        problems = (loaded.popleft() for _ in cfg.seeds)  # each released once its cells are done
    rows: list[ReportRow] = []
    for seed, (instance, problem) in zip(cfg.seeds, problems):
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
                        protection=cfg.protect,
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


def _fields(row: ReportRow, timing: bool) -> list[str]:
    """A row's CSV fields, its lambda printed by the embedded config's lossless writer."""
    if row.approx_ratio is None:
        approx = ""
    elif isinstance(row.approx_ratio, str):
        approx = row.approx_ratio
    else:
        approx = format_value(row.approx_ratio)
    return [
        row.instance,
        str(row.seed),
        row.selector.value,
        _embedded(row.lam),
        _write_bool(row.protection),
        str(row.n_prune),
        str(row.n_protected),
        format_value(row.error_sq),
        format_value(row.relative_error),
        "" if row.error_future is None else format_value(row.error_future),
        approx,
        format_value(row.wall_time_ms) if timing else "",
    ]


def render_report(report: ExperimentReport) -> str:
    """Render the report as CSV text with the resolved config on top."""
    out = io.StringIO()
    out.writelines(f"# {key}={value}\n" for key, value in report.config.resolved_items())
    out.write(CSV_HEADER + "\n")
    writer = csv.writer(out, lineterminator="")  # quotes a field holding a comma or a quote
    for row in report.rows:
        writer.writerow(_fields(row, report.config.timing))
        out.write("\n")
    return out.getvalue()


def write_report(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(render_report(report), encoding="utf-8")


def _within(recorded: str, value: float | str | None) -> bool:
    """A recorded number is within REPLAY_TOLERANCE relative error of a replayed finite float."""
    if not isinstance(value, float) or not math.isfinite(value):  # inf is matched only by its own text
        return False
    try:
        number = float(recorded)
    except ValueError:
        return False
    return abs(number - value) <= REPLAY_TOLERANCE * abs(value)


def replay_report(path: str | Path) -> list[str]:
    """Re-run a report's embedded config and diff every column but wall_time_ms.

    Each field must equal the replayed row's text; error_sq,
    relative_error, error_future and approx_ratio may instead differ by
    REPLAY_TOLERANCE relative error, but an empty field or the oracle-skip
    marker must still be reproduced as the same kind. Returns a list of
    mismatch descriptions, each citing its row's line in the file; an empty list means every row matched.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    config_lines = [line[2:] for line in lines if line.startswith("# ")]
    cfg = parse_config_lines(config_lines)
    fresh = run_experiment(cfg)

    data = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line and not line.startswith("#")]
    if not data or data[0][1] != CSV_HEADER:
        return [f"{path}: missing or unexpected header"]
    problems = []
    if len(data) - 1 != len(fresh.rows):
        problems.append(f"row count {len(data) - 1} != replay count {len(fresh.rows)}")
        return problems
    columns = CSV_HEADER.split(",")
    for (lineno, line), row in zip(data[1:], fresh.rows):
        fields = next(csv.reader([line]))
        if len(fields) != len(columns):
            problems.append(f"line {lineno}: {len(fields)} fields, expected {len(columns)}")
            continue
        replayed = _fields(row, False)
        for name, recorded, expected in zip(columns, fields, replayed):
            if name == "wall_time_ms" or recorded == expected:
                continue
            if not (name in TOLERANT_COLUMNS and _within(recorded, getattr(row, name))):
                problems.append(f"line {lineno}: {name} {recorded!r} not reproduced (replay {expected!r})")
    return problems
