"""Command-line interface: the generate, prune, sweep and verify commands.

Each command takes only the flags its handler reads; argparse refuses any
other with its usage error, exit 2, before any work. Exit codes: 0 success,
2 configuration error, 3 I/O or file-format error, 4 input-validation
error, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import CapacityError, ConfigError, MatrixFormatError
from ..sim import generate_instance
from .config import _KEYS, ExperimentConfig, _apply_key, _write_bool, format_value, parse_config_file
from .experiment import _lambda_text, load_problem, run_experiment, write_report
from .matrix_io import save_matrix
from .selfcheck import run_verification

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_INVARIANT = 5


# Each flag's add_argument keywords. Its dest is its configuration key, read by that key's parser.
_FLAGS = {
    "--config": dict(metavar="PATH", help="key=value config file"),
    "--seed": dict(dest="seeds", type=int, metavar="N", help="single seed (overrides seeds)"),
    "--lambda": dict(dest="lambdas", metavar="X[,X...]", help="pruning ratio list"),
    "--selector": dict(dest="selectors", metavar="NAME[,NAME...]", help="selector list"),
    "--protect": dict(action=argparse.BooleanOptionalAction, default=None, help="toggle channel protection"),
    "--protect-bounds": dict(metavar="A,B", help="clamp bounds for the protected proportion"),
    "--oracle": dict(action="store_true", default=None, help="also report the exact optimum and ratio"),
    "--timing": dict(action="store_true", default=None, help="write wall-clock timings"),
    "--out": dict(metavar="PATH", help="output path"),
}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
    for key, value in vars(args).items():
        if key in _KEYS and value is not None:
            cfg = _apply_key(cfg, key, str(value))
    return cfg.validate()


def cmd_generate(cfg: ExperimentConfig) -> int:
    if cfg.mode != "synthetic":
        raise ConfigError(f"generate writes synthetic matrices only: mode must be synthetic, got {cfg.mode!r}")
    if cfg.out is None:
        raise ConfigError("generate requires --out DIRECTORY")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    q, k, q_future = generate_instance(cfg.synthetic_spec(seed))
    for name, matrix in (("q_obs", q), ("k", k), ("q_future", q_future)):
        path = out_dir / f"{name}.grcm"
        save_matrix(matrix, path)
        print(f"wrote {path} ({matrix.rows}x{matrix.cols})")
    return EXIT_OK


def cmd_prune(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    _, problem = load_problem(cfg, seed)
    problem.attention_norms()  # a zero or overflowing product, observed or future, is refused before selecting
    lam = cfg.lambdas[0]
    selector = cfg.selectors[0]
    selection = problem.select(selector, lam, seed=seed, cap=cfg.enumeration_cap)
    print(
        f"selector={selector.value} lambda={_lambda_text(lam)} "
        f"n_prune={selection.n_prune} clamped={_write_bool(selection.budget_clamped)}"
    )
    print(f"protected ({len(problem.protected)}):" + "".join(f" {i}" for i in problem.protected))
    print(f"pruned ({len(selection.pruned)}):" + "".join(f" {i}" for i in selection.pruned))
    print(f"error_sq={format_value(selection.error_sq)}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    out = cfg.out or "report.csv"
    if Path(out).is_dir() or not Path(out).parent.is_dir():  # refused before any cell runs
        raise OSError(f"cannot write the report to {out!r}: it is a directory, or its directory does not exist")
    report = run_experiment(cfg)
    write_report(report, out)
    print(f"wrote {out} ({len(report.rows)} rows)")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    summary = run_verification(base_seed=cfg.seeds[0])
    print(summary.format())
    return EXIT_OK if summary.passed else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="channelprune",
        description="Graph-guided channel pruning for attention-weight reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in (
        ("generate", "write synthetic GRCM matrix files", cmd_generate, ("--config", "--seed", "--out")),
        (
            "prune",
            "run one selection and print the pruned channels",
            cmd_prune,
            ("--config", "--seed", "--lambda", "--selector", "--protect", "--protect-bounds"),
        ),
        ("sweep", "run the experiment grid and write a CSV report", cmd_sweep, tuple(_FLAGS)),
        ("verify", "run the built-in invariant suites", cmd_verify, ("--config", "--seed")),
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])

    args = parser.parse_args(argv)
    try:
        return args.handler(build_config(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MatrixFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
