"""Command-line interface.

Commands:
    generate  write synthetic GRCM matrix files
    prune     run one selection and print the result
    sweep     run the configured experiment grid, write a CSV report
    verify    run the built-in invariant suites

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format
error, 4 input-validation error, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..core import attention_norm
from ..errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    MatrixFormatError,
    MatrixValidationError,
)
from ..prune import Problem, protect_channels
from .config import _KEYS, ExperimentConfig, _apply_key, format_value, parse_config_file
from .experiment import load_instance, run_experiment, write_report
from .matrix_io import save_matrix
from .selfcheck import run_verification

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_INVARIANT = 5


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="single seed (overrides config seeds)")
    parser.add_argument("--lambda", dest="lambdas", metavar="X[,X...]", help="pruning ratio list")
    parser.add_argument("--selector", metavar="NAME[,NAME...]", help="selector list")
    parser.add_argument(
        "--protect", action=argparse.BooleanOptionalAction, default=None, help="toggle channel protection"
    )
    parser.add_argument("--protect-bounds", metavar="A,B", help="clamp bounds for the protected proportion")
    parser.add_argument("--oracle", action="store_true", default=None, help="also report the exact optimum and ratio")
    parser.add_argument("--timing", action="store_true", default=None, help="write wall-clock timings")
    parser.add_argument("--out", metavar="PATH", help="output path")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
    for key, text in (
        ("lambdas", args.lambdas),
        ("selectors", args.selector),
        ("protect_bounds", args.protect_bounds),
        ("out", args.out),
    ):
        if text is not None:
            cfg = _apply_key(cfg, key, text)
    typed = {
        "seeds": None if args.seed is None else (args.seed,),
        "protect": args.protect,
        "oracle": args.oracle,
        "timing": args.timing,
    }
    cfg = cfg.with_updates(**{key: value for key, value in typed.items() if value is not None})
    return cfg.validate()


def cmd_generate(cfg: ExperimentConfig) -> int:
    if cfg.out is None:
        raise ConfigError("generate requires --out DIRECTORY")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    _, q, k, q_future = load_instance(cfg.with_updates(mode="synthetic"), seed)
    for name, matrix in (("q_obs", q), ("k", k), ("q_future", q_future)):
        path = out_dir / f"{name}.grcm"
        save_matrix(matrix, path)
        print(f"wrote {path} ({matrix.rows}x{matrix.cols})")
    return EXIT_OK


def cmd_prune(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    _, q, k, _ = load_instance(cfg, seed)
    attention_norm(q, k, "observed")  # a zero or overflowing product is refused before selecting
    protected = protect_channels(k, cfg.policy())
    lam = cfg.lambdas[0]
    selector = cfg.selectors[0]
    selection = Problem(q, k, protected).select(selector, lam, seed=seed, cap=cfg.enumeration_cap)
    print(
        f"selector={selector.value} lambda={_KEYS['lambdas'][1]((lam,))} "
        f"n_prune={selection.n_prune} clamped={'true' if selection.budget_clamped else 'false'}"
    )
    print(f"protected ({len(protected)}):" + "".join(f" {i}" for i in protected))
    print(f"pruned ({len(selection.pruned)}):" + "".join(f" {i}" for i in selection.pruned))
    print(f"error_sq={format_value(selection.error_sq)}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    report = run_experiment(cfg)
    out = cfg.out or "report.csv"
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
    for name, help_text in (
        ("generate", "write synthetic GRCM matrix files"),
        ("prune", "run one selection and print the pruned channels"),
        ("sweep", "run the experiment grid and write a CSV report"),
        ("verify", "run the built-in invariant suites"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))

    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "prune": cmd_prune,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        cfg = build_config(args)
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MatrixFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MatrixValidationError, DegenerateInputError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
