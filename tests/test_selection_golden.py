"""Bit-for-bit golden selections of the benchmark's sweep configs.

`tests/data/selection_golden.json` holds, for seeds 0-11 of each of the
d=64/L=64, d=128/L=1024 and d=20/L=64 synthetic configs (protection on):
the protected set, the full mies and think removal orders, and the
`float.hex` of `error_sq`, `relative_error` and `error_future` of every
(lambda in {0.3, 0.5, 0.7}, selector in {mies, think, random}) cell of
`run_experiment`. It pins the instance draw, the protection norms, the
greedy, the W build, the attention norms and the evaluator at the sizes
the benchmark runs; a change to any of their summation orders shows here
as a changed set or bit.

The bits must not depend on the BLAS thread count: the same cells, and
the oracle and certificate goldens, are also computed in subprocesses
with `OPENBLAS_NUM_THREADS` at 1, 2 and 4. There, too, each d=128/L=1024
cell's two errors, which `Problem.select` takes from one GEMM over the
stacked query windows, must equal two one-window evaluator calls: BLAS
may split the stacked product's rows differently across threads.

Regenerate with `PYTHONPATH=src python tests/test_selection_golden.py`
only when a change is meant to move these bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from channelprune import Selector, reconstruction_error_sq
from channelprune.cli import ExperimentConfig, run_experiment
from channelprune.cli.experiment import load_problem

GOLDEN = Path(__file__).parent / "data" / "selection_golden.json"

_SWEEP = ExperimentConfig(lambdas=(0.3, 0.5, 0.7), selectors=(Selector.MIES, Selector.THINK, Selector.RANDOM))
CONFIGS = {
    "d64-L64": _SWEEP.with_updates(d=64, L=64, L_obs=32, L_future=32),
    "d128-L1024": _SWEEP.with_updates(d=128, L=1024, L_obs=32, L_future=32),
    "d20-L64": _SWEEP.with_updates(d=20, L=64, L_obs=32, L_future=32),
}
SEEDS = tuple(range(12))


def selection_values() -> dict:
    out = {}
    for name, cfg in CONFIGS.items():
        cases = []
        for seed in SEEDS:
            _, problem = load_problem(cfg, seed)
            cells = [
                {
                    "lambda": row.lam,
                    "selector": row.selector.value,
                    "error_sq": row.error_sq.hex(),
                    "relative_error": row.relative_error.hex(),
                    "error_future": row.error_future.hex(),
                }
                for row in run_experiment(cfg.with_updates(seeds=(seed,))).rows
            ]
            cases.append(
                {
                    "seed": seed,
                    "protected": list(problem.protected),
                    "mies": list(problem.select(Selector.MIES, 1.0).order),
                    "think": list(problem.select(Selector.THINK, 1.0).order),
                    "cells": cells,
                }
            )
        out[name] = cases
    return out


def stacked_mismatches(name: str = "d128-L1024", seed: int = 0) -> list[str]:
    """Cells of a golden instance whose stacked errors differ from one-window evaluator calls."""
    cfg = CONFIGS[name]
    _, problem = load_problem(cfg, seed)
    q, k, q_future = problem.q, problem.k, problem.q_future
    mismatches = []
    for lam in cfg.lambdas:
        for selector in cfg.selectors:
            sel = problem.select(selector, lam, seed=seed)
            alone = (reconstruction_error_sq(q, k, sel.pruned), reconstruction_error_sq(q_future, k, sel.pruned))
            if (sel.error_sq.hex(), sel.error_future_sq.hex()) != tuple(e.hex() for e in alone):
                mismatches.append(f"{selector.value} lambda={lam}")
    return mismatches


def test_selections_match_golden_bits():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = selection_values()
    assert list(actual) == list(expected) == list(CONFIGS)
    for name in CONFIGS:
        assert len(actual[name]) == len(expected[name]) == len(SEEDS)
        for want, got in zip(expected[name], actual[name]):
            assert len(got["cells"]) == 9
            assert got == want, f"{name} seed {want['seed']}"


def _golden_values_with_blas_threads(threads: int) -> dict:
    """The selection, oracle and certificate golden values, and the stacked-error mismatches,
    from a fresh interpreter whose OpenBLAS runs `threads` threads."""
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import json, test_selection_golden as s, test_oracle_golden as o, test_certificate_golden as c; "
        "print(json.dumps({'selection': s.selection_values(), 'oracles': o.oracle_values(), "
        "'certificate': c.certificate_values(), 'stacked': s.stacked_mismatches()}))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=here, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_selection_bits_do_not_depend_on_blas_threads():
    data = GOLDEN.parent
    expected = {
        "selection": json.loads(GOLDEN.read_text(encoding="utf-8")),
        "oracles": json.loads((data / "oracle_golden.json").read_text(encoding="utf-8"))["oracles"],
        "certificate": json.loads((data / "certificate_golden.json").read_text(encoding="utf-8")),
    }
    for threads in (1, 2, 4):
        values = _golden_values_with_blas_threads(threads)
        assert values.pop("stacked") == [], f"OPENBLAS_NUM_THREADS={threads}"
        assert values == expected, f"OPENBLAS_NUM_THREADS={threads}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(selection_values(), indent=1) + "\n", encoding="utf-8")
