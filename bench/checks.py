"""Output checks that feed `failed` / `attempted`.

Every value the program reports is compared with a quantity the benchmark
computes itself from the same inputs: exact budgets in rational
arithmetic, errors as ||Q_S K_S^T||_F^2 of the selected set, relative
errors against the benchmark's own denominators, and restricted
eigenvalues from numpy.linalg.eigvalsh over the same supports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

__all__ = [
    "REL_TOL",
    "CheckLog",
    "attention_norm",
    "check_bracket",
    "check_instance",
    "exact_budget",
    "pruned_error_sq",
    "rows_match",
]

REL_TOL = 1e-9


class CheckLog:
    """Counts checks attempted and keeps a description of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def close(value: float, reference: float, rel: float = REL_TOL) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def exact_budget(lam: float, d: int, n_protected: int) -> int:
    """min(ceil(lam * d), d - n_protected) with lam read as the decimal it prints as."""
    return min(math.ceil(Fraction(str(lam)) * d), d - n_protected)


def pruned_error_sq(q: np.ndarray, k: np.ndarray, pruned) -> float:
    """||Q_S K_S^T||_F^2: the attention-product change from zeroing channels S."""
    idx = np.asarray(tuple(pruned), dtype=np.intp)
    product = q[:, idx] @ k[:, idx].T
    return float(np.vdot(product, product))


def attention_norm(q: np.ndarray, k: np.ndarray) -> float:
    return float(np.linalg.norm(q @ k.T))


def _same(a, b, rel: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or close(a, b, rel)
    return a == b


def rows_match(rows, replayed, compare_approx: bool, rel: float = REL_TOL) -> bool:
    """Replayed rows equal the program's rows; numeric columns within `rel` relative."""
    if len(rows) != len(replayed):
        return False
    exact = ("instance", "seed", "selector", "lam", "protection", "n_prune", "n_protected")
    numeric = ("error_sq", "relative_error", "error_future") + (("approx_ratio",) if compare_approx else ())
    for row, other in zip(rows, replayed):
        if any(getattr(row, f) != getattr(other, f) for f in exact):
            return False
        if not all(_same(getattr(row, f), getattr(other, f), rel) for f in numeric):
            return False
    return True


def check_instance(log: CheckLog, output, replay, compare_approx: bool) -> None:
    """Check one sweep instance's rows (and its bracket, if any) against the replay."""
    cfg = output.report.config
    rows = output.report.rows
    seed = cfg.seeds[0]
    expected = [
        (seed, lam, sel.value)
        for lam in sorted(cfg.lambdas)
        for sel in sorted(cfg.selectors, key=lambda s: s.value)
    ]
    log.check(
        [(r.seed, r.lam, r.selector.value) for r in rows] == expected,
        f"seed {seed}: row count/order differs from the (lambda, selector) grid",
    )
    log.check(rows_match(rows, replay.rows, compare_approx), f"seed {seed}: replay rows differ")

    q, k, q_future = (m.data for m in replay.instance)
    denom_obs = attention_norm(q, k)
    denom_future = attention_norm(q_future, k)
    for row in rows:
        where = f"seed {seed} lambda {row.lam} {row.selector.value}"
        pruned = replay.pruned[(row.lam, row.selector)]
        budget = exact_budget(row.lam, k.shape[1], row.n_protected)
        log.check(row.n_prune == budget, f"{where}: n_prune {row.n_prune} != exact budget {budget}")
        reference = pruned_error_sq(q, k, pruned)
        log.check(close(row.error_sq, reference), f"{where}: error_sq {row.error_sq!r} != {reference!r}")
        relative = math.sqrt(reference) / denom_obs
        log.check(close(row.relative_error, relative), f"{where}: relative_error {row.relative_error!r} != {relative!r}")
        future = math.sqrt(pruned_error_sq(q_future, k, pruned)) / denom_future
        log.check(close(row.error_future, future), f"{where}: error_future {row.error_future!r} != {future!r}")
        if isinstance(row.approx_ratio, float):
            log.check(row.approx_ratio >= 1.0 - REL_TOL, f"{where}: approx_ratio {row.approx_ratio!r} < 1")
    if output.bracket is not None:
        check_bracket(log, output.bracket, seed)


def check_bracket(log: CheckLog, out, seed: int) -> None:
    """Greedy vs optimum errors, certificate extrema, and the kappa bracket."""
    q, k = out.q.data, out.k.data
    d = q.shape[1]
    budget = exact_budget(out.greedy.lam, d, 0)
    for label, sel in (("greedy", out.greedy), ("optimum", out.optimum)):
        where = f"seed {seed} bracket {label}"
        log.check(sel.n_prune == budget, f"{where}: n_prune {sel.n_prune} != exact budget {budget}")
        reference = pruned_error_sq(q, k, sel.pruned)
        log.check(close(sel.error_sq, reference), f"{where}: error_sq {sel.error_sq!r} != {reference!r}")
    log.check(
        out.greedy.error_sq >= (1.0 - REL_TOL) * out.optimum.error_sq,
        f"seed {seed} bracket: greedy {out.greedy.error_sq!r} below optimum {out.optimum.error_sq!r}",
    )

    w = (q.T @ q) * (k.T @ k)
    supports = np.array(list(combinations(range(d), out.cert.k)), dtype=np.intp)
    eig = np.linalg.eigvalsh(w[supports[:, :, None], supports[:, None, :]])
    tol = REL_TOL * float(np.linalg.norm(w))
    mu_min, mu_max = float(eig[:, 0].min()), float(eig[:, -1].max())
    log.check(abs(out.cert.mu_min - mu_min) <= tol, f"seed {seed}: mu_min {out.cert.mu_min!r} != eigvalsh {mu_min!r}")
    log.check(abs(out.cert.mu_max - mu_max) <= tol, f"seed {seed}: mu_max {out.cert.mu_max!r} != eigvalsh {mu_max!r}")
    if out.cert.mu_min > 1e-8:
        log.check(
            out.greedy.error_sq <= out.cert.kappa * out.optimum.error_sq + 1e-9,
            f"seed {seed}: kappa bracket violated",
        )
