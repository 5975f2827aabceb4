"""The benchmark's workloads, the program path each instance takes, and a
public-API replay of the same instance.

An instance is one seed's complete work in a workload. The untraced path
is what a user runs: `run_experiment` + `render_report` on a one-seed
config (plus, for the exact workload, the certificate bracket). The replay
makes the same calls through the library's public functions one by one,
so the traced run can put a span around each call and the output checks
can see every selected channel set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from channelprune import (
    CapacityError,
    ChannelMatrix,
    EigenCertificate,
    IndexSet,
    PruneSelection,
    Selector,
    build_interaction_graph,
    generate_instance,
    mies_select,
    oracle_select,
    protect_channels,
    random_select,
    reconstruction_error_sq,
    restricted_eigenvalues,
    think_select,
)
from channelprune.cli import ExperimentConfig, ExperimentReport, ReportRow, render_report, run_experiment
from channelprune.cli.experiment import ORACLE_SKIPPED

from checks import attention_norm, exact_budget
from tracing import Tracer, call, count

__all__ = [
    "WORKLOADS",
    "Bracket",
    "BracketOutput",
    "InstanceOutput",
    "Replay",
    "Workload",
    "instance_seed",
    "replay_instance",
    "run_bracket",
    "run_instance",
    "set_up",
    "work_counts",
]

SEED_STRIDE = 1_000_000
WARMUP_INDEX = SEED_STRIDE - 1  # never reached by a timed run
SWEEP_SELECTORS = (Selector.MIES, Selector.THINK, Selector.RANDOM)


def instance_seed(workload_seed: int, index: int) -> int:
    """Seed of the index-th instance; workload seeds own disjoint ranges."""
    return workload_seed * SEED_STRIDE + index


@dataclass(frozen=True)
class Bracket:
    """The exact-certificate step: rows x d standard-normal q and k."""

    rows: int = 16
    d: int = 10
    lam: float = 0.5
    support: int = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: ExperimentConfig
    # Instances per second at the seed commit. It fixes the traced run's
    # instance count from --seconds alone, so span counts repeat exactly.
    trace_rate: float
    bracket: Bracket | None = None


_SWEEP = ExperimentConfig(lambdas=(0.3, 0.5, 0.7), selectors=SWEEP_SELECTORS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-d64",
            why=(
                "d=64 L=64: per-cell Python in prune.mies/think/random_select drives instances_per_s "
                "and p90; BLAS nearly idle; oracle and Jacobi never run"
            ),
            config=_SWEEP.with_updates(d=64, L=64, L_obs=32, L_future=32),
            trace_rate=200.0,
        ),
        Workload(
            name="sweep-d128-L1024",
            why=(
                "1024 key rows: core.reconstruction_error_sq, sim.generate_instance and the "
                "Gram/W build drive instances_per_s and p90; oracle and Jacobi never run"
            ),
            config=_SWEEP.with_updates(d=128, L=1024, L_obs=32, L_future=32),
            trace_rate=36.0,
        ),
        Workload(
            name="exact-d20",
            why=(
                "only workload running the oracle and Jacobi certificates (most of its time): their "
                "subsets_per_s and us_per_support drive instances_per_s, p90 and peak_rss_mb"
            ),
            config=_SWEEP.with_updates(d=20, L=64, L_obs=32, L_future=32, lambdas=(0.5,), oracle=True),
            trace_rate=3.5,
            bracket=Bracket(),
        ),
    )
}


@dataclass(frozen=True)
class BracketOutput:
    q: ChannelMatrix
    k: ChannelMatrix
    greedy: PruneSelection
    optimum: PruneSelection
    cert: EigenCertificate


@dataclass(frozen=True)
class InstanceOutput:
    seed: int
    report: ExperimentReport
    text: str
    bracket: BracketOutput | None


@dataclass(frozen=True)
class Replay:
    rows: tuple[ReportRow, ...]
    instance: tuple[ChannelMatrix, ChannelMatrix, ChannelMatrix]
    pruned: dict[tuple[float, Selector], IndexSet]
    bracket: BracketOutput | None


def run_bracket(shape: Bracket, seed: int, tracer: Tracer | None = None) -> BracketOutput:
    """Greedy, exhaustive optimum and exact restricted eigenvalues on one draw."""
    rng = np.random.default_rng([seed, 1])  # its own stream, apart from generate_instance's
    q = ChannelMatrix(rng.standard_normal((shape.rows, shape.d)))
    k = ChannelMatrix(rng.standard_normal((shape.rows, shape.d)))
    greedy = call(tracer, "prune.mies_select", mies_select, q, k, shape.lam)
    optimum = call(tracer, "prune.oracle_select", oracle_select, q, k, shape.lam)
    count(tracer, "prune.oracle_select.subsets", math.comb(shape.d, optimum.n_prune))
    graph = call(tracer, "graph.build_interaction_graph", build_interaction_graph, q, k)
    cert = call(tracer, "graph.restricted_eigenvalues", restricted_eigenvalues, graph, shape.support)
    count(tracer, "graph.restricted_eigenvalues.supports", math.comb(shape.d, shape.support))
    return BracketOutput(q, k, greedy, optimum, cert)


def run_instance(workload: Workload, seed: int) -> InstanceOutput:
    """The untraced program path for one instance."""
    report = run_experiment(workload.config.with_updates(seeds=(seed,)))
    text = render_report(report)
    bracket = run_bracket(workload.bracket, seed) if workload.bracket else None
    return InstanceOutput(seed, report, text, bracket)


def set_up(workload: Workload) -> None:
    """Config validation and one warm-up instance."""
    workload.config.validate()
    run_instance(workload, instance_seed(0, WARMUP_INDEX))


def _select(tracer, selector: Selector, q, k, lam: float, protected: IndexSet, seed: int) -> PruneSelection:
    name = f"prune.{selector.value}_select"
    if selector is Selector.MIES:
        return call(tracer, name, mies_select, q, k, lam, protected)
    if selector is Selector.THINK:
        return call(tracer, name, think_select, q, k, lam, protected)
    if selector is Selector.RANDOM:
        return call(tracer, name, random_select, q, k, lam, protected, seed=seed)
    raise ValueError(f"the replay has no sweep selector {selector.value!r}")


def _optimum(tracer, q, k, lam: float, protected: IndexSet, cap: int) -> float | str:
    try:
        optimum = call(tracer, "prune.oracle_select", oracle_select, q, k, lam, protected, cap=cap)
    except CapacityError:
        count(tracer, "prune.oracle_select.skipped", 1)
        return ORACLE_SKIPPED
    count(tracer, "prune.oracle_select.subsets", math.comb(q.cols - len(protected), optimum.n_prune))
    return optimum.error_sq


def _approx_ratio(error_sq: float, optimum: float) -> float:
    if optimum > 0.0:
        return error_sq / optimum
    return 1.0 if error_sq <= 0.0 else math.inf


def replay_instance(workload: Workload, seed: int, tracer: Tracer | None = None, oracle: bool = True) -> Replay:
    """Make the instance's calls one by one, in `run_experiment`'s order.

    With `oracle=False` the oracle is not called and `approx_ratio` is
    left empty; the output checks use that form, because every other
    column needs only the cheap selectors.
    """
    cfg = workload.config.with_updates(seeds=(seed,))
    q, k, q_future = call(tracer, "sim.generate_instance", generate_instance, cfg.synthetic_spec(seed))
    protected = call(tracer, "prune.protect_channels", protect_channels, k, cfg.policy())
    count(tracer, "prune.protect_channels.protected", len(protected))
    denom_obs = attention_norm(q.data, k.data)
    denom_future = attention_norm(q_future.data, k.data)

    rows = []
    pruned = {}
    for lam in cfg.lambdas:
        optimum_by_budget: dict[int, float | str] = {}
        for selector in cfg.selectors:
            sel = _select(tracer, selector, q, k, lam, protected, seed)
            count(tracer, "prune.budget_clamped", sel.budget_clamped)
            future_sq = call(tracer, "core.reconstruction_error_sq", reconstruction_error_sq, q_future, k, sel.pruned)
            approx = None
            if cfg.oracle and oracle:
                if sel.n_prune not in optimum_by_budget:
                    optimum_by_budget[sel.n_prune] = _optimum(tracer, q, k, lam, protected, cfg.enumeration_cap)
                optimum = optimum_by_budget[sel.n_prune]
                approx = optimum if isinstance(optimum, str) else _approx_ratio(sel.error_sq, optimum)
            pruned[(lam, selector)] = sel.pruned
            rows.append(
                ReportRow(
                    instance=f"syn-{seed}",
                    seed=seed,
                    selector=selector,
                    lam=lam,
                    protection=cfg.protect,
                    n_prune=sel.n_prune,
                    n_protected=len(protected),
                    error_sq=sel.error_sq,
                    relative_error=math.sqrt(sel.error_sq) / denom_obs,
                    error_future=math.sqrt(future_sq) / denom_future,
                    approx_ratio=approx,
                    wall_time_ms=0.0,
                )
            )
    rows.sort(key=lambda r: (r.seed, r.lam, r.selector.value))
    report = ExperimentReport(config=cfg, rows=tuple(rows))
    call(tracer, "cli.experiment.render_report", render_report, report)
    bracket = run_bracket(workload.bracket, seed, tracer) if workload.bracket else None
    return Replay(report.rows, (q, k, q_future), pruned, bracket)


def work_counts(workload: Workload, rows) -> dict[str, float]:
    """Computed, not measured: per-instance work implied by the workload's sizes.

    FLOPs count one W = Gram(Q) o Gram(K) build per matrix pair and one
    ||Q_S K_S^T||_F^2 evaluation per reported error (observed and future),
    at the sizes and budgets in `rows`; bytes count the float64 inputs
    generated. Averaged over the instances whose rows are given.
    """
    cfg = workload.config
    d = cfg.d
    n_instances = len({r.seed for r in rows})
    w_flops = 2 * d * d * (cfg.L_obs + cfg.L) + d * d
    evaluator = sum((2 * r.n_prune + 2) * cfg.L * (cfg.L_obs + cfg.L_future) for r in rows) / n_instances
    generated = 8 * d * (cfg.L_obs + cfg.L + cfg.L_future)
    if workload.bracket is not None:
        b = workload.bracket
        n = exact_budget(b.lam, b.d, 0)
        w_flops += 4 * b.d * b.d * b.rows + b.d * b.d
        evaluator += 2 * (2 * n * b.rows + 2 * b.rows) * b.rows
        generated += 8 * 2 * b.rows * b.d
    return {
        "work.w_build_flops_per_instance": float(w_flops),
        "work.evaluator_flops_per_instance": float(evaluator),
        "work.bytes_generated_per_instance": float(generated),
    }
