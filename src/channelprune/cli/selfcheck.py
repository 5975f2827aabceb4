"""Built-in invariant suites for the `verify` command.

Each suite replays a core identity of the method on seeded random
instances: the error decomposition, the greedy score maintenance, the
exact minimum's dominance over the greedy, and the spectral properties
of the interaction matrix. A correct build passes every check; any violation is
reported with the seed that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..core import ChannelMatrix, IndexSet, reconstruction_error_sq
from ..graph import build_interaction_graph, quadratic_form
from ..prune import Problem, Selector, _greedy

__all__ = ["SuiteResult", "VerificationSummary", "run_verification"]

REL_TOL = 1e-9
INSTANCES = 25  # instances per suite; the decomposition suite runs twice as many


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerificationSummary:
    suites: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def format(self) -> str:
        lines = []
        for suite in self.suites:
            status = "ok" if suite.passed else "FAIL"
            lines.append(f"{suite.name}: {suite.checks - len(suite.failures)}/{suite.checks} {status}")
            lines.extend(f"  {failure}" for failure in suite.failures[:5])
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _random_instance(rng: np.random.Generator, d_max: int = 16) -> tuple[ChannelMatrix, ChannelMatrix]:
    d = int(rng.integers(2, d_max + 1))
    rows_q = int(rng.integers(4, 25))
    rows_k = int(rng.integers(4, 25))
    q = ChannelMatrix(rng.standard_normal((rows_q, d)))
    k = ChannelMatrix(rng.standard_normal((rows_k, d)))
    return q, k


def _random_subset(rng: np.random.Generator, d: int) -> IndexSet:
    size = int(rng.integers(0, d + 1))
    return IndexSet(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))


def _check_decomposition(rng: np.random.Generator, instances: int) -> SuiteResult:
    result = SuiteResult("decomposition-identity")
    for i in range(instances):
        q, k = _random_instance(rng)
        w = build_interaction_graph(q, k)
        for _ in range(5):
            s = _random_subset(rng, q.cols)
            direct = reconstruction_error_sq(q, k, s)
            decomposed = quadratic_form(w, s)
            result.checks += 1
            if abs(decomposed - direct) > REL_TOL * max(1.0, direct):
                result.failures.append(f"instance {i}: |{decomposed} - {direct}| above tolerance")
    return result


def _check_score_updates(rng: np.random.Generator, instances: int) -> SuiteResult:
    result = SuiteResult("score-update-soundness")
    for i in range(instances):
        problem = Problem(*_random_instance(rng))
        selection = problem.select(Selector.MIES, 0.5)
        steps: list[tuple[np.ndarray, np.ndarray]] = []  # `problem`'s greedy again, snapshotting each step
        list(islice(_greedy(problem.w, problem.candidates, steps), selection.n_prune))
        pruned_so_far: list[int] = []
        for step, (candidates, scores) in enumerate(steps):
            for c, s in zip(candidates, scores):
                expected = quadratic_form(problem.w, IndexSet(tuple(pruned_so_far) + (int(c),)))
                result.checks += 1
                if abs(s - expected) > REL_TOL * max(1.0, abs(expected)):
                    result.failures.append(
                        f"instance {i} step {step} candidate {c}: score {s} != {expected}"
                    )
            pruned_so_far.append(selection.order[step])
    return result


def _check_oracle_dominance(rng: np.random.Generator, instances: int) -> SuiteResult:
    result = SuiteResult("oracle-dominance")
    for i in range(instances):
        d = int(rng.integers(4, 9))
        q = ChannelMatrix(rng.standard_normal((12, d)))
        k = ChannelMatrix(rng.standard_normal((12, d)))
        problem = Problem(q, k)
        greedy = problem.select(Selector.MIES, 0.5)
        exact = problem.select(Selector.ORACLE, 0.5)
        result.checks += 1
        if exact.error_sq > greedy.error_sq:
            result.failures.append(
                f"instance {i}: oracle {exact.error_sq} exceeds greedy {greedy.error_sq}"
            )
    return result


def _check_psd(rng: np.random.Generator, instances: int) -> SuiteResult:
    result = SuiteResult("psd-and-symmetry")
    for i in range(instances):
        q, k = _random_instance(rng, d_max=12)
        w = build_interaction_graph(q, k)
        result.checks += 1
        if not np.array_equal(w, w.T):
            result.failures.append(f"instance {i}: interaction matrix not symmetric")
            continue
        low = np.linalg.eigvalsh(w)[0]
        floor = -1e-8 * float(np.linalg.norm(w))
        if low < floor:
            result.failures.append(f"instance {i}: eigenvalue {low} below PSD floor {floor}")
    return result


def run_verification(base_seed: int = 0) -> VerificationSummary:
    """Run every invariant suite on seeded instances."""
    suites = [
        _check_decomposition(np.random.default_rng(base_seed), INSTANCES * 2),
        _check_score_updates(np.random.default_rng(base_seed + 1), INSTANCES),
        _check_oracle_dominance(np.random.default_rng(base_seed + 2), INSTANCES),
        _check_psd(np.random.default_rng(base_seed + 3), INSTANCES),
    ]
    return VerificationSummary(suites=suites)
