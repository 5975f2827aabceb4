"""Bit-for-bit golden sets of the oracle on tie-heavy inputs.

`tests/data/oracle_golden.json` holds the `pruned` set and `error_sq.hex()`
that `Problem(q, k, protected).select(Selector.ORACLE, lam)` returned when it
enumerated every subset and compared the gathered sum of each subset's
principal submatrix and nothing else.
The branch and bound must reproduce them. The inputs make many subsets
tie or nearly tie:

- duplicated channels: columns 8..15 copy a permutation of columns 0..7,
  so tied sets differ only in the order their entries are summed, and the
  gathered sums and a matrix-product score disagree on the first minimum;
- small integers in {-2..2} on two rows: exact ties between distinct sets;
- a third of the channels zeroed, with a budget below the zero count: six
  sets score exactly 0;
- duplicated channels with q and k scaled so W reaches about 1e302, or
  shrunk to about 1e-298.

The third case of each of the first three kinds protects channels 0 and
9. Then comes the benchmark's exact-d20 instance at seed 0: d = 20, one
protected channel, C(19, 10) = 92,378 subsets. The last three are the
same config at d = 24, seeds 0-2: two protected channels, C(22, 12) =
646,646 subsets each. Any change to how values are compared, or to which
of several tied subsets wins, shows here as a changed set or bit.
"""

import json
from pathlib import Path

import numpy as np

from channelprune import ChannelMatrix, IndexSet, Problem, Selector
from channelprune.cli import ExperimentConfig
from channelprune.cli.experiment import load_problem

GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"

EXACT_D20 = ExperimentConfig().with_updates(d=20, L=64, L_obs=32, L_future=32, lambdas=(0.5,), oracle=True)


def _inputs(kind: str, i: int) -> tuple[np.ndarray, np.ndarray, float]:
    """q, k and the pruning ratio of one case."""
    rng = np.random.default_rng(6000 + 100 * CASE_KINDS.index(kind) + i)
    if kind == "integers":  # two rows of {-2..2}: several sets share the exact minimum
        return rng.integers(-2, 3, (2, 16)).astype(np.float64), rng.integers(-2, 3, (2, 16)).astype(np.float64), 0.5
    if kind == "zeroed":  # 6 zero channels of 18 and a budget of 5: six sets score exactly 0
        q, k = rng.standard_normal((12, 18)), rng.standard_normal((12, 18))
        q[:, rng.choice(18, size=6, replace=False)] = 0.0
        return q, k, 0.25
    q, k = rng.standard_normal((12, 16)), rng.standard_normal((12, 16))
    source = rng.permutation(8)
    q[:, 8:], k[:, 8:] = q[:, source], k[:, source]
    scale_q, scale_k = {"duplicated": (1.0, 1.0), "huge": (1e100, 1e50), "huge-q": (1e150, 1.0), "tiny": (1e-100, 1e-50)}[kind]
    return q * scale_q, k * scale_k, 0.5


CASE_KINDS = ("duplicated", "integers", "zeroed", "huge", "huge-q", "tiny")
CASES = [(kind, i) for kind in CASE_KINDS[:3] for i in range(3)] + [(kind, 0) for kind in CASE_KINDS[3:]]


def oracle_values() -> list[dict]:
    out = []
    for kind, i in CASES:
        q, k, lam = _inputs(kind, i)
        protected = IndexSet((0, 9)) if i == 2 else IndexSet.empty()
        sel = Problem(ChannelMatrix(q), ChannelMatrix(k), protected).select(Selector.ORACLE, lam)
        out.append({"case": f"{kind}-{i}", "pruned": list(sel.pruned), "error_sq": sel.error_sq.hex()})
    for d, seeds in ((20, (0,)), (24, (0, 1, 2))):
        cfg = EXACT_D20.with_updates(d=d)
        for seed in seeds:
            _, problem = load_problem(cfg, seed)
            sel = problem.select(Selector.ORACLE, 0.5)
            out.append({"case": f"exact-d{d}-{seed}", "pruned": list(sel.pruned), "error_sq": sel.error_sq.hex()})
    return out


def test_oracle_matches_golden_bits():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["oracles"]
    actual = oracle_values()
    assert len(actual) == len(expected) == len(CASES) + 4
    for want, got in zip(expected, actual):
        assert got == want, want["case"]
