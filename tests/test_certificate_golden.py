"""Bit-for-bit golden values of the certificates and the oracle.

`tests/data/certificate_golden.json` holds `float.hex` strings: `exact_k5`
is `restricted_eigenvalues(W, 5)` (one LAPACK `eigvalsh` per chunk of
supports), and the oracle cases come from the list-of-tuples loop that
the branch and bound replaced. Any change to the chunking, the
tie-break or the eigensolver shows here as a changed bit.

The oracle cases prune 8 of 16 channels: C(16, 8) = 12,870 subsets, so the
minimum is carried across four chunks of 4096. The last case has every
subset tied, so it pins the lexicographic tie-break across chunks. The
last certificate case has three zero channels, so 231 of its 252 supports
hold an exact zero eigenvalue and tie, up to rounding, at mu_min. The
oracle cases' `error_sq` is the evaluator's, so it moves with the
evaluator's summation order.
"""

import json
from pathlib import Path

import numpy as np

from channelprune import ChannelMatrix, Problem, Selector, build_interaction_graph, restricted_eigenvalues

GOLDEN = Path(__file__).parent / "data" / "certificate_golden.json"


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def certificate_values() -> dict:
    certificates = []
    for i in range(21):
        rng = np.random.default_rng(3000 + i)
        q = rng.standard_normal((16, 10))
        k = rng.standard_normal((16, 10))
        if i == 20:  # zero channels: zero rows and columns in W, so most supports are singular
            q[:, [1, 4, 7]] = 0.0
        exact = restricted_eigenvalues(build_interaction_graph(ChannelMatrix(q), ChannelMatrix(k)), 5)
        certificates.append({"exact_k5": _hex((exact.mu_min, exact.mu_max))})
    instances = []
    for i in range(5):
        rng = np.random.default_rng(4000 + i)
        instances.append((rng.standard_normal((12, 16)), rng.standard_normal((12, 16))))
    instances.append((np.ones((12, 16)), np.ones((12, 16))))  # every subset ties
    oracles = []
    for q, k in instances:
        sel = Problem(ChannelMatrix(q), ChannelMatrix(k)).select(Selector.ORACLE, 0.5)
        oracles.append({"pruned": list(sel.pruned), "error_sq": sel.error_sq.hex()})
    return {"certificates": certificates, "oracles": oracles}


def test_certificates_and_oracle_match_golden_bits():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = certificate_values()
    for i, (want, got) in enumerate(zip(expected["certificates"], actual["certificates"])):
        assert got == want, f"certificate instance {i}"
    for i, (want, got) in enumerate(zip(expected["oracles"], actual["oracles"])):
        assert got == want, f"oracle instance {i}"
    assert len(actual["certificates"]) == len(expected["certificates"]) == 21
    assert len(actual["oracles"]) == len(expected["oracles"]) == 6

