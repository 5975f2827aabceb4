"""Bit-for-bit golden values of the certificates, Jacobi and the oracle.

`tests/data/certificate_golden.json` holds `float.hex` strings computed by
the per-support scalar Jacobi and the list-of-tuples oracle loop that the
stacked kernels replaced. Any change to the sweep order, the rotation
arithmetic, the chunking or the tie-break shows here as a changed bit.

The oracle cases prune 8 of 16 channels: C(16, 8) = 12,870 subsets, so the
minimum is carried across four chunks of 4096. The last case has every
subset tied, so it pins the lexicographic tie-break across chunks. The
last certificate case has three zero channels, so signed zeros can appear,
and the equal-diagonal cases pin the sign of the rotation at theta = -0.0.
The oracle cases' `error_sq` is the evaluator's, so it moves with the
evaluator's summation order.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np

from channelprune import (
    ChannelMatrix,
    build_interaction_graph,
    jacobi_eigenvalues,
    oracle_select,
    restricted_eigenvalues,
)
from channelprune import graph

GOLDEN = Path(__file__).parent / "data" / "certificate_golden.json"


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def certificate_values() -> dict:
    certificates = []
    for i in range(21):
        rng = np.random.default_rng(3000 + i)
        q = rng.standard_normal((16, 10))
        k = rng.standard_normal((16, 10))
        if i == 20:  # zero channels: zero rows and columns in W, where signed zeros can appear
            q[:, [1, 4, 7]] = 0.0
        g = build_interaction_graph(ChannelMatrix(q), ChannelMatrix(k))
        exact = restricted_eigenvalues(g, 5)
        certificates.append(
            {"exact_k5": _hex((exact.mu_min, exact.mu_max)), "jacobi_w": _hex(jacobi_eigenvalues(g.w))}
        )
    equal_diagonal = []
    for i in range(3):  # theta = -0.0 at pair (0, 1): the rotation must take t = +1
        rng = np.random.default_rng(5000 + i)
        a = rng.standard_normal((4, 4)).round(2)
        a = a + a.T
        np.fill_diagonal(a, 1.5)
        a[0, 1] = a[1, 0] = -abs(a[0, 1])
        equal_diagonal.append(_hex(jacobi_eigenvalues(a)))
    instances = []
    for i in range(5):
        rng = np.random.default_rng(4000 + i)
        instances.append((rng.standard_normal((12, 16)), rng.standard_normal((12, 16))))
    instances.append((np.ones((12, 16)), np.ones((12, 16))))  # every subset ties
    oracles = []
    for q, k in instances:
        sel = oracle_select(ChannelMatrix(q), ChannelMatrix(k), 0.5)
        oracles.append({"pruned": list(sel.pruned), "error_sq": sel.error_sq.hex()})
    return {"certificates": certificates, "equal_diagonal": equal_diagonal, "oracles": oracles}


def test_certificates_and_oracle_match_golden_bits():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = certificate_values()
    for i, (want, got) in enumerate(zip(expected["certificates"], actual["certificates"])):
        assert got == want, f"certificate instance {i}"
    assert actual["equal_diagonal"] == expected["equal_diagonal"]
    for i, (want, got) in enumerate(zip(expected["oracles"], actual["oracles"])):
        assert got == want, f"oracle instance {i}"
    assert len(actual["certificates"]) == len(expected["certificates"]) == 21
    assert len(actual["oracles"]) == len(expected["oracles"]) == 6


def test_certificate_screen_sends_few_supports_to_jacobi():
    solved = []

    def recording_jacobi(stack):
        solved.append(len(stack))
        return jacobi_eigenvalues(stack)

    with mock.patch.object(graph, "jacobi_eigenvalues", recording_jacobi):
        actual = certificate_values()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert actual["certificates"] == expected["certificates"]
    # One Jacobi call per certificate, over C(10, 5) = 252 supports each. On the 20 random
    # brackets only the supports near an extreme are solved; the last case is left out, since
    # its 231 supports holding a zero channel all tie at mu_min = 0 and each must be solved.
    assert len(solved) == 21
    assert max(solved[:20]) <= 8
