"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line with
its headline numbers (run pytest with -s to see them on success). Every
tolerance and runtime budget is asserted as stated; nothing is deferred.
"""

import time
from itertools import combinations, islice

import numpy as np
import pytest

from channelprune import (
    ChannelMatrix,
    IndexSet,
    Problem,
    ProtectionPolicy,
    Selector,
    SyntheticSpec,
    build_interaction_graph,
    generate_instance,
    protect_channels,
    quadratic_form,
    reconstruction_error_sq,
    restricted_eigenvalues,
)
from channelprune import prune
from channelprune.cli import ExperimentConfig, load_matrix, run_experiment, save_matrix, write_report
from channelprune.cli import selfcheck
from channelprune.cli.main import main as cli_main
from channelprune.graph import build_interaction_graph as real_build


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_decomposition_identity():
    # 500 instances, 5 random subsets each, |decomposed - direct| within
    # 1e-9 * max(1, value); runtime < 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checks = 0
    worst = 0.0
    for _ in range(500):
        l_k = int(rng.integers(4, 33))
        l_q = int(rng.integers(4, 33))
        d = int(rng.integers(2, 33))
        q = ChannelMatrix(rng.standard_normal((l_q, d)))
        k = ChannelMatrix(rng.standard_normal((l_k, d)))
        w = build_interaction_graph(q, k)
        for _ in range(5):
            size = int(rng.integers(0, d + 1))
            s = IndexSet(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))
            direct = reconstruction_error_sq(q, k, s)
            gap = abs(quadratic_form(w, s) - direct)
            assert gap <= 1e-9 * max(1.0, direct)
            worst = max(worst, gap / max(1.0, direct))
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 1 (decomposition identity)", f"{checks} checks, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_score_update_soundness():
    # 200 instances (d <= 32): every maintained greedy score equals the
    # directly evaluated quadratic form of pruned + candidate; < 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    checks = 0
    for _ in range(200):
        d = int(rng.integers(2, 33))
        q = ChannelMatrix(rng.standard_normal((int(rng.integers(4, 33)), d)))
        k = ChannelMatrix(rng.standard_normal((int(rng.integers(4, 33)), d)))
        problem = Problem(q, k)
        sel = problem.select(Selector.MIES, 0.5)
        steps: list[tuple[np.ndarray, np.ndarray]] = []  # `problem`'s greedy again, snapshotting each step
        list(islice(prune._greedy(problem.w, problem.candidates, steps), sel.n_prune))
        pruned: list[int] = []
        for step, (cands, scores) in enumerate(steps):
            for c, s in zip(cands, scores):
                f = quadratic_form(problem.w, IndexSet(tuple(pruned) + (int(c),)))
                assert abs(s - f) <= 1e-9 * max(1.0, abs(f))
                checks += 1
            pruned.append(sel.order[step])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2 (score-update soundness)", f"{checks} score checks, {elapsed:.1f}s")


def test_criterion_3_oracle_dominance_and_bound():
    # 200 instances, d = 10, n_prune = 5: the exhaustive minimum never
    # exceeds the greedy; where mu_min > 1e-8 the restricted-eigenvalue
    # bound f(greedy) <= kappa * f(optimal) + 1e-9 holds; < 2 min.
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    certified = 0
    for _ in range(200):
        q = ChannelMatrix(rng.standard_normal((16, 10)))
        k = ChannelMatrix(rng.standard_normal((16, 10)))
        w = build_interaction_graph(q, k)
        greedy = Problem(q, k).select(Selector.MIES, 0.5)
        exact = Problem(q, k).select(Selector.ORACLE, 0.5)
        assert greedy.n_prune == 5
        assert exact.error_sq <= greedy.error_sq
        cert = restricted_eigenvalues(w, 5)
        if cert.mu_min > 1e-8:
            assert greedy.error_sq <= cert.kappa * exact.error_sq + 1e-9
            certified += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "criterion 3 (oracle dominance and bound)",
        f"200 instances, bound certified on {certified}, {elapsed:.1f}s",
    )


def test_criterion_4_mies_vs_think_direction():
    # 500 synthetic instances at d = 64, lambda in {0.5, 0.6}: greedy mean
    # error below the independent-score baseline and win-or-tie >= 60%
    # per lambda; improvement magnitude is not asserted; < 1 min.
    start = time.perf_counter()
    details = []
    for lam in (0.5, 0.6):
        greedy_errors = []
        baseline_errors = []
        win_or_tie = 0
        for seed in range(500):
            q, k, _ = generate_instance(SyntheticSpec(seed=seed))
            m = Problem(q, k).select(Selector.MIES, lam).error_sq
            t = Problem(q, k).select(Selector.THINK, lam).error_sq
            greedy_errors.append(m)
            baseline_errors.append(t)
            win_or_tie += m <= t
        assert np.mean(greedy_errors) <= np.mean(baseline_errors)
        assert win_or_tie / 500 >= 0.60
        details.append(f"lam={lam}: win-or-tie {win_or_tie / 500:.1%}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 4 (greedy vs baseline direction)", f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_5_protection_mechanism():
    # Worked example: norms [1,1,1,1,10] with sigma 1 protect exactly {4}
    # (mean 2.8, population std 3.6, tau 6.4); both clamp directions are
    # exact with no tolerance.
    k = ChannelMatrix(np.array([[1.0, 1.0, 1.0, 1.0, 10.0]]))
    norms = np.array([1.0, 1.0, 1.0, 1.0, 10.0])
    assert norms.mean() == 2.8
    assert norms.std() == 3.6
    protected = protect_channels(k, ProtectionPolicy(threshold_sigma=1.0, a=0.05, b=0.25))
    assert protected.indices == (4,)
    # end-to-end clamp paths
    high = ChannelMatrix(np.array([[1.0, 1.0, 3.0, 3.0]]))  # p = 0.5 with sigma 0
    assert protect_channels(high, ProtectionPolicy(threshold_sigma=0.0, a=0.0, b=0.1)).indices == (2,)
    flat = ChannelMatrix(np.full((3, 4), 2.0))  # p = 0 -> a
    assert protect_channels(flat, ProtectionPolicy(threshold_sigma=1.0, a=0.25, b=0.5)).indices == (0,)
    report("criterion 5 (protection mechanism)", "worked example and clamp cases exact")


def test_criterion_6_drift_benefit():
    # Planted-outlier spec, 200 seeds: mean future relative error with
    # protection enabled <= disabled, one-sided 95% bootstrap; < 2 min.
    start = time.perf_counter()
    cfg = ExperimentConfig(
        d=128, outlier_fraction=0.05, outlier_scale=10.0, drift_gamma=0.5,
        lambdas=(0.6,), selectors=(Selector.MIES,), seeds=tuple(range(200)),
    )
    on, off = (run_experiment(cfg.with_updates(protect=flag)).rows for flag in (True, False))
    diffs = np.array([a.error_future - b.error_future for a, b in zip(on, off)])
    assert diffs.mean() <= 0.0
    boot_rng = np.random.default_rng(987654)
    boot_means = np.array(
        [diffs[boot_rng.integers(0, len(diffs), len(diffs))].mean() for _ in range(10000)]
    )
    upper95 = float(np.quantile(boot_means, 0.95))
    assert upper95 <= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "criterion 6 (drift benefit of protection)",
        f"mean diff {diffs.mean():.3e}, bootstrap 95th pct {upper95:.3e}, {elapsed:.1f}s",
    )


def test_criterion_7_psd_and_rayleigh_certificates():
    # Smallest eigenvalue of W >= -1e-8 * ||W||_F on 100 instances, and
    # mu_min * k <= f(S) <= mu_max * k for every enumerated support.
    rng = np.random.default_rng(1007)
    for _ in range(100):
        d = int(rng.integers(2, 33))
        q = ChannelMatrix(rng.standard_normal((int(rng.integers(4, 33)), d)))
        k = ChannelMatrix(rng.standard_normal((int(rng.integers(4, 33)), d)))
        w = build_interaction_graph(q, k)
        smallest = float(np.linalg.eigvalsh(w)[0])
        assert smallest >= -1e-8 * float(np.linalg.norm(w))
    supports = 0
    for i in range(10):
        rng2 = np.random.default_rng(2000 + i)
        q = ChannelMatrix(rng2.standard_normal((16, 10)))
        k = ChannelMatrix(rng2.standard_normal((16, 10)))
        w = build_interaction_graph(q, k)
        for ksize in (2, 3):
            cert = restricted_eigenvalues(w, ksize)
            for support in combinations(range(10), ksize):
                f = quadratic_form(w, IndexSet(support))
                assert cert.mu_min * ksize <= f <= cert.mu_max * ksize
                supports += 1
    report("criterion 7 (PSD and Rayleigh certificates)", f"100 PSD checks, {supports} supports")


def test_criterion_8_determinism_and_io(tmp_path, monkeypatch, capsys):
    # Identical configs give byte-identical CSV; GRCM round-trips are
    # bit-exact on 100 matrices; verify exits 0 clean and nonzero corrupted.
    cfg = ExperimentConfig(
        d=12, L=16, L_obs=8, L_future=8, seeds=tuple(range(4)),
        lambdas=(0.5, 0.6), oracle=True,
    )
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report(run_experiment(cfg), p1)
    write_report(run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    rng = np.random.default_rng(1008)
    for i in range(100):
        m = ChannelMatrix(rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9)))))
        path = tmp_path / f"rt{i}.grcm"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path).data, m.data)

    assert cli_main(["verify"]) == 0

    def corrupted(q, k):
        w = real_build(q, k).copy()
        w[0, 1] += 1.0
        return w

    monkeypatch.setattr(selfcheck, "build_interaction_graph", corrupted)
    assert cli_main(["verify"]) == 5
    capsys.readouterr()
    report("criterion 8 (determinism and I/O)", "CSV bytes stable, GRCM bit-exact, verify 0/5")
