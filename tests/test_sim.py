import math

import numpy as np
import pytest

from channelprune import (
    ChannelMatrix,
    DegenerateInputError,
    Problem,
    ProtectionPolicy,
    Selector,
    SyntheticSpec,
    generate_instance,
    protect_channels,
    reconstruction_error_sq,
)
from channelprune.cli import ExperimentConfig, run_experiment, save_matrix
from channelprune.sim import planted_outliers

PLANTED = dict(d=128, outlier_fraction=0.05, outlier_scale=10.0, drift_gamma=0.5)


class TestSpecValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SyntheticSpec(d=0)
        with pytest.raises(ValueError):
            SyntheticSpec(L=4, L_obs=5)

    def test_rejects_bad_fractions_and_scales(self):
        with pytest.raises(ValueError):
            SyntheticSpec(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(outlier_scale=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(drift_gamma=-0.1)


class TestGenerate:
    def test_shapes(self):
        spec = SyntheticSpec(d=10, L=20, L_obs=6, L_future=7, seed=1)
        q, k, qf = generate_instance(spec)
        assert (q.rows, q.cols) == (6, 10)
        assert (k.rows, k.cols) == (20, 10)
        assert (qf.rows, qf.cols) == (7, 10)

    def test_bit_identical_determinism(self):
        spec = SyntheticSpec(seed=42)
        a = generate_instance(spec)
        b = generate_instance(spec)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.data, mb.data)

    def test_different_seeds_differ(self):
        a = generate_instance(SyntheticSpec(seed=0))
        b = generate_instance(SyntheticSpec(seed=1))
        assert not np.array_equal(a[1].data, b[1].data)

    def test_zero_drift_collapses_queries_to_means(self):
        # With drift_gamma = 0 both query laws are the deterministic means,
        # so observed and future queries are identical row for row.
        q, _, qf = generate_instance(SyntheticSpec(d=12, drift_gamma=0.0, seed=5))
        assert np.array_equal(q.data[0], qf.data[0])
        assert np.all(q.data == q.data[0])
        assert np.all(qf.data == q.data[0])

    def test_planted_outliers_take_top_norms(self):
        # Monte-Carlo: over 1000 seeds the ceil(0.05 * 128) = 7 planted
        # channels are exactly the top-7 key norms on >= 99% of draws
        # (measured 0.998 on this seed range).
        hits = 0
        n_out = math.ceil(0.05 * 128)
        for seed in range(1000):
            spec = SyntheticSpec(seed=seed, **PLANTED)
            _, k, _ = generate_instance(spec)
            norms = np.sqrt((k.data**2).sum(axis=0))
            top = set(np.argsort(-norms)[:n_out].tolist())
            hits += top == set(planted_outliers(spec).tolist())
        assert hits / 1000 >= 0.99

    def test_energy_concentration_per_seed(self):
        n_out = math.ceil(0.05 * 128)
        for seed in range(300):
            _, k, _ = generate_instance(SyntheticSpec(seed=seed, **PLANTED))
            energy = (k.data**2).sum(axis=0)
            top = np.sort(energy)[::-1][:n_out]
            assert top.sum() > 0.5 * energy.sum()

    def test_outlier_count_is_exact(self):
        # A float ceil(0.07 * 100) plants 8: the product is 7.000000000000001.
        assert len(planted_outliers(SyntheticSpec(d=100, outlier_fraction=0.07))) == 7

    def test_no_outliers_tail_mass(self):
        # outlier_scale = 1: the raw exceedance proportion concentrates near
        # the lognormal tail mass (distributional check, not a point value;
        # measured mean 0.147, range [0.086, 0.203] on these seeds).
        wide_open = ProtectionPolicy(a=0.0, b=1.0)
        ps = []
        for seed in range(200):
            _, k, _ = generate_instance(
                SyntheticSpec(d=128, outlier_fraction=0.0, outlier_scale=1.0, seed=seed)
            )
            ps.append(len(protect_channels(k, wide_open)) / 128)
        ps = np.asarray(ps)
        assert 0.10 <= ps.mean() <= 0.20
        assert np.all((ps >= 0.05) & (ps <= 0.25))


class TestDriftEvaluate:
    """Observed and future relative error as `run_experiment` reports them."""

    @staticmethod
    def rows(**changes):
        cfg = ExperimentConfig(selectors=(Selector.MIES,), lambdas=(0.6,), seeds=(0,)).with_updates(**changes)
        return run_experiment(cfg).rows

    @staticmethod
    def from_files(tmp_path, q, k, q_future):
        paths = {}
        for name, matrix in (("q", q), ("k", k), ("q_future", q_future)):
            paths[f"{name}_path"] = str(tmp_path / f"{name}.grcm")
            save_matrix(matrix, paths[f"{name}_path"])
        return ExperimentConfig(mode="from-files", **paths)

    def test_lambda_zero(self):
        (row,) = self.rows(d=16, seeds=(3,), lambdas=(0.0,), protect=False)
        assert row.relative_error == 0.0
        assert row.error_future == 0.0

    def test_identical_probe_gives_identical_error(self, tmp_path):
        q, k, _ = generate_instance(SyntheticSpec(d=16, seed=4))
        cfg = self.from_files(tmp_path, q, k, q)
        (row,) = run_experiment(cfg.with_updates(selectors=(Selector.THINK,), lambdas=(0.5,), protect=False)).rows
        assert row.error_future == row.relative_error

    def test_single_pruned_set_reused(self):
        (row,) = self.rows(d=24, seeds=(5,))
        q, k, qf = generate_instance(SyntheticSpec(d=24, seed=5))
        protected = protect_channels(k, ProtectionPolicy())
        pruned = Problem(q, k, protected).select(Selector.MIES, 0.6).pruned
        denom_obs = float(np.sum((q.data @ k.data.T) ** 2))
        denom_fut = float(np.sum((qf.data @ k.data.T) ** 2))
        assert row.relative_error == pytest.approx(
            math.sqrt(reconstruction_error_sq(q, k, pruned) / denom_obs), rel=1e-12
        )
        assert row.error_future == pytest.approx(
            math.sqrt(reconstruction_error_sq(qf, k, pruned) / denom_fut), rel=1e-12
        )
        assert not set(pruned) & set(protected)

    def test_protection_flag_recorded(self):
        (on,) = self.rows(d=16, seeds=(6,), lambdas=(0.5,))
        (off,) = self.rows(d=16, seeds=(6,), lambdas=(0.5,), protect=False)
        assert on.protection and not off.protection
        assert off.n_protected == 0

    def test_degenerate_zero_product(self, tmp_path):
        q = ChannelMatrix(np.zeros((2, 3)))
        cfg = self.from_files(tmp_path, q, ChannelMatrix(np.ones((2, 3))), q)
        with pytest.raises(DegenerateInputError):
            run_experiment(cfg)

    def test_width_mismatch(self, tmp_path):
        ones = ChannelMatrix(np.ones((2, 3)))
        cfg = self.from_files(tmp_path, ones, ones, ChannelMatrix(np.ones((2, 4))))
        with pytest.raises(ValueError, match="channel count"):
            run_experiment(cfg)

    def test_protection_never_hurts_on_planted_outliers(self):
        # Smoke version of the acceptance drift study: with planted outliers
        # the shielded channels are ones the greedy keeps anyway.
        on = self.rows(seeds=tuple(range(10)), **PLANTED)
        off = self.rows(seeds=tuple(range(10)), protect=False, **PLANTED)
        for a, b in zip(on, off):
            assert a.error_future <= b.error_future
