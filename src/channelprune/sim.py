"""Synthetic query/key generator.

The generator plants a small set of high-energy key channels, couples
query channel means to key channel scales, and makes per-channel query
noise proportional to the mean, so channels with larger mean amplitude
also fluctuate more. Future queries follow the same law with an extra
mean shift, modeling the gap between the observation window used for
pruning and the queries seen later during decoding; `run_experiment`
scores each pruned set on both as `relative_error` and `error_future`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelMatrix, exact_ceil

__all__ = ["SyntheticSpec", "generate_instance"]

# Channel scales are lognormal; sigma is kept moderate so that planted
# outliers dominate the natural tail by a wide margin.
LOG_SCALE_MU = 0.0
LOG_SCALE_SIGMA = 0.35


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic instance, fully determined by `seed`."""

    d: int = 64
    L: int = 64
    L_obs: int = 32
    L_future: int = 32
    outlier_fraction: float = 0.05
    outlier_scale: float = 10.0
    drift_gamma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.d, self.L, self.L_obs, self.L_future) < 1:
            raise ValueError("all dimensions must be at least 1")
        if self.L_obs > self.L:
            raise ValueError(f"L_obs={self.L_obs} cannot exceed L={self.L}")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError(f"outlier_fraction must be in [0, 1], got {self.outlier_fraction}")
        if not 0.0 < self.outlier_scale < math.inf:
            raise ValueError(f"outlier_scale must be positive and finite, got {self.outlier_scale}")
        if not 0.0 <= self.drift_gamma < math.inf:
            raise ValueError(f"drift_gamma must be nonnegative and finite, got {self.drift_gamma}")


def generate_instance(spec: SyntheticSpec) -> tuple[ChannelMatrix, ChannelMatrix, ChannelMatrix]:
    """Draw (q_obs, k, q_future) for one seeded instance.

    Per-channel scales c_j are lognormal; ceil(outlier_fraction * d) of
    them are multiplied by outlier_scale. Key entries are zero-mean
    normal with std c_j. Query entries have mean m_j = c_j and std
    drift_gamma * |m_j|; future queries add a further mean shift of
    drift_gamma * |m_j|. The draw order is fixed, so identical specs
    produce bit-identical matrices.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.d
    scales = rng.lognormal(LOG_SCALE_MU, LOG_SCALE_SIGMA, d)
    n_outliers = exact_ceil(spec.outlier_fraction, d)
    if n_outliers:
        scales[rng.choice(d, size=n_outliers, replace=False)] *= spec.outlier_scale

    k_data = rng.standard_normal((spec.L, d))
    k_data *= scales

    means = scales  # query channel means track key channel scales
    noise = spec.drift_gamma * np.abs(means)
    q_obs = means + rng.standard_normal((spec.L_obs, d)) * noise
    q_future = (means + noise) + rng.standard_normal((spec.L_future, d)) * noise

    return ChannelMatrix(q_obs), ChannelMatrix(k_data), ChannelMatrix(q_future)
