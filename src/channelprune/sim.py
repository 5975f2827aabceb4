"""Synthetic query/key generators and a decode-time drift evaluator.

The generator plants a small set of high-energy key channels, couples
query channel means to key channel scales, and makes per-channel query
noise proportional to the mean, so channels with larger mean amplitude
also fluctuate more. Future queries follow the same law with an extra
mean shift, modeling the gap between the observation window used for
pruning and the queries seen later during decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelMatrix, attention_norm, exact_ceil, reconstruction_error_sq
from .prune import Problem, ProtectionPolicy, PruneSelection, Selector, protect_channels

__all__ = [
    "DriftResult",
    "SyntheticSpec",
    "drift_evaluate",
    "generate_instance",
    "planted_outliers",
]

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
        if self.outlier_scale <= 0.0:
            raise ValueError(f"outlier_scale must be positive, got {self.outlier_scale}")
        if self.drift_gamma < 0.0:
            raise ValueError(f"drift_gamma must be nonnegative, got {self.drift_gamma}")


def _channel_scales(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """First two draws of the instance stream: scales, then planted indices."""
    scales = rng.lognormal(LOG_SCALE_MU, LOG_SCALE_SIGMA, spec.d)
    n_outliers = exact_ceil(spec.outlier_fraction, spec.d)
    planted = (
        rng.choice(spec.d, size=n_outliers, replace=False)
        if n_outliers
        else np.empty(0, dtype=np.int64)
    )
    scales[planted] *= spec.outlier_scale
    return scales, planted


def planted_outliers(spec: SyntheticSpec) -> np.ndarray:
    """Indices of the channels whose scale was multiplied by outlier_scale."""
    _, planted = _channel_scales(spec, np.random.default_rng(spec.seed))
    return np.sort(planted)


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
    scales, _ = _channel_scales(spec, rng)

    k_data = rng.standard_normal((spec.L, d)) * scales

    means = scales  # query channel means track key channel scales
    noise = spec.drift_gamma * np.abs(means)
    q_obs = means + rng.standard_normal((spec.L_obs, d)) * noise
    q_future = (means + noise) + rng.standard_normal((spec.L_future, d)) * noise

    return ChannelMatrix(q_obs), ChannelMatrix(k_data), ChannelMatrix(q_future)


@dataclass(frozen=True, eq=False)
class DriftResult:
    """Relative reconstruction error on observed vs. future queries.

    Both errors are computed with the single pruned set chosen on the
    observed queries; `selection` records it. `ratio` is
    error_future / error_obs, or +inf when error_obs is zero.
    """

    selector: Selector
    protection_enabled: bool
    error_obs: float
    error_future: float
    ratio: float
    selection: PruneSelection


def drift_evaluate(
    q_obs: ChannelMatrix,
    k: ChannelMatrix,
    q_future: ChannelMatrix,
    selector: Selector,
    lam: float,
    policy: ProtectionPolicy,
    seed: int = 0,
) -> DriftResult:
    """Select on observed queries, then score observed and future error.

    The pruned set is chosen once from (q_obs, k) under the policy and
    reused verbatim for the future queries; errors are Frobenius-relative
    so the two probe matrices are comparable despite different row counts.
    """
    if q_obs.cols != k.cols or q_future.cols != k.cols:
        raise ValueError(
            f"channel count mismatch: q_obs {q_obs.cols}, k {k.cols}, q_future {q_future.cols}"
        )
    denom_obs = attention_norm(q_obs, k, "observed")
    denom_future = attention_norm(q_future, k, "future")
    selection = Problem(q_obs, k, protect_channels(k, policy)).select(selector, lam, seed=seed)
    error_obs = math.sqrt(selection.error_sq) / denom_obs
    error_future = math.sqrt(reconstruction_error_sq(q_future, k, selection.pruned)) / denom_future
    ratio = error_future / error_obs if error_obs > 0.0 else math.inf
    return DriftResult(
        selector=selector,
        protection_enabled=policy.enabled,
        error_obs=error_obs,
        error_future=error_future,
        ratio=ratio,
        selection=selection,
    )
