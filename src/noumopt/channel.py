"""Channel estimates, CSIT error statistics, and SAA sample sets.

The transmitter only knows an estimate of each user channel plus the error
statistics.  Error variance scales with transmit power as
sigma_e,k^2 = sigma_k^2 * P_t^(-alpha); the estimate is drawn so that
estimate + error has per-entry variance exactly sigma_k^2.

All randomness is counter-indexed: every draw is a pure function of
(master_seed, realization_index), so realizations can be generated in any
order (or in parallel) and are bit-reproducible.  Changing alpha only
rescales the underlying standard-normal draws, which gives common random
numbers across CSIT-quality sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Stream tags for the counter-based seeding scheme.
_ESTIMATE_STREAM = 0
_ERROR_STREAM = 1


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters: array size, users, SNR, CSIT quality.

    Noise variance is fixed to 1 everywhere, so the transmit power equals
    the transmit SNR.
    """

    num_users: int
    num_tx_antennas: int
    snr_db: float
    csit_alpha: float
    channel_variances: tuple[float, ...]
    master_seed: int = 0

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.num_tx_antennas < 1:
            raise ValueError("num_tx_antennas must be >= 1")
        if self.csit_alpha < 0:
            raise ValueError("csit_alpha must be >= 0")
        if self.snr_db < 0 and self.csit_alpha > 0:
            # sigma_e^2 = sigma^2 * P_t^(-alpha) would exceed sigma^2.
            raise ValueError("snr_db < 0 requires csit_alpha = 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if len(self.channel_variances) != self.num_users:
            raise ValueError("channel_variances must have one entry per user")
        if any(v <= 0 for v in self.channel_variances):
            raise ValueError("channel_variances must all be > 0")

    @property
    def transmit_power(self) -> float:
        return float(10.0 ** (self.snr_db / 10.0))


@dataclass(frozen=True)
class ChannelEstimate:
    """Transmitter-side channel estimate, num_tx_antennas x num_users."""

    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("estimate must be a 2-D matrix (antennas x users)")
        if not np.all(np.isfinite(self.matrix.view(float))):
            raise ValueError("estimate entries must be finite")

    @property
    def num_tx_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_users(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SampleSet:
    """Estimate plus M error draws and the implied channel realizations.

    realizations[m] = estimate + errors[m], entry-wise and exactly.
    ``realizations_h`` and ``errors_h`` hold the same draws conjugated, in a
    read-only C-contiguous (K, N_t, M) layout, sample axis last: entry
    [k, n, m] is conj(realizations[m, n, k]), so ``p @ realizations_h[k]``
    gives h_k^H p of every sample as one contiguous row.
    """

    estimate: ChannelEstimate
    errors: np.ndarray        # (M, N_t, K)
    realizations: np.ndarray  # (M, N_t, K)
    errors_h: np.ndarray = field(init=False, repr=False)        # (K, N_t, M)
    realizations_h: np.ndarray = field(init=False, repr=False)  # (K, N_t, M)

    def __post_init__(self):
        if self.errors.shape != self.realizations.shape:
            raise ValueError("errors and realizations must have equal shapes")
        if self.errors.shape[0] < 1:
            raise ValueError("sample count must be >= 1")
        if self.errors.shape[1:] != self.estimate.matrix.shape:
            raise ValueError("sample shape must match the estimate")
        for name in ("errors", "realizations"):
            conjugated = np.conj(getattr(self, name).transpose(2, 1, 0), order="C")
            conjugated.flags.writeable = False
            object.__setattr__(self, name + "_h", conjugated)

    @property
    def sample_count(self) -> int:
        return self.errors.shape[0]


def error_variance(cfg: SystemConfig, user: int) -> float:
    """CSIT error variance sigma_e,k^2 = sigma_k^2 * P_t^(-alpha), 0-based user."""
    if not 0 <= user < cfg.num_users:
        raise IndexError(f"user {user} out of range")
    return float(cfg.channel_variances[user] * cfg.transmit_power ** (-cfg.csit_alpha))


def _stream(cfg: SystemConfig, tag: int, realization_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(tag, realization_index))
    return np.random.default_rng(seq)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard circular-symmetric complex Gaussian, unit per-entry variance."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def draw_estimate(cfg: SystemConfig, realization_index: int) -> ChannelEstimate:
    """Draw one channel estimate, deterministic in (master_seed, realization_index).

    Column k has i.i.d. CN(0, sigma_k^2 - sigma_e,k^2) entries so that
    estimate + error reproduces the CN(0, sigma_k^2) channel statistics.
    """
    if realization_index < 0:
        raise ValueError("realization_index must be >= 0")
    n_t, k_users = cfg.num_tx_antennas, cfg.num_users
    scales = np.empty(k_users)
    for k in range(k_users):
        # SystemConfig keeps P_t^(-alpha) <= 1, so this variance is >= 0.
        scales[k] = np.sqrt(cfg.channel_variances[k] - error_variance(cfg, k))
    z = _complex_normal(_stream(cfg, _ESTIMATE_STREAM, realization_index), (n_t, k_users))
    return ChannelEstimate(z * scales[np.newaxis, :])


def draw_sample_set(
    cfg: SystemConfig,
    estimate: ChannelEstimate,
    sample_count: int,
    realization_index: int,
) -> SampleSet:
    """Draw M error matrices around the estimate, per-user variance sigma_e,k^2."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if estimate.matrix.shape != (cfg.num_tx_antennas, cfg.num_users):
        raise ValueError("estimate dimensions do not match the config")
    scales = np.array([np.sqrt(error_variance(cfg, k)) for k in range(cfg.num_users)])
    z = _complex_normal(
        _stream(cfg, _ERROR_STREAM, realization_index),
        (sample_count, cfg.num_tx_antennas, cfg.num_users),
    )
    errors = z * scales[np.newaxis, np.newaxis, :]
    return SampleSet(estimate, errors, estimate.matrix[np.newaxis] + errors)
