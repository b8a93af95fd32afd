"""Transmission strategies and their sampled-average rates.

Four strategies share one signal structure (a common-stream precoder plus K
private precoders):

* MULP  - all streams linearly precoded; the common stream carries only the
          multicast message, so no rate from it is credited to unicast users.
* RS1   - like MULP, but the common stream is a super-common stream that also
          carries a common part of each unicast message.
* DPC   - private streams encoded successively; interference from streams
          encoded earlier is pre-cancelled up to the channel-estimate part,
          leaving residual interference through the estimation error.
* DPCRS1- DPC private streams plus the RS1 super-common stream.

Every receiver decodes the common stream first (treating all private streams
as noise), removes it, then decodes its private stream.  Rates are in
bit/s/Hz (log base 2).
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .channel import SampleSet


class Strategy(enum.Enum):
    DPC = "dpc"
    DPCRS1 = "dpcrs1"
    RS1 = "rs1"
    MULP = "mulp"

    @property
    def uses_dpc(self) -> bool:
        """Private streams are successively encoded (an encoding order applies)."""
        return self in (Strategy.DPC, Strategy.DPCRS1)

    @property
    def has_common_unicast(self) -> bool:
        """Common stream carries per-user unicast parts (C_1..C_K free)."""
        return self in (Strategy.DPCRS1, Strategy.RS1)


@dataclass(frozen=True)
class PrecoderSet:
    """Common-stream precoder, K private precoders, and the encoding order.

    ``private[:, k]`` is the precoder of user k's private stream.  ``order``
    lists 0-based user indices in encoding order (order[0] encoded first);
    it is ignored by the linear strategies.
    """

    common: np.ndarray   # (N_t,)
    private: np.ndarray  # (N_t, K)
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.common.ndim != 1 or self.private.ndim != 2:
            raise ValueError("common must be a vector and private a matrix")
        if self.private.shape[0] != self.common.shape[0]:
            raise ValueError("precoder lengths must agree")
        if self.order is not None and sorted(self.order) != list(range(self.num_users)):
            raise ValueError("order must be a permutation of the user indices")

    @property
    def num_users(self) -> int:
        return self.private.shape[1]

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.common) ** 2) + np.sum(np.abs(self.private) ** 2))

    def require_order(self) -> tuple[int, ...]:
        if self.order is None:
            raise ValueError("this strategy requires an encoding order")
        return self.order


@dataclass(frozen=True)
class CommonRateAlloc:
    """Split of the common-stream rate: [C_0, C_1, ..., C_K] in bit/s/Hz.

    C_0 goes to the multicast message, C_k to user k's common unicast part.
    For DPC and MULP all C_k (k >= 1) are identically zero.
    """

    rates: np.ndarray  # (K+1,)

    def __post_init__(self):
        if self.rates.ndim != 1 or self.rates.shape[0] < 2:
            raise ValueError("allocation must be [C_0, C_1, ..., C_K]")
        if np.any(self.rates < -1e-12):
            raise ValueError("allocation entries must be >= 0")

    @property
    def multicast(self) -> float:
        return float(self.rates[0])

    @property
    def per_user(self) -> np.ndarray:
        return self.rates[1:]


@dataclass(frozen=True)
class RateReport:
    """Per-user sampled average rates of the common and private streams."""

    common_per_user: np.ndarray   # (K,)
    private_per_user: np.ndarray  # (K,)

    @property
    def num_users(self) -> int:
        return self.common_per_user.shape[0]

    @property
    def common_bound(self) -> float:
        """Largest common-stream rate decodable by every user."""
        return float(np.min(self.common_per_user))


def _stream_products(samples: SampleSet, precoders: PrecoderSet) -> np.ndarray:
    """h_k^H p_j per (user, column, sample) -> (K, K+1, M), sample axis last.

    Column 0 is the common stream, column 1 + j user j's private stream.  One
    batched product on ``realizations_h``, so row [k, c] holds all M samples
    contiguously.  Every sampled rate, T and weight reads these products; none
    forms its own.
    """
    columns = np.column_stack([precoders.common, precoders.private])
    return columns.T @ samples.realizations_h


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entry-wise, without the square root of ``np.abs``."""
    out = np.square(x.real)
    out += np.square(x.imag)
    return out


@functools.lru_cache(maxsize=None)
def interference_masks(
    strategy: Strategy, order: tuple[int, ...] | None, num_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, K) 0/1 masks (channel, error), the one reader of the encoding order.

    ``channel[k, j]`` is 1 when user j's private stream reaches user k through
    the channel, ``error[k, j]`` when only through the CSIT error (under DPC, a
    stream encoded before user k's).  They are disjoint and sum to 1 - I."""
    channel = 1.0 - np.eye(num_users)
    error = np.zeros((num_users, num_users))
    if strategy.uses_dpc:
        if order is None or sorted(order) != list(range(num_users)):
            raise ValueError("this strategy requires an encoding order of all users")
        position = np.argsort(order)                # position[j]: when user j is encoded
        error[position[None, :] < position[:, None]] = 1.0
        channel -= error
    channel.setflags(write=False)
    error.setflags(write=False)
    return channel, error


def _masked_sums(gains: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum_j mask[k, j] gains[k, j, m] -> (K, M), one row-vector product per user."""
    return (mask[:, None, :] @ gains)[:, 0]


def _stream_powers(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Products, signal and interference-plus-noise of every stream per sample.

    Returns (products, signal, noise): the (K, K+1, M) ``_stream_products``,
    and two (2, K, M) arrays indexed [stream, user, sample], stream 0 the
    common one and 1 user k's private one.  ``signal`` is |h_k^H p|^2 of the
    stream's own precoder and ``noise`` what else the stream meets: unit noise
    and every private stream for the common one; for a private one, unit
    noise and the private streams ``interference_masks`` lets through, added
    as ``(1 + error-channel part) + channel part``.
    """
    products = _stream_products(samples, precoders)
    gains = _abs2(products)
    g_true = gains[:, 1:]                                   # |h_k^H p_j|^2, (K, K, M)
    channel, error = interference_masks(strategy, precoders.order, precoders.num_users)
    private = 1.0
    if error.any():
        g_err = _abs2(precoders.private.T @ samples.errors_h)
        private = private + _masked_sums(g_err, error)
    own = np.arange(precoders.num_users)
    signal = np.stack([gains[:, 0], g_true[own, own]])
    noise = np.stack([g_true.sum(axis=1) + 1.0, private + _masked_sums(g_true, channel)])
    return products, signal, noise


def sampled_average_rates(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
) -> RateReport:
    """Arithmetic mean of the instantaneous rates over the M channel samples."""
    _, signal, noise = _stream_powers(strategy, samples, precoders)
    common, private = np.log2(1.0 + signal / noise).mean(axis=-1)
    return RateReport(common, private)


def wasr(weights: np.ndarray, totals: np.ndarray) -> float:
    """Weighted sum of the per-user unicast totals."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be > 0")
    return float(np.dot(weights, totals))
