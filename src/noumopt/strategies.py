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
from collections.abc import Sequence
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
    """The precoder matrix P = [p_c, p_1, ..., p_K] as rows, and the encoding order.

    ``rows`` is one read-only C-contiguous complex (K+1, N_t) array: row 0
    is the common-stream precoder p_c and row 1 + k user k's private
    precoder p_k.  An array that is already C-contiguous complex is shared,
    not copied.  ``order`` lists 0-based user indices in encoding order
    (order[0] encoded first); it is ignored by the linear strategies.
    """

    rows: np.ndarray     # (K+1, N_t)
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=complex).view()
        if rows.ndim != 2 or rows.shape[0] < 2:
            raise ValueError("rows must be a (K+1, N_t) matrix with K >= 1")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if self.order is not None and sorted(self.order) != list(range(self.num_users)):
            raise ValueError("order must be a permutation of the user indices")

    @classmethod
    def from_parts(
        cls, common: np.ndarray, private: np.ndarray, order: tuple[int, ...] | None = None
    ) -> PrecoderSet:
        """The set of a common precoder (N_t,) and private ones, the columns of (N_t, K)."""
        if np.ndim(common) != 1 or np.ndim(private) != 2:
            raise ValueError("common must be a vector and private a matrix")
        return cls(np.vstack([common, np.transpose(private)]), order)

    @property
    def common(self) -> np.ndarray:
        """p_c: row 0."""
        return self.rows[0]

    @property
    def private(self) -> np.ndarray:
        """The (N_t, K) view whose column k is p_k."""
        return self.rows[1:].T

    @property
    def num_users(self) -> int:
        return self.rows.shape[0] - 1

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.rows[0]) ** 2) + np.sum(np.abs(self.rows[1:]) ** 2))

    def capped(self, limit: float) -> PrecoderSet:
        """This set when its total power is at most ``limit``, else it scaled onto ``limit``."""
        power = self.total_power()
        if power <= limit:
            return self
        return PrecoderSet(self.rows * np.sqrt(limit / power), self.order)

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
    def common_bound(self) -> float:
        """Largest common-stream rate decodable by every user."""
        return float(np.min(self.common_per_user))


# Most complex stream products one stacked rate evaluation forms, 2**14
# (256 KiB): a chunk of candidates then stays within a per-core L2 cache, so
# a large sample count is scored one candidate per kernel call.
_STACK_PRODUCTS = 2 ** 14


def _row_products(rows: np.ndarray, rows_h: np.ndarray) -> np.ndarray:
    """h^H p for every (candidate, user, row, sample) -> (B, K, R, M), sample axis last.

    ``rows`` is (B, R, N_t) and ``rows_h`` a (K, N_t, M) conjugated sample
    layout of the ``SampleSet``.  The B candidates' rows form one 2-D factor,
    so each user's products come from one product whatever B is, and row
    [b, k, r] holds all M samples contiguously.  With M >= 2 this is a
    matrix product, which rounds each entry the same for any B; with M = 1
    BLAS's matrix-vector kernel rounds a row by its position in the stack.
    """
    b, r, n_t = rows.shape
    products = rows.reshape(b * r, n_t) @ rows_h
    return products.reshape(products.shape[0], b, r, products.shape[-1]).swapaxes(0, 1)


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
    """sum_j mask[k, j] gains[..., k, j, m] -> (..., K, M), one row-vector product per user."""
    return (mask[:, None, :] @ gains)[..., 0, :]


def _stream_powers(
    strategy: Strategy,
    samples: SampleSet,
    rows: np.ndarray,
    order: tuple[int, ...] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Products, signal and interference-plus-noise of every stream per sample.

    ``rows`` stacks B candidates' ``PrecoderSet.rows`` as (B, K+1, N_t), row
    0 the common precoder and 1 + j user j's private one; they share the
    encoding ``order``.  Returns (products, signal, noise): the
    (B, K, K+1, M) ``_row_products`` of the rows, and two (B, 2, K, M)
    arrays indexed [candidate, stream, user, sample], stream 0 the common one
    and 1 user k's private one.  ``signal`` is |h_k^H p|^2 of the stream's own
    precoder and ``noise`` what else the stream meets: unit noise and every
    private stream for the common one; for a private one, unit noise and the
    private streams ``interference_masks`` lets through, added as
    ``(1 + error-channel part) + channel part``.  From M >= 2 samples, every
    candidate's arrays are bit for bit those it gets when scored alone.
    """
    k_users = rows.shape[1] - 1
    products = _row_products(rows, samples.realizations_h)
    gains = _abs2(products)
    g_true = gains[:, :, 1:]                                # |h_k^H p_j|^2, (B, K, K, M)
    channel, error = interference_masks(strategy, order, k_users)
    private = 1.0
    if error.any():
        g_err = _abs2(_row_products(rows[:, 1:], samples.errors_h))
        private = private + _masked_sums(g_err, error)
    own = np.arange(k_users)
    signal = np.stack([gains[:, :, 0], g_true[:, own, own]], axis=1)
    noise = np.stack(
        [g_true.sum(axis=2) + 1.0, private + _masked_sums(g_true, channel)], axis=1
    )
    return products, signal, noise


def sampled_average_rates(
    strategy: Strategy,
    samples: SampleSet,
    precoder_sets: Sequence[PrecoderSet],
) -> list[RateReport]:
    """Arithmetic mean of the instantaneous rates over the M channel samples, per set.

    The sets share one encoding order.  They are scored in stacked chunks of
    at most ``_STACK_PRODUCTS`` stream products (at least one set), and one
    at a time from a single sample, so one set's report is bit for bit the
    same alone or among others.
    """
    order = precoder_sets[0].order
    if any(precoders.order != order for precoders in precoder_sets):
        raise ValueError("the precoder sets must share one encoding order")
    k_users, _, m = samples.realizations_h.shape
    chunk = 1 if m == 1 else max(1, _STACK_PRODUCTS // (k_users * (k_users + 1) * m))
    reports = []
    for first in range(0, len(precoder_sets), chunk):
        rows = np.stack([precoders.rows for precoders in precoder_sets[first:first + chunk]])
        _, signal, noise = _stream_powers(strategy, samples, rows, order)
        rates = np.log2(1.0 + signal / noise).mean(axis=-1)
        reports += [RateReport(common, private) for common, private in rates]
    return reports


def wasr(weights: np.ndarray, totals: np.ndarray) -> float:
    """Weighted sum of the per-user unicast totals."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be > 0")
    return float(np.dot(weights, totals))
