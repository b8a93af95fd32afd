"""MSE machinery: closed-form equalizers/weights and quadratic coefficients.

Each receiver applies a scalar equalizer g to decode a stream; the MSE is a
convex quadratic in g whose minimizer and minimum have closed forms.  The
rate of a stream satisfies an exact identity with the weighted MSE at the
closed-form equalizer and weight: w* mse(g*) - log2(w*) = 1 - rate.

Two augmented-WMSE flavours are exposed:

* ``weighted_mse_bits``: w*eps - log2(w).  This is the quantity the
  quadratic-coefficient assembly (`xi_hat`) averages; at the closed forms it
  equals 1 - rate (bits).
* ``weighted_mse_nats``: w*eps - ln(w).  The closed forms (g*, w*) are the
  exact joint minimizer of this function, and its minimum is 1 - rate*ln2.
  The convex subproblem is built from this flavour, which makes the
  alternating optimization a true majorize-minimize scheme (the bits
  flavour is minimized at w = 1/(eps*ln2), not at w* = 1/eps, so it is not
  a valid surrogate off the update point).

Both flavours share all coefficients except the log term, so the assembled
quadratics differ only in the constant nu.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SampleSet
from .strategies import PrecoderSet, Strategy, _private_denominators, _stream_products

COMMON = "common"
PRIVATE = "private"

LN2 = float(np.log(2.0))


def effective_power_T(
    strategy: Strategy,
    stream: str,
    user: int,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
) -> float:
    """Total received power T (signal + interference + noise) for one stream.

    Common stream: every precoder contributes through the true channel.
    Private stream: the common precoder is absent (removed by SIC); for the
    DPC family, earlier-encoded streams contribute through the error channel
    only and later-encoded streams in full.  A reference: it reads the order
    itself, not through ``interference_masks``, so that tests can check the masks.
    """
    g_true = np.abs(channel.conj() @ precoders.private) ** 2
    if stream == COMMON:
        sig = np.abs(np.vdot(channel, precoders.common)) ** 2
        return float(sig + np.sum(g_true) + 1.0)
    if strategy.uses_dpc:
        order = precoders.require_order()
        pos = order.index(user)
        g_err = np.abs(error.conj() @ precoders.private) ** 2
        return float(
            g_true[user]
            + np.sum(g_err[list(order[:pos])])
            + np.sum(g_true[list(order[pos + 1:])])
            + 1.0
        )
    return float(np.sum(g_true) + 1.0)


def mse(g: complex, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """|g|^2 T - 2 Re{g h^H p} + 1."""
    hp = np.vdot(channel, precoder)
    return float(abs(g) ** 2 * T - 2.0 * np.real(g * hp) + 1.0)


def mmse_equalizer(channel: np.ndarray, precoder: np.ndarray, T: float) -> complex:
    """g* = p^H h / T, the unique minimizer of the MSE."""
    return complex(np.vdot(precoder, channel) / T)


def mmse_weight(channel: np.ndarray, precoder: np.ndarray, T: float) -> float:
    """w* = T / (T - |h^H p|^2) = 1/MMSE; always >= 1."""
    sig = abs(np.vdot(channel, precoder)) ** 2
    return float(T / (T - sig))


def weighted_mse_bits(g: complex, w: float, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """w*eps - log2(w); equals 1 - rate at the closed-form (g*, w*)."""
    return w * mse(g, T, channel, precoder) - float(np.log2(w))


def weighted_mse_nats(g: complex, w: float, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """w*eps - ln(w); jointly minimized by the closed-form (g*, w*)."""
    return w * mse(g, T, channel, precoder) - float(np.log(w))


def rate_wmmse_identity_check(
    strategy: Strategy,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
    stream: str,
    user: int,
) -> tuple[float, float]:
    """Return (xi*, rate): xi* = w* mse(g*) - log2(w*) must equal 1 - rate."""
    T = effective_power_T(strategy, stream, user, channel, error, precoders)
    p = precoders.common if stream == COMMON else precoders.private[:, user]
    g = mmse_equalizer(channel, p, T)
    w = mmse_weight(channel, p, T)
    xi_star = weighted_mse_bits(g, w, T, channel, p)
    sig = abs(np.vdot(channel, p)) ** 2
    rate = float(np.log2(1.0 + sig / (T - sig)))
    return xi_star, rate


@dataclass(frozen=True)
class EqualizerSet:
    """Scalar equalizers per (sample, user, stream); stream 0 = common, 1 = private."""

    values: np.ndarray  # (M, K, 2) complex


@dataclass(frozen=True)
class WeightSet:
    """MSE weights per (sample, user, stream); every weight >= 1."""

    values: np.ndarray  # (M, K, 2) real


def _sample_T(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample T and signal inner products for all users and both streams.

    Returns (T_common, T_private, hp_common, hp_private), each (M, K);
    hp_* holds h^H p of the stream's own precoder.
    """
    hp = _stream_products(samples, precoders)
    gains = np.abs(hp) ** 2
    g_true = gains[..., 1:]
    own = np.arange(precoders.num_users)
    t_common = gains[..., 0] + np.sum(g_true, axis=-1) + 1.0
    denom = _private_denominators(strategy, samples, precoders, g_true)
    t_private = denom + g_true[..., own, own]
    return t_common, t_private, hp[..., 0], hp[..., own, own + 1]


def update_equalizers_weights(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
) -> tuple[EqualizerSet, WeightSet]:
    """Closed-form g and w for every (sample, user, stream) at the given precoders."""
    t_c, t_p, hp_c, hp_p = _sample_T(strategy, samples, precoders)
    g = np.stack([hp_c.conj() / t_c, hp_p.conj() / t_p], axis=-1)
    w = np.stack(
        [t_c / (t_c - np.abs(hp_c) ** 2), t_p / (t_p - np.abs(hp_p) ** 2)],
        axis=-1,
    )
    return EqualizerSet(g), WeightSet(w)


@dataclass(frozen=True)
class StreamCoefficients:
    """Sample-averaged quadratic constants of one (user, stream) WMSE.

    psi and phi are Hermitian PSD; phi multiplies earlier-encoded precoders
    through the error channel and is only assembled for private streams.
    """

    psi: np.ndarray          # (N_t, N_t)
    phi: np.ndarray | None   # (N_t, N_t) for private streams, else None
    t: float
    f: np.ndarray            # (N_t,)
    w: float
    nu_bits: float
    nu_nats: float


@dataclass(frozen=True)
class QuadCoefficients:
    """All per-(user, stream) averaged coefficients plus the strategy context."""

    common: tuple[StreamCoefficients, ...]
    private: tuple[StreamCoefficients, ...]
    strategy: Strategy
    order: tuple[int, ...] | None

    @property
    def num_users(self) -> int:
        return len(self.common)

    def stream(self, stream: str, user: int) -> StreamCoefficients:
        return self.common[user] if stream == COMMON else self.private[user]


def _assemble_stream(
    channels_h: np.ndarray,       # (M, N_t), rows h^H
    errors_h: np.ndarray | None,  # (M, N_t), rows e^H
    g: np.ndarray,                # (M,)
    w: np.ndarray,                # (M,)
) -> StreamCoefficients:
    """One stream's averages; phi is assembled only when ``errors_h`` is given."""
    m = channels_h.shape[0]
    t = w * np.abs(g) ** 2
    channels = channels_h.conj()
    psi = (t[:, None] * channels).T @ channels_h / m
    phi = None
    if errors_h is not None:
        phi = (t[:, None] * errors_h.conj()).T @ errors_h / m
    f = (w * g.conj()) @ channels / m
    log_w = np.log(w)
    return StreamCoefficients(
        psi=psi,
        phi=phi,
        t=float(t.mean()),
        f=f,
        w=float(w.mean()),
        nu_bits=float(log_w.mean() / LN2),
        nu_nats=float(log_w.mean()),
    )


def assemble_coefficients(
    strategy: Strategy,
    samples: SampleSet,
    equalizers: EqualizerSet,
    weights: WeightSet,
    order: tuple[int, ...] | None,
) -> QuadCoefficients:
    """Average t, Psi, Phi, f, w, nu over the M samples for every (user, stream)."""
    common, private = [], []
    for k in range(samples.estimate.num_users):
        h_k = samples.realizations_h[:, k]
        common.append(
            _assemble_stream(h_k, None, equalizers.values[:, k, 0], weights.values[:, k, 0])
        )
        private.append(_assemble_stream(
            h_k, samples.errors_h[:, k], equalizers.values[:, k, 1], weights.values[:, k, 1]
        ))
    return QuadCoefficients(tuple(common), tuple(private), strategy, order)


def _omega(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: str, user: int) -> float:
    """Quadratic received-power part of the averaged WMSE for one stream: a reference
    that reads the order itself, not through ``interference_masks``, for the tests."""
    sc = coeffs.stream(stream, user)

    def quad(mat: np.ndarray, p: np.ndarray) -> float:
        return float(np.real(np.vdot(p, mat @ p)))

    if stream == COMMON:
        total = quad(sc.psi, precoders.common)
        for j in range(precoders.num_users):
            total += quad(sc.psi, precoders.private[:, j])
        return total
    if coeffs.strategy.uses_dpc:
        order = coeffs.order if coeffs.order is not None else precoders.require_order()
        pos = order.index(user)
        total = quad(sc.psi, precoders.private[:, user])
        for j in order[pos + 1:]:
            total += quad(sc.psi, precoders.private[:, j])
        for i in order[:pos]:
            total += quad(sc.phi, precoders.private[:, i])
        return total
    return sum(quad(sc.psi, precoders.private[:, j]) for j in range(precoders.num_users))


def _xi_core(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: str, user: int) -> float:
    sc = coeffs.stream(stream, user)
    p_i = precoders.common if stream == COMMON else precoders.private[:, user]
    return (
        _omega(coeffs, precoders, stream, user)
        + sc.t
        - 2.0 * float(np.real(np.vdot(sc.f, p_i)))
        + sc.w
    )


def xi_hat(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: str, user: int) -> float:
    """Sample-averaged WMSE (bits flavour): equals mean_m [w eps - log2 w] exactly."""
    return _xi_core(coeffs, precoders, stream, user) - coeffs.stream(stream, user).nu_bits


def xi_hat_nats(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: str, user: int) -> float:
    """Sample-averaged WMSE (nats flavour): the surrogate the subproblem minimizes."""
    return _xi_core(coeffs, precoders, stream, user) - coeffs.stream(stream, user).nu_nats
