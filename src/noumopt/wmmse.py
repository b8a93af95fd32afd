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
quadratics differ only in the constant: nu (nats) against nu / ln 2 (bits).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SampleSet
from .strategies import PrecoderSet, Strategy, _abs2, _stream_powers

# Stream indices: the stream axis of every stacked WMSE array.
COMMON = 0
PRIVATE = 1

LN2 = float(np.log(2.0))


def effective_power_T(
    strategy: Strategy,
    stream: int,
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
    stream: int,
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


def update_equalizers_weights(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form g and w at the given precoders, each (2, K, M): stream, user, sample.

    Both are C-contiguous with the stream axis first, indexed by ``COMMON``/
    ``PRIVATE`` as in ``QuadCoefficients``, and the sample axis last, as in the
    ``SampleSet``'s conjugated draws; every weight is >= 1.
    """
    products, signal, noise = _stream_powers(strategy, samples, precoders)
    own = np.arange(precoders.num_users)
    hp = np.stack([products[:, 0], products[own, own + 1]])   # own precoder's h^H p
    t = signal + noise
    return hp.conj() / t, t / (t - signal)


@dataclass(frozen=True)
class QuadCoefficients:
    """Sample-averaged WMSE constants of every (stream, user), stream axis first.

    Index ``COMMON`` (0) is the common stream, ``PRIVATE`` (1) the private one:
    psi (2, K, N_t, N_t), t, w, nu (2, K) and f (2, K, N_t).  phi (K, N_t, N_t)
    weighs the precoders that reach a private stream only through the CSIT
    error, so only private streams have one.  psi and phi are Hermitian PSD.
    nu is the mean of ln w (nats); the bits flavour is nu / LN2.
    """

    psi: np.ndarray
    phi: np.ndarray
    t: np.ndarray
    f: np.ndarray
    w: np.ndarray
    nu: np.ndarray
    strategy: Strategy
    order: tuple[int, ...] | None

    @property
    def num_users(self) -> int:
        return self.t.shape[1]


def assemble_coefficients(
    strategy: Strategy,
    samples: SampleSet,
    g: np.ndarray,
    w: np.ndarray,
    order: tuple[int, ...] | None,
) -> QuadCoefficients:
    """Average t, Psi, Phi, f, w, nu over the M samples for every (stream, user).

    ``g`` and ``w`` are the (2, K, M) arrays of ``update_equalizers_weights``.
    Each average is one batched product over (stream, user) on the sample-last
    rows of ``realizations_h`` and ``errors_h``, summed along the sample axis.
    """
    m = g.shape[-1]
    t = w * _abs2(g)
    psi = _weighted_gram(t, samples.realizations_h) / m
    phi = _weighted_gram(t[PRIVATE], samples.errors_h) / m
    # sum_m w g^* h = conj(sum_m w g h^*), so the rows h^H are read as stored.
    f = np.conj(samples.realizations_h @ (w * g)[..., None])[..., 0] / m
    return QuadCoefficients(
        psi, phi, t.mean(-1), f, w.mean(-1), np.log(w).mean(-1), strategy, order
    )


def _weighted_gram(t: np.ndarray, rows_h: np.ndarray) -> np.ndarray:
    """sum_m t[..., k, m] h_m h_m^H per user k, from the (K, N_t, M) conjugated rows."""
    weighted = t[..., None, :] * rows_h
    np.conjugate(weighted, out=weighted)
    return weighted @ rows_h.swapaxes(-1, -2)


def _omega(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Quadratic received-power part of the averaged WMSE for one stream: a reference
    that reads the order itself, not through ``interference_masks``, for the tests."""
    psi = coeffs.psi[stream, user]

    def quad(mat: np.ndarray, p: np.ndarray) -> float:
        return float(np.real(np.vdot(p, mat @ p)))

    if stream == COMMON:
        total = quad(psi, precoders.common)
        for j in range(precoders.num_users):
            total += quad(psi, precoders.private[:, j])
        return total
    if coeffs.strategy.uses_dpc:
        order = coeffs.order if coeffs.order is not None else precoders.require_order()
        pos = order.index(user)
        total = quad(psi, precoders.private[:, user])
        for j in order[pos + 1:]:
            total += quad(psi, precoders.private[:, j])
        for i in order[:pos]:
            total += quad(coeffs.phi[user], precoders.private[:, i])
        return total
    return sum(quad(psi, precoders.private[:, j]) for j in range(precoders.num_users))


def _xi_core(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    p_i = precoders.common if stream == COMMON else precoders.private[:, user]
    return float(
        _omega(coeffs, precoders, stream, user)
        + coeffs.t[stream, user]
        - 2.0 * float(np.real(np.vdot(coeffs.f[stream, user], p_i)))
        + coeffs.w[stream, user]
    )


def xi_hat(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Sample-averaged WMSE (bits flavour): equals mean_m [w eps - log2 w] exactly."""
    return _xi_core(coeffs, precoders, stream, user) - float(coeffs.nu[stream, user] / LN2)


def xi_hat_nats(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Sample-averaged WMSE (nats flavour): the surrogate the subproblem minimizes."""
    return _xi_core(coeffs, precoders, stream, user) - float(coeffs.nu[stream, user])
