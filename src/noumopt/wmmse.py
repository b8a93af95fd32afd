"""MSE machinery: closed-form equalizers/weights and quadratic coefficients.

Each receiver applies a scalar equalizer g to decode a stream; the MSE is a
convex quadratic in g whose minimizer and minimum have closed forms.  The
rate of a stream satisfies an exact identity with the weighted MSE at the
closed-form equalizer and weight: w* mse(g*) - log2(w*) = 1 - rate.  The
per-sample scalar forms of these formulas are in ``noumopt.reference``.
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
    rows, order = precoders.rows[None], precoders.order
    (products,), (signal,), (noise,) = _stream_powers(strategy, samples, rows, order)
    own = np.arange(precoders.num_users)
    hp = np.stack([products[:, 0], products[own, own + 1]])   # own precoder's h^H p
    t = signal + noise
    return hp.conj() / t, t / noise     # w = 1/MMSE = T / (T - signal)


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
