"""The vectorized SAA kernels against the scalar per-sample oracles.

For K = 1, 2, 3 users, every strategy and every encoding order, the sampled
rates, the closed-form equalizers and weights, the assembled psi, phi and f,
and the averaged t, w and nu are recomputed sample by sample from the scalar
functions; one case repeats this at the benchmark's M = 4000.  Tolerances
are relative (1e-12), taken against the largest entry of each compared array
so that an entry that nearly cancels is not held to a tighter bound than its
neighbours.
"""
import itertools

import numpy as np
import pytest

from noumopt import (
    COMMON,
    PRIVATE,
    PrecoderSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    draw_estimate,
    draw_sample_set,
    sampled_average_rates,
    update_equalizers_weights,
)
from noumopt.reference import (
    effective_power_T,
    instantaneous_common_rate,
    instantaneous_private_rate,
    mmse_equalizer,
    mmse_weight,
    per_sample,
)

RTOL = 1e-12


def assert_close(actual, expected):
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * np.max(np.abs(expected)))


def check_kernels(strategy, samples, common, private):
    """Every kernel output for every encoding order against the per-sample oracles."""
    channels, errors = per_sample(samples.realizations_h), per_sample(samples.errors_h)
    m, _, k = channels.shape
    orders = itertools.permutations(range(k)) if strategy.uses_dpc else [None]
    for order in orders:
        prec = PrecoderSet.from_parts(common, private, order)
        (rates,) = sampled_average_rates(strategy, samples, prec.rows[None], order)
        g_all, w_all = update_equalizers_weights(strategy, samples, prec)
        coeffs = assemble_coefficients(strategy, samples, g_all, w_all, order)
        assert coeffs.phi.shape == (k, common.shape[0], common.shape[0])   # private streams only
        for user in range(k):
            draws = [(channels[i, :, user], errors[i, :, user]) for i in range(m)]
            assert_close(
                rates[:, user],
                [np.mean([instantaneous_common_rate(strategy, h, e, prec) for h, e in draws]),
                 np.mean([instantaneous_private_rate(strategy, h, e, prec, user)
                          for h, e in draws])],
            )
            for stream, p in ((COMMON, common), (PRIVATE, private[:, user])):
                T = [effective_power_T(strategy, stream, user, h, e, prec) for h, e in draws]
                g, w = g_all[stream, user], w_all[stream, user]
                assert_close(g, [mmse_equalizer(h, p, t) for (h, _), t in zip(draws, T)])
                assert_close(w, [mmse_weight(h, p, t) for (h, _), t in zip(draws, T)])
                t = w * np.abs(g) ** 2
                assert_close(coeffs.psi[stream, user], sum(t[i] * np.outer(h, h.conj())
                                                           for i, (h, _) in enumerate(draws)) / m)
                assert_close(coeffs.f[stream, user], sum(w[i] * np.conj(g[i]) * h
                                                         for i, (h, _) in enumerate(draws)) / m)
                assert_close(coeffs.t[stream, user], sum(t) / m)
                assert_close(coeffs.w[stream, user], sum(w) / m)
                assert_close(coeffs.nu[stream, user], sum(np.log(w)) / m)
                if stream == PRIVATE:
                    assert_close(coeffs.phi[user], sum(t[i] * np.outer(e, e.conj())
                                                       for i, (_, e) in enumerate(draws)) / m)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernels_equal_per_sample_oracles(k, strategy, seed):
    rng = np.random.default_rng([k, seed])
    n_t = int(rng.integers(1, 5))
    cfg = SystemConfig(k, n_t, 15.0, 0.5, (1.0,) * k, seed)
    samples = draw_sample_set(cfg, draw_estimate(cfg, 0), 8 + 4 * seed, 0)
    common = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    private = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
    check_kernels(strategy, samples, common, private)


@pytest.mark.parametrize("strategy", [Strategy.RS1, Strategy.DPCRS1])
def test_kernels_equal_per_sample_oracles_at_benchmark_scale(strategy):
    # The region-m4000 system (M = 4000, K = 2, N_t = 4): the sample means
    # sum the most terms here, so their summation order matters most.
    cfg = SystemConfig(2, 4, 20.0, 0.6, (1.0, 1.0), 1)
    samples = draw_sample_set(cfg, draw_estimate(cfg, 0), 4000, 0)
    rng = np.random.default_rng(4000)
    common = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    private = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    check_kernels(strategy, samples, common, private)
