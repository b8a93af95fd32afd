"""Mutation sanity: the oracles must reject the formula variants they guard.

Two deliberately wrong computations are evaluated against the same oracles
the real code is tested with; if these stopped failing, the guards would be
vacuous.
"""
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
    update_equalizers_weights,
)
from noumopt.reference import (
    effective_power_T,
    mmse_equalizer,
    weighted_mse_bits,
    xi_hat,
)
from noumopt.wmmse import LN2


def test_weight_sign_flip_breaks_identity():
    # Wrong weight w = T/(T + |h^H p|^2): the value at the closed-form
    # equalizer no longer satisfies xi = 1 - rate.
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(50):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prec = PrecoderSet.from_parts(p, rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
        T = effective_power_T(Strategy.RS1, COMMON, 0, h, None, prec)
        sig = abs(np.vdot(h, prec.common)) ** 2
        g = mmse_equalizer(h, prec.common, T)
        w_wrong = T / (T + sig)
        xi_wrong = weighted_mse_bits(g, w_wrong, T, h, prec.common)
        rate = np.log2(1.0 + sig / (T - sig))
        violations += abs(xi_wrong - (1.0 - rate)) > 1e-6
    assert violations >= 45  # essentially every non-degenerate instance


def test_omitted_later_interference_breaks_xi_hat_equivalence():
    # Reproducing the received-power quadratic without the later-encoded
    # users' terms must disagree with the direct per-sample WMSE average.
    cfg = SystemConfig(3, 2, 15.0, 0.5, (1.0, 1.0, 1.0), 9)
    est = draw_estimate(cfg, 0)
    samples = draw_sample_set(cfg, est, 8, 0)
    rng = np.random.default_rng(19)
    order = (0, 1, 2)
    prec = PrecoderSet.from_parts(
        rng.standard_normal(2) + 1j * rng.standard_normal(2),
        rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
        order,
    )
    g, w = update_equalizers_weights(Strategy.DPCRS1, samples, prec)
    coeffs = assemble_coefficients(Strategy.DPCRS1, samples, g, w, order)

    user = order[0]  # first encoded: both later users interfere in full

    def quad(mat, p):
        return float(np.real(np.vdot(p, mat @ p)))

    omega_wrong = quad(coeffs.psi[PRIVATE, user], prec.private[:, user])  # later terms dropped
    xi_wrong = (
        omega_wrong + coeffs.t[PRIVATE, user]
        - 2.0 * float(np.real(np.vdot(coeffs.f[PRIVATE, user], prec.private[:, user])))
        + coeffs.w[PRIVATE, user] - coeffs.nu[PRIVATE, user] / LN2
    )
    direct = np.mean([
        weighted_mse_bits(
            g[PRIVATE, user, m], w[PRIVATE, user, m],
            effective_power_T(Strategy.DPCRS1, PRIVATE, user,
                              samples.realizations[m, :, user],
                              samples.errors[m, :, user], prec),
            samples.realizations[m, :, user], prec.private[:, user],
        )
        for m in range(8)
    ])
    assert abs(xi_wrong - direct) > 1e-8
    # the correct assembly agrees, same instance
    assert abs(xi_hat(coeffs, prec, PRIVATE, user) - direct) <= 1e-10
