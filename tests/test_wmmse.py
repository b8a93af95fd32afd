import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from noumopt import (
    COMMON,
    PRIVATE,
    PrecoderSet,
    SampleSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    draw_estimate,
    draw_sample_set,
    sampled_average_rates,
    update_equalizers_weights,
)
from noumopt.channel import ChannelEstimate
from noumopt.reference import (
    effective_power_T,
    mmse_equalizer,
    mmse_weight,
    mse,
    per_sample,
    rate_wmmse_identity_check,
    weighted_mse_bits,
    weighted_mse_nats,
    xi_hat,
    xi_hat_nats,
)
from noumopt.wmmse import LN2


def cvec(*entries):
    return np.array(entries, dtype=complex)


def random_instance(rng, k=None, n_t=None, strategy=None):
    k = k or int(rng.integers(1, 4))
    n_t = n_t or int(rng.integers(1, 5))
    strategy = strategy or rng.choice(list(Strategy))
    order = tuple(int(i) for i in rng.permutation(k)) if strategy.uses_dpc else None
    h = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    e = 0.4 * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    prec = PrecoderSet.from_parts(
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
        rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
        order,
    )
    return strategy, h, e, prec


class TestEffectivePowerT:
    def test_common_stream_noise_plus_signal(self):
        prec = PrecoderSet.from_parts(cvec(1, 0), np.zeros((2, 1), complex), (0,))
        T = effective_power_T(Strategy.RS1, COMMON, 0, cvec(1, 0), None, prec)
        assert T == pytest.approx(2.0)

    def test_all_zero_precoders(self):
        prec = PrecoderSet.from_parts(cvec(0, 0), np.zeros((2, 2), complex), (0, 1))
        for stream in (COMMON, PRIVATE):
            T = effective_power_T(Strategy.DPC, stream, 0, cvec(1, 1), cvec(0, 0), prec)
            assert T == pytest.approx(1.0)

    def test_dpc_last_encoded_no_residual(self):
        prec = PrecoderSet.from_parts(
            cvec(0, 0), np.column_stack([cvec(1, 0), cvec(0, 2)]), (0, 1)
        )
        h = cvec(1, 1)
        T = effective_power_T(Strategy.DPC, PRIVATE, 1, h, cvec(0, 0), prec)
        assert T == pytest.approx(abs(np.vdot(h, prec.private[:, 1])) ** 2 + 1.0)

    def test_private_excludes_common(self):
        prec = PrecoderSet.from_parts(cvec(10, 0), np.column_stack([cvec(1, 0), cvec(0, 1)]))
        T = effective_power_T(Strategy.MULP, PRIVATE, 0, cvec(1, 0), None, prec)
        assert T == pytest.approx(2.0)  # own gain 1 + noise 1, common absent


class TestMse:
    def test_zero_equalizer(self):
        assert mse(0.0, 5.0, cvec(1, 0), cvec(1, 0)) == 1.0

    def test_hand_example(self):
        assert mse(0.5, 2.0, cvec(1, 0), cvec(1, 0)) == pytest.approx(0.5)

    def test_mmse_equalizer_attains_completed_square(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            T = abs(np.vdot(h, p)) ** 2 + abs(rng.standard_normal()) + 1.0
            g = mmse_equalizer(h, p, T)
            assert mse(g, T, h, p) == pytest.approx(
                1.0 - abs(np.vdot(h, p)) ** 2 / T, abs=1e-12
            )


class TestClosedForms:
    def test_equalizer_hand_example(self):
        assert mmse_equalizer(cvec(1, 0), cvec(1, 0), 2.0) == pytest.approx(0.5)

    def test_orthogonal_gives_zero(self):
        assert mmse_equalizer(cvec(1, 0), cvec(0, 1), 3.0) == 0

    def test_equalizer_matches_numeric_minimization(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            T = abs(np.vdot(h, p)) ** 2 + 1.5
            c = np.vdot(h, p)
            # mse separates over Re(g), Im(g); minimize each numerically.
            re = minimize_scalar(
                lambda x: mse(x + 1j * 0.0, T, h, p), bounds=(-10, 10), method="bounded",
                options={"xatol": 1e-10},
            ).x
            im = minimize_scalar(
                lambda y: mse(re + 1j * y, T, h, p), bounds=(-10, 10), method="bounded",
                options={"xatol": 1e-10},
            ).x
            g = mmse_equalizer(h, p, T)
            assert abs(g - (re + 1j * im)) < 1e-6

    def test_weight_hand_examples(self):
        assert mmse_weight(cvec(1, 0), cvec(1, 0), 2.0) == pytest.approx(2.0)
        assert mmse_weight(cvec(1, 0), cvec(0, 0), 1.0) == pytest.approx(1.0)

    def test_log_weight_is_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            sig = abs(np.vdot(h, p)) ** 2
            interference = abs(rng.standard_normal())
            T = sig + interference + 1.0
            w = mmse_weight(h, p, T)
            assert w >= 1.0
            assert np.log2(w) == pytest.approx(np.log2(1 + sig / (interference + 1)), rel=1e-12)

    def test_weight_matches_numeric_minimization_of_nats_wmse(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            T = abs(np.vdot(h, p)) ** 2 + 2.0
            g = mmse_equalizer(h, p, T)
            w_star = mmse_weight(h, p, T)
            res = minimize_scalar(
                lambda w: weighted_mse_nats(g, w, T, h, p),
                bounds=(1e-3, 1e3), method="bounded", options={"xatol": 1e-12},
            )
            assert abs(res.x - w_star) < 1e-6


class TestRateWmmseIdentity:
    def test_worked_instance(self):
        # h=[1,0], p_c=[1,0], everything else zero, common stream.
        prec = PrecoderSet.from_parts(cvec(1, 0), np.zeros((2, 1), complex), (0,))
        xi, rate = rate_wmmse_identity_check(
            Strategy.DPCRS1, cvec(1, 0), cvec(0, 0), prec, COMMON, 0
        )
        assert rate == pytest.approx(1.0)
        assert xi == pytest.approx(0.0, abs=1e-15)

    def test_zero_precoder(self):
        prec = PrecoderSet.from_parts(cvec(0, 0), np.zeros((2, 1), complex), (0,))
        xi, rate = rate_wmmse_identity_check(
            Strategy.MULP, cvec(1, 0), None, prec, PRIVATE, 0
        )
        assert rate == 0.0
        assert xi == pytest.approx(1.0)

    def test_randomized_battery(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            strategy, h, e, prec = random_instance(rng)
            user = int(rng.integers(prec.num_users))
            stream = COMMON if rng.random() < 0.5 else PRIVATE
            xi, rate = rate_wmmse_identity_check(strategy, h, e, prec, stream, user)
            assert abs(xi - (1.0 - rate)) <= 1e-9


class TestNatsWmseOptimality:
    def test_closed_form_beats_perturbations(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            strategy, h, e, prec = random_instance(rng)
            user = int(rng.integers(prec.num_users))
            stream = COMMON if rng.random() < 0.5 else PRIVATE
            T = effective_power_T(strategy, stream, user, h, e, prec)
            p = prec.common if stream == COMMON else prec.private[:, user]
            g, w = mmse_equalizer(h, p, T), mmse_weight(h, p, T)
            base = weighted_mse_nats(g, w, T, h, p)
            for _ in range(40):
                dg = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
                dw = 0.5 * rng.standard_normal()
                w_pert = max(w + dw, 1e-6)
                assert weighted_mse_nats(g + dg, w_pert, T, h, p) >= base - 1e-12

    def test_min_value_is_one_minus_rate_nats(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            strategy, h, e, prec = random_instance(rng)
            user = int(rng.integers(prec.num_users))
            T = effective_power_T(strategy, PRIVATE, user, h, e, prec)
            p = prec.private[:, user]
            g, w = mmse_equalizer(h, p, T), mmse_weight(h, p, T)
            rate_bits = np.log2(w)
            assert weighted_mse_nats(g, w, T, h, p) == pytest.approx(
                1.0 - rate_bits * np.log(2.0), abs=1e-12
            )


def manual_sample_set(realizations, errors):
    est = ChannelEstimate(realizations[0] - errors[0])
    return SampleSet(est, errors)


class TestUpdate:
    def test_stream_user_sample_layout(self):
        rng = np.random.default_rng(31)
        cfg = SystemConfig(3, 2, 15.0, 0.5, (1.0, 0.5, 2.0), 5)
        s = draw_sample_set(cfg, draw_estimate(cfg, 0), 5, 0)
        prec = PrecoderSet.from_parts(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
            (2, 0, 1),
        )
        g, w = update_equalizers_weights(Strategy.DPCRS1, s, prec)
        for arr in (g, w):
            assert arr.shape == (2, 3, 5)
            assert arr.flags.c_contiguous
        channels, errors = per_sample(s.realizations_h), per_sample(s.errors_h)
        for stream in (COMMON, PRIVATE):
            for user in range(3):
                p = prec.common if stream == COMMON else prec.private[:, user]
                for m in range(5):
                    h, e = channels[m, :, user], errors[m, :, user]
                    T = effective_power_T(Strategy.DPCRS1, stream, user, h, e, prec)
                    assert g[stream, user, m] == pytest.approx(mmse_equalizer(h, p, T), rel=1e-12)
                    assert w[stream, user, m] == pytest.approx(mmse_weight(h, p, T), rel=1e-12)


class TestAssemble:
    def test_single_sample_hand_example(self):
        # M=1, w=2, g=0.5, h=[1,0]: t=0.5, Psi=0.5*e1e1', nu=1, f=[1,0].
        realizations = np.zeros((1, 2, 1), complex)
        realizations[0, :, 0] = [1.0, 0.0]
        s = manual_sample_set(realizations, np.zeros((1, 2, 1), complex))
        g = np.full((2, 1, 1), 0.5 + 0j)   # stream, user, sample
        w = np.full((2, 1, 1), 2.0)
        coeffs = assemble_coefficients(Strategy.RS1, s, g, w, None)
        assert coeffs.t[PRIVATE, 0] == pytest.approx(0.5)
        assert np.allclose(coeffs.psi[PRIVATE, 0], 0.5 * np.outer([1, 0], [1, 0]))
        assert coeffs.nu[PRIVATE, 0] / LN2 == pytest.approx(1.0)
        assert np.allclose(coeffs.f[PRIVATE, 0], [1.0, 0.0])
        assert coeffs.w[PRIVATE, 0] == pytest.approx(2.0)
        assert coeffs.nu[PRIVATE, 0] == pytest.approx(np.log(2.0))

    def test_duplicated_samples_equal_single(self):
        rng = np.random.default_rng(77)
        cfg = SystemConfig(2, 2, 10.0, 0.5, (1.0, 1.0), 6)
        est = draw_estimate(cfg, 0)
        s1 = draw_sample_set(cfg, est, 1, 0)
        dup = SampleSet(est, np.repeat(per_sample(s1.errors_h), 6, axis=0))
        prec = PrecoderSet.from_parts(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            (1, 0),
        )
        for s_set in (s1, dup):
            g, w = update_equalizers_weights(Strategy.DPCRS1, s_set, prec)
            coeffs = assemble_coefficients(Strategy.DPCRS1, s_set, g, w, (1, 0))
            if s_set is s1:
                ref = coeffs
        for k in range(2):
            assert np.allclose(ref.psi[PRIVATE, k], coeffs.psi[PRIVATE, k], atol=1e-12)
            assert np.allclose(ref.f[COMMON, k], coeffs.f[COMMON, k], atol=1e-12)
            assert ref.t[PRIVATE, k] == pytest.approx(coeffs.t[PRIVATE, k], abs=1e-12)

    def test_psi_phi_psd(self):
        rng = np.random.default_rng(13)
        cfg = SystemConfig(2, 3, 15.0, 0.4, (1.0, 0.5), 8)
        est = draw_estimate(cfg, 0)
        s = draw_sample_set(cfg, est, 12, 0)
        prec = PrecoderSet.from_parts(
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            (0, 1),
        )
        g, w = update_equalizers_weights(Strategy.DPCRS1, s, prec)
        coeffs = assemble_coefficients(Strategy.DPCRS1, s, g, w, (0, 1))
        for psi in coeffs.psi.reshape(-1, 3, 3):
            assert np.min(np.linalg.eigvalsh(psi)) >= -1e-12
        for phi in coeffs.phi:
            assert np.min(np.linalg.eigvalsh(phi)) >= -1e-12
        assert np.all(coeffs.w >= 1.0)
        assert np.all(coeffs.nu / LN2 >= 0.0)


def direct_wmse_average(strategy, samples, prec, g, w, stream, user):
    p = prec.common if stream == COMMON else prec.private[:, user]
    channels, errors = per_sample(samples.realizations_h), per_sample(samples.errors_h)
    vals = []
    for m in range(samples.sample_count):
        h = channels[m, :, user]
        e = errors[m, :, user]
        T = effective_power_T(strategy, stream, user, h, e, prec)
        vals.append(
            weighted_mse_bits(g[stream, user, m], w[stream, user, m], T, h, p)
        )
    return float(np.mean(vals))


class TestXiHat:
    def _instance(self, seed, strategy=Strategy.DPCRS1, m=8):
        rng = np.random.default_rng(seed)
        cfg = SystemConfig(2, 2, 15.0, 0.5, (1.0, 1.0), seed)
        est = draw_estimate(cfg, 0)
        s = draw_sample_set(cfg, est, m, 0)
        order = (0, 1) if strategy.uses_dpc else None
        prec = PrecoderSet.from_parts(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            order,
        )
        g, w = update_equalizers_weights(strategy, s, prec)
        coeffs = assemble_coefficients(strategy, s, g, w, order)
        return s, prec, g, w, coeffs

    def test_matches_direct_average(self):
        for seed, strategy in [(1, Strategy.DPCRS1), (2, Strategy.RS1), (3, Strategy.DPC), (4, Strategy.MULP)]:
            s, prec, g, w, coeffs = self._instance(seed, strategy)
            # Evaluate at a different precoder than the assembly point too.
            rng = np.random.default_rng(seed + 100)
            other = PrecoderSet.from_parts(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                prec.order,
            )
            for target in (prec, other):
                for user in range(2):
                    for stream in (COMMON, PRIVATE):
                        direct = direct_wmse_average(strategy, s, target, g, w, stream, user)
                        assert abs(xi_hat(coeffs, target, stream, user) - direct) <= 1e-10

    def test_equals_one_minus_sampled_ar_at_update_point(self):
        s, prec, g, w, coeffs = self._instance(9)
        (rates,) = sampled_average_rates(Strategy.DPCRS1, s, prec.rows[None], prec.order)
        for user in range(2):
            assert xi_hat(coeffs, prec, COMMON, user) == pytest.approx(
                1.0 - rates[COMMON, user], abs=1e-10
            )
            assert xi_hat(coeffs, prec, PRIVATE, user) == pytest.approx(
                1.0 - rates[PRIVATE, user], abs=1e-10
            )

    def test_zero_precoders_reduce_to_constants(self):
        s, prec, g, w, coeffs = self._instance(10)
        zeros = PrecoderSet.from_parts(np.zeros(2, complex), np.zeros((2, 2), complex), (0, 1))
        for user in range(2):
            t, w, nu = coeffs.t[PRIVATE, user], coeffs.w[PRIVATE, user], coeffs.nu[PRIVATE, user]
            assert xi_hat(coeffs, zeros, PRIVATE, user) == pytest.approx(
                t + w - nu / LN2, abs=1e-12
            )

    def test_nats_flavour_differs_only_by_nu(self):
        s, prec, g, w, coeffs = self._instance(11)
        for user in range(2):
            nu = coeffs.nu[COMMON, user]
            delta = xi_hat_nats(coeffs, prec, COMMON, user) - xi_hat(coeffs, prec, COMMON, user)
            assert delta == pytest.approx(nu / LN2 - nu, abs=1e-12)

    def test_midpoint_convexity_in_precoders(self):
        s, prec, g, w, coeffs = self._instance(12)
        rng = np.random.default_rng(55)
        for _ in range(40):
            a = PrecoderSet.from_parts(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                (0, 1),
            )
            b = PrecoderSet.from_parts(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                (0, 1),
            )
            mid = PrecoderSet.from_parts(0.5 * (a.common + b.common), 0.5 * (a.private + b.private), (0, 1))
            for user in range(2):
                for stream in (COMMON, PRIVATE):
                    lhs = xi_hat(coeffs, mid, stream, user)
                    rhs = 0.5 * (xi_hat(coeffs, a, stream, user) + xi_hat(coeffs, b, stream, user))
                    assert lhs <= rhs + 1e-9
