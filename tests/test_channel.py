import numpy as np
import pytest

from noumopt import (
    SystemConfig,
    draw_estimate,
    draw_sample_set,
    error_variance,
)


def make_cfg(**kwargs):
    base = dict(
        num_users=2, num_tx_antennas=2, snr_db=20.0, csit_alpha=0.6,
        channel_variances=(1.0, 1.0), master_seed=123,
    )
    base.update(kwargs)
    return SystemConfig(**base)


class TestErrorVariance:
    def test_formula_at_20db_alpha06(self):
        cfg = make_cfg()
        assert error_variance(cfg, 0) == pytest.approx(100.0 ** (-0.6), rel=1e-12)
        assert error_variance(cfg, 0) == pytest.approx(0.063096, abs=1e-6)

    def test_alpha_zero_equals_channel_variance(self):
        cfg = make_cfg(csit_alpha=0.0, channel_variances=(1.0, 0.5))
        assert error_variance(cfg, 0) == 1.0
        assert error_variance(cfg, 1) == 0.5

    def test_large_alpha_vanishes(self):
        cfg = make_cfg(csit_alpha=1e6, channel_variances=(0.09, 0.09))
        assert error_variance(cfg, 0) == pytest.approx(0.0, abs=1e-300)

    def test_monotone_in_alpha_and_snr(self):
        alphas = [0.0, 0.3, 0.6, 1.0, 2.0]
        values = [error_variance(make_cfg(csit_alpha=a), 0) for a in alphas]
        assert all(a >= b for a, b in zip(values, values[1:]))
        snrs = [0.0, 10.0, 20.0, 30.0]
        values = [error_variance(make_cfg(snr_db=s, csit_alpha=0.6), 0) for s in snrs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_user(self):
        with pytest.raises(IndexError):
            error_variance(make_cfg(), 2)


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_cfg(num_users=0)
        with pytest.raises(ValueError):
            make_cfg(num_tx_antennas=0)
        with pytest.raises(ValueError):
            make_cfg(csit_alpha=-0.1)
        with pytest.raises(ValueError):
            make_cfg(channel_variances=(1.0,))
        with pytest.raises(ValueError):
            make_cfg(channel_variances=(1.0, 0.0))
        with pytest.raises(ValueError):
            make_cfg(master_seed=-1)

    def test_transmit_power(self):
        assert make_cfg(snr_db=20.0).transmit_power == pytest.approx(100.0)
        assert make_cfg(snr_db=0.0).transmit_power == pytest.approx(1.0)


class TestDrawEstimate:
    def test_deterministic(self):
        cfg = make_cfg()
        a = draw_estimate(cfg, 3)
        b = draw_estimate(cfg, 3)
        assert np.array_equal(a.matrix, b.matrix)
        c = draw_estimate(cfg, 4)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_order_independent(self):
        cfg = make_cfg()
        direct = draw_estimate(cfg, 7).matrix
        for r in range(7):
            draw_estimate(cfg, r)
        assert np.array_equal(draw_estimate(cfg, 7).matrix, direct)

    def test_perfect_csit_limit_variance(self):
        # alpha -> large: per-entry variance of the estimate approaches sigma_k^2.
        cfg = make_cfg(csit_alpha=1e6, num_tx_antennas=4, num_users=1, channel_variances=(1.0,))
        entries = np.concatenate(
            [draw_estimate(cfg, r).matrix.ravel() for r in range(2500)]
        )
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_empirical_variance_matches_decomposition(self):
        # 10^4 entries: per-entry variance within 5% of sigma^2 - sigma_e^2.
        cfg = make_cfg(csit_alpha=0.6, num_tx_antennas=4, num_users=2)
        target = 1.0 - error_variance(cfg, 0)
        entries = np.concatenate(
            [draw_estimate(cfg, r).matrix.ravel() for r in range(1250)]
        )
        assert entries.size == 10000
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(target, rel=0.05)

    def test_negative_effective_variance_rejected(self):
        # P_t < 1 with alpha > 0 pushes sigma_e^2 above sigma^2.
        with pytest.raises(ValueError):
            make_cfg(snr_db=-10.0, csit_alpha=1.0)
        assert np.all(draw_estimate(make_cfg(snr_db=-10.0, csit_alpha=0.0), 0).matrix == 0)

    def test_alpha_zero_gives_zero_estimate(self):
        cfg = make_cfg(csit_alpha=0.0)
        assert np.all(draw_estimate(cfg, 0).matrix == 0)


class TestSampleSet:
    def test_rejects_bad_sample_count(self):
        cfg = make_cfg()
        est = draw_estimate(cfg, 0)
        with pytest.raises(ValueError):
            draw_sample_set(cfg, est, 0, 0)

    def test_reconstruction_identity_exact(self):
        cfg = make_cfg()
        est = draw_estimate(cfg, 0)
        s = draw_sample_set(cfg, est, 64, 0)
        assert np.array_equal(s.realizations, est.matrix[np.newaxis] + s.errors)

    def test_conjugated_layouts_exact_and_read_only(self):
        cfg = make_cfg(num_users=3, num_tx_antennas=4, channel_variances=(1.0, 0.5, 2.0))
        s = draw_sample_set(cfg, draw_estimate(cfg, 0), 7, 0)
        for stored, conjugated in ((s.realizations, s.realizations_h), (s.errors, s.errors_h)):
            assert conjugated.shape == (3, 4, 7)   # user, antenna, sample
            assert np.array_equal(conjugated, stored.conj().transpose(2, 1, 0))
            assert conjugated.flags.c_contiguous
            with pytest.raises(ValueError):
                conjugated[0, 0, 0] = 0.0
        assert not [name for name, value in vars(s).items() if np.shape(value) == (7, 3, 4)]

    def test_deterministic(self):
        cfg = make_cfg()
        est = draw_estimate(cfg, 1)
        a = draw_sample_set(cfg, est, 16, 1)
        b = draw_sample_set(cfg, est, 16, 1)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.realizations, b.realizations)

    def test_zero_error_limit(self):
        cfg = make_cfg(csit_alpha=1e6)
        est = draw_estimate(cfg, 0)
        s = draw_sample_set(cfg, est, 1, 0)
        assert np.all(s.errors == 0)
        assert np.array_equal(s.realizations[0], est.matrix)

    def test_error_mean_near_zero(self):
        cfg = make_cfg()
        est = draw_estimate(cfg, 0)
        m = 10000
        s = draw_sample_set(cfg, est, m, 0)
        sigma_e = np.sqrt(error_variance(cfg, 0))
        # Mean of M i.i.d. draws: |mean| within 3 sigma_e/sqrt(M) per part.
        tol = 3.0 * sigma_e / np.sqrt(m)
        means = s.errors.mean(axis=0)
        assert np.all(np.abs(means.real) < tol)
        assert np.all(np.abs(means.imag) < tol)

    def test_empirical_error_variance(self):
        cfg = make_cfg(channel_variances=(1.0, 0.25))
        est = draw_estimate(cfg, 0)
        s = draw_sample_set(cfg, est, 10000, 0)
        for k in range(2):
            target = error_variance(cfg, k)
            measured = np.mean(np.abs(s.errors[:, :, k]) ** 2)
            assert measured == pytest.approx(target, rel=0.05)

    def test_common_random_numbers_across_alpha(self):
        # The underlying standard normals are alpha-independent: errors at two
        # alphas differ only by the deterministic scale factor.
        cfg_a = make_cfg(csit_alpha=0.3)
        cfg_b = make_cfg(csit_alpha=0.9)
        est_a = draw_estimate(cfg_a, 2)
        est_b = draw_estimate(cfg_b, 2)
        s_a = draw_sample_set(cfg_a, est_a, 8, 2)
        s_b = draw_sample_set(cfg_b, est_b, 8, 2)
        ratio = np.sqrt(error_variance(cfg_b, 0) / error_variance(cfg_a, 0))
        assert np.allclose(s_b.errors, s_a.errors * ratio, rtol=1e-12)
