import copy
import itertools

import numpy as np
import pytest

from noumopt import (
    COMMON,
    PRIVATE,
    AoResult,
    CommonRateAlloc,
    PrecoderSet,
    SampleSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    build_subproblem,
    draw_estimate,
    draw_sample_set,
    sampled_average_rates,
    solve,
    update_equalizers_weights,
    wasr,
)
from noumopt.channel import ChannelEstimate
from noumopt.ipm import solve_primal_dual
from noumopt.reference import instantaneous_common_rate, instantaneous_private_rate, per_sample
from noumopt.strategies import _stream_powers, capped_rows, interference_masks, total_powers


def cvec(*entries):
    return np.array(entries, dtype=complex)


def rates_of(strategy, samples, prec):
    """The (2, K) sampled average rates of one set, scored alone."""
    (rates,) = sampled_average_rates(strategy, samples, prec.rows[None], prec.order)
    return rates


class TestCommonRate:
    def test_hand_example(self):
        # h=[1,0], p_c=[2,0], p1=[1,0], p2=0 -> log2(1 + 4/2) = log2(3)
        prec = PrecoderSet.from_parts(cvec(2, 0), np.column_stack([cvec(1, 0), cvec(0, 0)]))
        rate = instantaneous_common_rate(Strategy.RS1, cvec(1, 0), None, prec)
        assert rate == pytest.approx(np.log2(3.0), abs=1e-12)
        assert rate == pytest.approx(1.58496, abs=1e-5)

    def test_zero_common_precoder(self):
        prec = PrecoderSet.from_parts(cvec(0, 0), np.column_stack([cvec(1, 0), cvec(0, 1)]))
        assert instantaneous_common_rate(Strategy.MULP, cvec(1, 0), None, prec) == 0.0

    def test_orthogonal_channel(self):
        prec = PrecoderSet.from_parts(cvec(3, 0), np.column_stack([cvec(1, 1), cvec(0, 2)]))
        assert instantaneous_common_rate(Strategy.DPC, cvec(0, 1), None, prec) == 0.0

    def test_identical_across_strategies(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prec = PrecoderSet.from_parts(
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            (1, 0),
        )
        rates = {
            s: instantaneous_common_rate(s, h, None, prec)
            for s in Strategy
        }
        assert len(set(rates.values())) == 1


class TestPrivateRate:
    def test_perfect_csit_orthogonal(self):
        # Orthogonal channels and matched precoders at power 50 each: log2(51).
        prec = PrecoderSet.from_parts(
            cvec(0, 0),
            np.column_stack([cvec(np.sqrt(50), 0), cvec(0, np.sqrt(50))]),
            (0, 1),
        )
        zero = cvec(0, 0)
        for strat in (Strategy.DPC, Strategy.DPCRS1):
            for user, h in ((0, cvec(1, 0)), (1, cvec(0, 1))):
                rate = instantaneous_private_rate(strat, h, zero, prec, user)
                assert rate == pytest.approx(np.log2(51.0), abs=1e-12)
        assert np.log2(51.0) == pytest.approx(5.6724, abs=1e-4)

    def test_dpc_residual_interference(self):
        # Second-encoded user: residual |h_err^H p_first|^2 = 0.09, own gain 4.
        prec = PrecoderSet.from_parts(
            cvec(0, 0),
            np.column_stack([cvec(1, 0), cvec(2, 0)]),
            (0, 1),
        )
        h = cvec(1, 0)
        h_err = cvec(0.3, 0)
        rate = instantaneous_private_rate(Strategy.DPC, h, h_err, prec, 1)
        assert rate == pytest.approx(np.log2(1.0 + 4.0 / 1.09), abs=1e-12)

    def test_rs1_full_interference_smaller(self):
        # Same precoders under RS1: full |h^H p_first|^2 = 1 in the denominator.
        prec = PrecoderSet.from_parts(cvec(0, 0), np.column_stack([cvec(1, 0), cvec(2, 0)]), (0, 1))
        h = cvec(1, 0)
        rs1 = instantaneous_private_rate(Strategy.RS1, h, None, prec, 1)
        dpc = instantaneous_private_rate(Strategy.DPC, h, cvec(0.3, 0), prec, 1)
        assert rs1 == pytest.approx(np.log2(3.0), abs=1e-12)
        assert rs1 < dpc

    def test_dpc_last_encoded_equals_rs1_with_earlier_zeroed(self):
        # Exact dominance statement: with zero error channel, the DPC rate of
        # the last-encoded user equals the RS1 rate after zeroing every
        # earlier-encoded interferer.
        rng = np.random.default_rng(11)
        n_t, k = 3, 3
        h = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        privates = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        order = (2, 0, 1)
        prec = PrecoderSet.from_parts(cvec(0, 0, 0), privates, order)
        last = order[-1]
        dpc = instantaneous_private_rate(Strategy.DPC, h, np.zeros(n_t, complex), prec, last)
        zeroed = privates.copy()
        for u in order[:-1]:
            zeroed[:, u] = 0
        rs1 = instantaneous_private_rate(Strategy.RS1, h, None, PrecoderSet.from_parts(cvec(0, 0, 0), zeroed), last)
        assert dpc == pytest.approx(rs1, abs=1e-12)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        privates = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        common = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        base = PrecoderSet.from_parts(common, privates, (0, 1))
        rotated = PrecoderSet.from_parts(
            common * np.exp(1j * 0.7),
            privates * np.exp(1j * np.array([[-1.1, 2.3]])),
            (0, 1),
        )
        for strat in (Strategy.DPC, Strategy.RS1):
            for user in range(2):
                a = instantaneous_private_rate(strat, h, e, base, user)
                b = instantaneous_private_rate(strat, h, e, rotated, user)
                assert a == pytest.approx(b, abs=1e-12)
        a = instantaneous_common_rate(Strategy.RS1, h, None, base)
        b = instantaneous_common_rate(Strategy.RS1, h, None, rotated)
        assert a == pytest.approx(b, abs=1e-12)


def small_sample_set(m=4, seed=9, alpha=0.6):
    cfg = SystemConfig(2, 2, 15.0, alpha, (1.0, 1.0), seed)
    est = draw_estimate(cfg, 0)
    return cfg, est, draw_sample_set(cfg, est, m, 0)


class TestSampledAverages:
    def test_single_sample_equals_instantaneous(self):
        cfg, est, s = small_sample_set(m=1)
        prec = PrecoderSet.from_parts(cvec(1, 1), np.column_stack([cvec(2, 0), cvec(0, 2)]), (0, 1))
        rates = rates_of(Strategy.DPCRS1, s, prec)
        channels, errors = per_sample(s.realizations_h), per_sample(s.errors_h)
        for k in range(2):
            inst_c = instantaneous_common_rate(
                Strategy.DPCRS1, channels[0, :, k], errors[0, :, k], prec
            )
            inst_p = instantaneous_private_rate(
                Strategy.DPCRS1, channels[0, :, k], errors[0, :, k], prec, k
            )
            assert rates[COMMON, k] == pytest.approx(inst_c, abs=1e-12)
            assert rates[PRIVATE, k] == pytest.approx(inst_p, abs=1e-12)

    def test_zero_error_any_m(self):
        cfg = SystemConfig(2, 2, 15.0, 1e6, (1.0, 1.0), 3)
        est = draw_estimate(cfg, 0)
        prec = PrecoderSet.from_parts(cvec(1, 0), np.column_stack([cvec(2, 0), cvec(0, 2)]), (0, 1))
        rates1 = rates_of(Strategy.RS1, draw_sample_set(cfg, est, 1, 0), prec)
        rates8 = rates_of(Strategy.RS1, draw_sample_set(cfg, est, 8, 0), prec)
        assert np.allclose(rates1[COMMON], rates8[COMMON], atol=1e-12)
        assert np.allclose(rates1[PRIVATE], rates8[PRIVATE], atol=1e-12)

    def test_duplicated_samples(self):
        cfg, est, s = small_sample_set(m=1)
        dup = SampleSet(est, np.repeat(per_sample(s.errors_h), 5, axis=0))
        prec = PrecoderSet.from_parts(cvec(1, 1), np.column_stack([cvec(2, 0), cvec(1, 2)]), (1, 0))
        a = rates_of(Strategy.DPC, s, prec)
        b = rates_of(Strategy.DPC, dup, prec)
        assert np.allclose(a[COMMON], b[COMMON], atol=1e-12)
        assert np.allclose(a[PRIVATE], b[PRIVATE], atol=1e-12)

    def test_all_rates_nonnegative_finite(self):
        cfg, est, s = small_sample_set(m=16)
        rng = np.random.default_rng(0)
        prec = PrecoderSet.from_parts(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            (0, 1),
        )
        for strat in Strategy:
            rates = rates_of(strat, s, prec)
            assert rates.shape == (2, 2)
            assert np.all(rates >= 0)
            assert np.all(np.isfinite(rates))


class TestBoundAllocAndWasr:
    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            CommonRateAlloc(np.array([-0.1, 0.5, 0.5]))

    def test_wasr(self):
        assert wasr(np.array([1.0, 1.0]), np.array([2.5, 1.5])) == 4.0
        # weight limit: tiny u2 approaches the user-1 total
        assert wasr(np.array([1.0, 1e-12]), np.array([2.5, 1.5])) == pytest.approx(2.5, abs=1e-9)
        # positive scaling leaves the argmax unchanged and scales the value
        assert wasr(np.array([3.0, 3.0]), np.array([2.5, 1.5])) == pytest.approx(12.0)
        with pytest.raises(ValueError):
            wasr(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestInterferenceMasks:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_masks_split_the_other_streams(self, k, strategy):
        for order in itertools.permutations(range(k)):
            channel, error = interference_masks(strategy, order, k)
            for mask in (channel, error):
                assert mask.shape == (k, k)
                assert np.all((mask == 0.0) | (mask == 1.0))
                assert not mask.flags.writeable
            assert not np.any((channel == 1.0) & (error == 1.0))
            assert np.array_equal(channel + error, 1.0 - np.eye(k))
            if strategy.uses_dpc:
                later = [[order.index(j) > order.index(user) for j in range(k)]
                         for user in range(k)]
                assert np.array_equal(channel, np.array(later, dtype=float))
            else:
                assert not np.any(error)
                channel_none, error_none = interference_masks(strategy, None, k)
                assert np.array_equal(channel_none, channel)
                assert np.array_equal(error_none, error)

    def test_dpc_needs_an_order(self):
        for strategy in (Strategy.DPC, Strategy.DPCRS1):
            with pytest.raises(ValueError):
                interference_masks(strategy, None, 2)
            with pytest.raises(ValueError):
                interference_masks(strategy, (0, 0), 2)


class TestStackedKernel:
    """A candidate's numbers do not depend on the candidates stacked with it.

    The AO scores a step and its extrapolations in one stacked call, so this
    is what makes that call pick the iterate a one-at-a-time loop would.
    M = 4000 is scored one set per chunk, the smaller M all six at once.
    """

    @pytest.mark.parametrize("k, n_t, m", [(2, 2, 64), (3, 4, 100), (2, 4, 4000)])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_candidate_alone_equals_candidate_in_a_stack(self, strategy, k, n_t, m):
        rng = np.random.default_rng(10 * k + n_t)
        cfg = SystemConfig(k, n_t, 20.0, 0.6, (1.0,) * k, 3)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, m, 0)
        order = tuple(int(j) for j in rng.permutation(k))
        rows = rng.standard_normal((6, k + 1, n_t)) + 1j * rng.standard_normal((6, k + 1, n_t))
        stacked = _stream_powers(strategy, samples, rows, order)
        rates = sampled_average_rates(strategy, samples, rows, order)
        assert rates.shape == (6, 2, k)
        for b in range(6):
            alone = _stream_powers(strategy, samples, rows[b:b + 1], order)
            for in_stack, by_itself in zip(stacked, alone):
                assert in_stack[b].tobytes() == by_itself[0].tobytes()
            prec = PrecoderSet(rows[b], order)
            assert rates[b].tobytes() == rates_of(strategy, samples, prec).tobytes()


class TestPrecoderSetValidation:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            PrecoderSet.from_parts(cvec(1, 0), np.zeros((2, 2), complex), (0, 0))

    def test_missing_order_raises_for_dpc(self):
        prec = PrecoderSet.from_parts(cvec(0, 0), np.ones((2, 2), complex))
        with pytest.raises(ValueError):
            instantaneous_private_rate(Strategy.DPC, cvec(1, 0), cvec(0, 0), prec, 0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ChannelEstimate(np.array([np.inf + 0j, 0j]).reshape(2, 1))

    def test_rows_must_be_a_matrix_with_a_user(self):
        with pytest.raises(ValueError):
            PrecoderSet(np.ones(3, complex))
        with pytest.raises(ValueError):
            PrecoderSet(np.ones((1, 3), complex))       # p_c alone: K = 0


class TestPrecoderLayout:
    """A set is its values: the memory layout of the parts it was built from never shows."""

    def test_rows_and_power_do_not_depend_on_the_layout(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n_t, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            order = tuple(int(j) for j in rng.permutation(k))
            common = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
            private = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
            wide = np.zeros((n_t, 2 * k), complex)
            wide[:, ::2] = private
            layouts = [np.ascontiguousarray(private), np.asfortranarray(private), wide[:, ::2]]
            sets = [PrecoderSet.from_parts(common, p, order) for p in layouts]
            first = sets[0]
            sets.append(PrecoderSet(np.asfortranarray(first.rows), order))
            assert first.rows.flags.c_contiguous and first.rows.shape == (k + 1, n_t)
            for prec in sets:
                assert prec.rows.tobytes() == first.rows.tobytes()
                assert np.float64(prec.total_power()).tobytes() == \
                    np.float64(first.total_power()).tobytes()
                assert prec.common.tobytes() == common.tobytes()
                assert prec.private.tobytes() == layouts[0].tobytes()
                assert prec.order == order

    def test_stacked_power_and_cap_equal_the_per_set_formula(self):
        # The per-set formula: p_c's power plus the private power, and a set
        # over the limit scaled by sqrt(limit / power).
        rng = np.random.default_rng(25)
        for _ in range(300):
            b, k, n_t = (int(rng.integers(1, 7)), int(rng.integers(1, 6)),
                         int(rng.integers(1, 12)))
            rows = rng.standard_normal((b, k + 1, n_t)) + 1j * rng.standard_normal((b, k + 1, n_t))
            rows *= rng.uniform(0.1, 3.0, (b, 1, 1))
            rows[rng.integers(b)] = 0.0                 # a zero-power candidate
            powers = [float(np.sum(np.abs(r[0]) ** 2) + np.sum(np.abs(r[1:]) ** 2)) for r in rows]
            stacked = total_powers(rows)
            assert stacked.shape == (b,)
            for power, candidate, got in zip(powers, rows, stacked):
                assert np.float64(power).tobytes() == got.tobytes()
                assert np.float64(PrecoderSet(candidate).total_power()).tobytes() == got.tobytes()
            limit = float(np.median(powers))
            capped = capped_rows(rows, limit)
            assert capped.shape == rows.shape
            for power, candidate, got in zip(powers, rows, capped):
                want = candidate * np.sqrt(limit / power) if power > limit else candidate
                assert got.tobytes() == want.tobytes()

    def test_cap_scales_only_the_sets_over_the_limit(self):
        rows = np.zeros((3, 3, 2), complex)
        rows[1, 0, 0] = 2.0                             # power 4; the others have none
        assert capped_rows(rows, 4.0) is rows
        zeros = rows[[0, 2]]
        assert capped_rows(zeros, 0.0) is zeros         # zero power is not over a zero limit
        capped = capped_rows(rows, 1.0)
        assert capped[1].tobytes() == (rows[1] * 0.5).tobytes()
        assert capped[0].tobytes() == capped[2].tobytes() == rows[0].tobytes()
        assert rows[1, 0, 0] == 2.0                     # the input is not written


def _array_holders():
    """One instance of every dataclass that holds arrays, from one small subproblem solve."""
    cfg, est, samples = small_sample_set(m=4)
    prec = PrecoderSet.from_parts(cvec(1, 0), np.column_stack([cvec(2, 0), cvec(0, 2)]), (0, 1))
    g, w = update_equalizers_weights(Strategy.DPCRS1, samples, prec)
    coeffs = assemble_coefficients(Strategy.DPCRS1, samples, g, w, (0, 1))
    spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.1, cfg.transmit_power)
    solution = solve(spec, initial=prec)
    ipm = solve_primal_dual(spec.objective, spec.constraints, solution.start)
    alloc = CommonRateAlloc(np.zeros(3))
    result = AoResult(Strategy.DPCRS1, prec, alloc, rates_of(Strategy.DPCRS1, samples, prec),
                      (0.0,), "converged", 0.0, 0.0)
    return [prec, alloc, result, est, samples, coeffs, spec, solution, spec.constraints, ipm]


class TestArrayHolders:
    """The dataclasses that hold arrays compare and hash by identity."""

    def test_identity_equality_and_hash(self):
        holders = _array_holders()
        assert len({type(holder).__name__ for holder in holders}) == 10
        for holder in holders:
            twin = copy.copy(holder)
            assert holder == holder
            assert holder != twin
            assert len({holder, twin, holder}) == 2
