import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from obdk import (
    ComplexChannel,
    RealChannel,
    WeightSet,
    compute_weights_approx,
    compute_weights_exact,
    enumerate_symbol_vectors,
    expand_real_channel,
    log_q,
    make_constellation,
    q_hat,
)

mp.mp.dps = 40

# ln Q(x) at the reference points, from 40-digit erfc evaluation.
LN_Q_0 = -0.6931471805599453
LN_Q_1 = -1.8410216450092636
LN_Q_MINUS_1 = -0.17275377902344988


def _mp_log_q(x: float) -> float:
    return float(mp.log(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2))


def _line_system(values, sigma_sq):
    """One-user BPSK system whose first len(values) observation rows see
    |h.x| = values for x = [1, 0]."""
    hbar = ComplexChannel(np.asarray(values, dtype=complex).reshape(-1, 1))
    ch = RealChannel(expand_real_channel(hbar), sigma_sq)
    table = enumerate_symbol_vectors(make_constellation("bpsk"), 1)
    return ch, table


class TestLogQ:
    def test_at_zero(self):
        assert_allclose(float(log_q(0.0)), LN_Q_0, rtol=1e-12)

    def test_at_one(self):
        assert_allclose(float(log_q(1.0)), LN_Q_1, rtol=1e-12)

    def test_at_minus_one(self):
        assert_allclose(float(log_q(-1.0)), LN_Q_MINUS_1, rtol=1e-12)

    def test_relative_error_over_range(self):
        xs = np.linspace(-40.0, 40.0, 401)
        for x in xs:
            ref = _mp_log_q(float(x))
            assert abs(float(log_q(x)) - ref) <= 1e-9 * abs(ref) + 1e-15

    def test_no_underflow_in_range(self):
        assert np.isfinite(log_q(40.0))
        assert float(log_q(40.0)) > -805.0

    def test_saturates_beyond_range(self):
        assert float(log_q(50.0)) == float(log_q(40.0))
        assert float(log_q(-50.0)) == float(log_q(-40.0))


class TestQHat:
    def test_at_zero(self):
        assert float(q_hat(0.0)) == 0.5

    def test_at_one(self):
        assert_allclose(float(q_hat(1.0)), 0.5 * np.exp(-1.151), rtol=1e-15)
        assert abs(float(q_hat(1.0)) - float(ndtr(-1.0))) < 1e-3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_hat(-0.5)

    def test_absolute_error_bound(self):
        x = np.arange(0.0, 10.0005, 0.001)
        assert np.max(np.abs(ndtr(-x) - q_hat(x))) <= 1e-3


class TestExactWeights:
    def test_zero_inner_product(self):
        # Row 0 of the pure-imaginary channel sees h.x = 0 for x = [1, 0].
        ch, table = _line_system([1j], 1.0)
        ws = compute_weights_exact(ch, table)
        assert_allclose(ws.w[0, 0], np.log(2.0), rtol=1e-12)
        assert_allclose(ws.w_tilde[0, 0], np.log(2.0), rtol=1e-12)

    def test_unit_argument(self):
        # sigma^2 = 2 and |h.x| = 1 give the tail argument 1.
        ch, table = _line_system([1.0], 2.0)
        ws = compute_weights_exact(ch, table)
        assert_allclose(ws.w[0, 0], -LN_Q_1, rtol=1e-12)
        assert_allclose(ws.w_tilde[0, 0], -LN_Q_MINUS_1, rtol=1e-12)

    def test_high_snr_limit(self):
        ch, table = _line_system([1.0], 1e-12)
        ws = compute_weights_exact(ch, table)
        assert ws.w[0, 0] == pytest.approx(804.608, abs=0.01)
        assert 0 < ws.w_tilde[0, 0] < 1e-100

    def test_probabilities_sum_to_one(self):
        ch, table = _line_system(np.linspace(0.1, 2.0, 8), 0.7)
        ws = compute_weights_exact(ch, table)
        total = np.exp(-ws.w) + np.exp(-ws.w_tilde)
        assert_allclose(total, 1.0, atol=1e-9)

    def test_strictly_positive(self):
        ch, table = _line_system(np.linspace(0.0, 3.0, 7), 1e-8)
        ws = compute_weights_exact(ch, table)
        assert np.all(ws.w > 0) and np.all(ws.w_tilde > 0)


class TestApproxWeights:
    def test_zero_inner_product(self):
        ch, table = _line_system([1j], 1.0)
        ws = compute_weights_approx(ch, table)
        assert_allclose(ws.w[0, 0], np.log(2.0), rtol=1e-12)
        assert_allclose(ws.w_tilde[0, 0], np.log(2.0), rtol=1e-12)

    def test_unit_argument(self):
        ch, table = _line_system([1.0], 2.0)
        ws = compute_weights_approx(ch, table)
        expected_w = 0.374 + 0.777 + np.log(2.0)
        assert_allclose(ws.w[0, 0], expected_w, rtol=1e-12)
        assert_allclose(ws.w_tilde[0, 0], -np.log1p(-np.exp(-expected_w)), rtol=1e-12)
        # 40-digit reference values of those closed forms.
        assert_allclose(ws.w[0, 0], 1.8441471805599453, rtol=1e-12)
        assert_allclose(ws.w_tilde[0, 0], 0.17216547931122408, rtol=1e-10)

    def test_close_to_exact_weights(self):
        ch, table = _line_system([1.0], 2.0)
        ws = compute_weights_approx(ch, table)
        we = compute_weights_exact(ch, table)
        assert abs(ws.w[0, 0] - we.w[0, 0]) <= 0.0063

    def test_match_mismatch_identity(self):
        ch, table = _line_system(np.linspace(0.05, 1.5, 6), 0.8)
        ws = compute_weights_approx(ch, table)
        assert_allclose(np.exp(-ws.w_tilde), 1.0 - np.exp(-ws.w), atol=1e-12)

    def test_mismatch_weight_floor(self):
        ch, table = _line_system(np.linspace(0.0, 2.0, 9), 0.3)
        ws = compute_weights_approx(ch, table)
        assert np.all(ws.w >= np.log(2.0) - 1e-15)

    def test_monotone_in_inner_product(self):
        values = np.linspace(0.05, 3.0, 20)
        ch, table = _line_system(values, 1.0)
        ws = compute_weights_approx(ch, table)
        w_row = ws.w[0, :20]
        wt_row = ws.w_tilde[0, :20]
        assert np.all(np.diff(w_row) > 0)
        assert np.all(np.diff(wt_row) < 0)

    def test_gap_to_exact_bounded_by_tail(self):
        # First-order propagation of the 1e-3 tail-approximation error,
        # with 2x slack: |w - w_exact| <= 2e-3 / Q(s) for s in [0, 10].
        sigma_sq = 2.0
        values = np.linspace(0.01, 9.99, 150)
        ch, table = _line_system(values, sigma_sq)
        wa = compute_weights_approx(ch, table)
        we = compute_weights_exact(ch, table)
        n = len(values)
        s = np.sqrt(2.0 / sigma_sq) * values
        budget = 2e-3 / ndtr(-s)
        assert np.all(np.abs(wa.w[0, :n] - we.w[0, :n]) <= budget)

    def test_probability_surrogates_within_tail_error(self):
        ch, table = _line_system(np.linspace(0.0, 6.0, 40), 1.3)
        ws = compute_weights_approx(ch, table)
        n = 40
        s = np.sqrt(2.0 / 1.3) * np.linspace(0.0, 6.0, 40)
        q = ndtr(-s)
        assert np.all(np.abs(np.exp(-ws.w[0, :n]) - q) <= 1e-3)
        assert np.all(np.abs(np.exp(-ws.w_tilde[0, :n]) - (1 - q)) <= 1e-3)


class TestWeightSetValidation:
    @pytest.mark.parametrize("w, w_tilde, message", [
        (np.ones((2, 4)), np.ones((2, 3)), "identical shapes"),
        (np.ones((2, 4)), np.zeros((2, 4)), "strictly positive"),
        (-np.ones((2, 4)), np.ones((2, 4)), "strictly positive"),
        (np.full((2, 4), np.inf), np.ones((2, 4)), "finite"),
    ], ids=["shape", "zero-match", "negative-mismatch", "infinite"])
    def test_rejects_malformed_weights(self, w, w_tilde, message):
        with pytest.raises(ValueError, match=message):
            WeightSet(w, w_tilde)
