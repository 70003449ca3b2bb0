import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr

from obdk import (
    ComplexChannel,
    RealChannel,
    expand_real_channel,
    quantize_sign,
    sample_rayleigh_channel,
    stream_rng,
    transmit_and_quantize,
)
from conftest import EXAMPLE_HBAR, example_channel


class TestExpandRealChannel:
    def test_single_entry(self):
        out = expand_real_channel(ComplexChannel(np.array([[1 + 1j]])))
        assert_array_equal(out, [[1, -1], [1, 1]])

    def test_pure_imaginary(self):
        out = expand_real_channel(ComplexChannel(np.array([[1j]])))
        assert_array_equal(out, [[0, -1], [1, 0]])

    def test_two_by_two_columns(self):
        out = expand_real_channel(ComplexChannel(EXAMPLE_HBAR))
        assert out.shape == (4, 4)
        assert_allclose(out[:, 0], [0.8, 0.1, -0.7, 0.4])
        assert_allclose(out[:, 1], [0.2, 0.9, 0.3, -0.6])

    def test_block_structure(self):
        rng = stream_rng(1, 0)
        h = sample_rayleigh_channel(5, 3, rng)
        out = expand_real_channel(h)
        n, u = 5, 3
        assert_array_equal(out[:n, :u], out[n:, u:])
        assert_array_equal(out[:n, u:], -out[n:, :u])

    def test_matches_complex_product(self):
        rng = stream_rng(2, 0)
        h = sample_rayleigh_channel(4, 2, rng)
        out = expand_real_channel(h)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        stacked = out @ np.concatenate([x.real, x.imag])
        direct = h.entries @ x
        assert_allclose(stacked, np.concatenate([direct.real, direct.imag]), atol=1e-12)


class TestSampleRayleigh:
    def test_unit_entry_power(self):
        h = sample_rayleigh_channel(1000, 1000, stream_rng(3, 0))
        assert abs(np.mean(np.abs(h.entries) ** 2) - 1.0) < 0.01

    def test_real_part_variance(self):
        h = sample_rayleigh_channel(1000, 1000, stream_rng(4, 0))
        assert abs(np.var(h.entries.real) - 0.5) < 0.01

    def test_seed_determinism(self):
        a = sample_rayleigh_channel(6, 4, stream_rng(5, 7))
        b = sample_rayleigh_channel(6, 4, stream_rng(5, 7))
        assert_array_equal(a.entries, b.entries)

    def test_distinct_streams_differ(self):
        a = sample_rayleigh_channel(6, 4, stream_rng(5, 0))
        b = sample_rayleigh_channel(6, 4, stream_rng(5, 1))
        assert not np.array_equal(a.entries, b.entries)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_rayleigh_channel(0, 1, stream_rng(0, 0))


class TestQuantizeSign:
    def test_example_vector(self):
        assert_array_equal(quantize_sign([0.6, -0.8, -1.0, 1.0]), [1, -1, -1, 1])

    def test_zero_maps_to_plus_one(self):
        assert_array_equal(quantize_sign([0.0]), [1])
        assert_array_equal(quantize_sign([-0.0]), [1])  # -0.0 >= 0.0

    @pytest.mark.parametrize("shape", [(), (5,), (40, 6)])
    def test_int8_in_the_input_shape(self, shape):
        v = stream_rng(7, 0).standard_normal(shape)
        out = quantize_sign(v)
        assert isinstance(out, np.ndarray) and out.dtype == np.int8 and out.shape == shape
        assert_array_equal(out, np.where(v >= 0.0, 1, -1))

    def test_small_magnitudes(self):
        assert_array_equal(quantize_sign([-0.0001, 0.0001]), [-1, 1])

    def test_idempotent(self):
        rng = stream_rng(6, 0)
        v = rng.standard_normal(64)
        once = quantize_sign(v)
        assert_array_equal(quantize_sign(once), once)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize_sign([np.nan, 1.0])
        with pytest.raises(ValueError):
            quantize_sign([np.inf])


class TestTransmitAndQuantize:
    def test_noiseless_limit_reproduces_codeword(self):
        ch = example_channel(1e-12)
        y = transmit_and_quantize(ch, [1.0, 1.0, 0.0, 0.0], stream_rng(7, 0))
        assert_array_equal(y, [1, 1, -1, -1])

    def test_fixed_seed_reproducible(self):
        ch = example_channel(0.5)
        x = [1.0, -1.0, 0.0, 0.0]
        a = transmit_and_quantize(ch, x, stream_rng(8, 3))
        b = transmit_and_quantize(ch, x, stream_rng(8, 3))
        assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        ch = example_channel(0.5)
        with pytest.raises(ValueError):
            transmit_and_quantize(ch, [1.0, -1.0], stream_rng(0, 0))

    def test_flip_rate_matches_gaussian_tail(self):
        # Element 2 sees h.x = -0.4 for x = [1,1]; its sign flips with
        # probability Q(sqrt(2/sigma^2) * 0.4).
        sigma_sq = 0.5
        ch = example_channel(sigma_sq)
        x = np.array([1.0, 1.0, 0.0, 0.0])
        rng = stream_rng(9, 0)
        trials = 100_000
        noise = rng.standard_normal((trials, 4)) * ch.noise_std_per_component
        y = quantize_sign(ch.entries @ x + noise)
        flip_rate = np.mean(y[:, 2] != -1)
        expected = ndtr(-np.sqrt(2.0 / sigma_sq) * 0.4)
        stderr = np.sqrt(expected * (1 - expected) / trials)
        assert abs(flip_rate - expected) < 3 * stderr

    def test_noiseless_matches_quantize_sign(self):
        ch = example_channel(1e-12)
        for x in ([1, -1, 0, 0], [-1, -1, 0, 0]):
            clean = quantize_sign(ch.entries @ np.asarray(x, dtype=float))
            y = transmit_and_quantize(ch, np.asarray(x, dtype=float), stream_rng(10, 0))
            assert_array_equal(y, clean)


class TestRealChannelValidation:
    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValueError):
            RealChannel(np.ones((3, 2)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        h = np.ones((2, 2))
        h[1, 0] = bad
        with pytest.raises(ValueError, match="real channel matrix contains non-finite entries"):
            RealChannel(h, 1.0)
        with pytest.raises(ValueError, match="channel matrix contains non-finite entries"):
            ComplexChannel(np.array([[1.0, 1j * bad]]))

    def test_complex_channel_holds_a_read_only_copy(self):
        # Before, entries aliased the caller's array, so a later write showed through.
        h = np.ones((2, 1), dtype=complex)
        c = ComplexChannel(h)
        h[0, 0] = np.nan
        assert_array_equal(c.entries, np.ones((2, 1)))
        with pytest.raises(ValueError, match="read-only"):
            c.entries[0, 0] = 2
        assert not pickle.loads(pickle.dumps(c)).entries.flags.writeable

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (3,), (1, 1, 1)])
    def test_complex_channel_rejects_bad_dimensions(self, shape):
        with pytest.raises(ValueError, match="2-D with positive dimensions"):
            ComplexChannel(np.ones(shape, dtype=complex))

    def test_rejects_bad_noise_variance(self):
        with pytest.raises(ValueError):
            RealChannel(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            RealChannel(np.ones((2, 2)), np.inf)

    def test_noise_variance_floor(self):
        ch = RealChannel(np.ones((2, 2)), 1e-30)
        assert ch.noise_variance == 1e-12


class TestStreamRng:
    def test_seeds_above_two_to_the_63_keep_their_low_bits(self):
        a = stream_rng(2**63).standard_normal(4)
        b = stream_rng(2**63 + 5).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_largest_seed_is_not_seed_zero(self):
        assert not np.array_equal(stream_rng(2**64 - 1).standard_normal(4),
                                  stream_rng(0).standard_normal(4))

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(1.0), "1"],
                             ids=["half", "float-one", "numpy-float-one", "string"])
    def test_non_integer_seed_is_rejected(self, seed):
        # Before, 1.5 drew exactly what seed 1 draws.
        with pytest.raises(ValueError, match="seed must be an integer"):
            stream_rng(seed)
        for numpy_seed in (np.int64(1), np.uint64(1)):  # numpy integers stay accepted
            assert np.array_equal(stream_rng(numpy_seed).standard_normal(4),
                                  stream_rng(1).standard_normal(4))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            stream_rng(seed)

    @pytest.mark.parametrize("stream, message", [
        (1.5, "stream must be an integer"), (-1, "stream must lie in"), (2**64, "stream must lie in")])
    def test_stream_outside_64_bits_or_not_integer_is_rejected(self, stream, message):
        # Before, stream 1.5 drew what stream 1 draws, and -1 raised numpy's OverflowError.
        with pytest.raises(ValueError, match=message):
            stream_rng(3, stream)
        assert np.array_equal(stream_rng(3, np.uint64(1)).standard_normal(4),
                              stream_rng(3, 1).standard_normal(4))
