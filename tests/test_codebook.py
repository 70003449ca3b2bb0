import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from obdk import (
    Codebook,
    Constellation,
    RealChannel,
    SymbolTable,
    build_codebook,
    enumerate_symbol_vectors,
    make_constellation,
    quantize_sign,
    sample_rayleigh_channel,
    stream_rng,
    expand_real_channel,
)
from conftest import EXAMPLE_CODEWORDS, example_system


class TestMakeConstellation:
    def test_qam4_unit_power(self):
        c = make_constellation("qam4")
        assert abs(np.mean(np.abs(c.complex_points) ** 2) - 1.0) < 1e-12
        assert set(np.round(np.unique(c.complex_points.real), 12)) == set(np.round([-1 / np.sqrt(2), 1 / np.sqrt(2)], 12))

    def test_qam16_levels(self):
        c = make_constellation("qam16")
        assert_allclose(np.unique(c.complex_points.real), np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0))
        assert abs(np.mean(np.abs(c.complex_points) ** 2) - 1.0) < 1e-12
        assert c.size == 16

    def test_bpsk(self):
        c = make_constellation("bpsk")
        assert_array_equal(c.complex_points, [-1.0 + 0j, 1.0 + 0j])
        assert c.size == 2
        assert np.all(c.complex_points.imag == 0)

    def test_unsupported_scheme(self):
        with pytest.raises(ValueError):
            make_constellation("psk8")

    @pytest.mark.parametrize("points", [[1, -1, 1j, -1j + 0.1], [2, -2]], ids=["near", "four"])
    def test_rejects_average_power_other_than_one(self, points):
        with pytest.raises(ValueError, match="average power is .*, expected 1"):
            Constellation("custom", np.array(points, dtype=complex))

    def test_points_are_a_read_only_copy(self):
        # Before, the constellation held the caller's array: writing 3 into
        # it broke unit power after the check and enumerated the point 3.
        pts = np.array([-1 + 0j, 1 + 0j])
        c = Constellation("bpsk", pts)
        pts[0] = 3
        assert_array_equal(c.complex_points, [-1, 1])
        assert_array_equal(enumerate_symbol_vectors(c, 1).vectors, [[1, 0], [-1, 0]])
        with pytest.raises(ValueError, match="read-only"):
            c.complex_points[0] = 3
        copy = pickle.loads(pickle.dumps(c))
        assert_array_equal(copy.complex_points, c.complex_points)
        assert not copy.complex_points.flags.writeable


class TestEnumerateSymbolVectors:
    def test_bpsk_two_users_order(self):
        t = enumerate_symbol_vectors(make_constellation("bpsk"), 2)
        assert_array_equal(
            t.vectors,
            [[1, 1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0]],
        )

    def test_qam4_single_user(self):
        t = enumerate_symbol_vectors(make_constellation("qam4"), 1)
        assert t.vectors.shape == (4, 2)
        assert_allclose(np.abs(t.vectors), 1 / np.sqrt(2))

    def test_qam4_six_users_size(self):
        t = enumerate_symbol_vectors(make_constellation("qam4"), 6)
        assert t.size == 4096

    def test_no_duplicates(self):
        t = enumerate_symbol_vectors(make_constellation("qam4"), 3)
        assert len(np.unique(t.vectors, axis=0)) == t.size

    def test_enumeration_is_stable(self):
        c = make_constellation("qam16")
        assert_array_equal(
            enumerate_symbol_vectors(c, 2).vectors, enumerate_symbol_vectors(c, 2).vectors
        )

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            enumerate_symbol_vectors(make_constellation("bpsk"), 25)

    @pytest.mark.parametrize("users", [0, -1])
    def test_user_count_below_one(self, users):
        with pytest.raises(ValueError, match="user count must be >= 1"):
            enumerate_symbol_vectors(make_constellation("bpsk"), users)

    def test_user_one_most_significant(self):
        t = enumerate_symbol_vectors(make_constellation("bpsk"), 3)
        # First user's symbol changes slowest along the index axis.
        assert_array_equal(t.vectors[:4, 0], [1, 1, 1, 1])
        assert_array_equal(t.vectors[4:, 0], [-1, -1, -1, -1])


class TestBuildCodebook:
    def test_reference_codebook(self):
        _, _, cb = example_system(0.01)
        assert_array_equal(cb.codewords, EXAMPLE_CODEWORDS)

    def test_reference_rows(self):
        _, _, cb = example_system(0.01)
        assert_array_equal(cb.codewords[0], [1, 1, -1, -1])
        assert_array_equal(cb.codewords[2], [-1, 1, 1, -1])

    def test_codewords_are_signs(self):
        ch, table, cb = example_system(1.0)
        assert_array_equal(cb.codewords, quantize_sign(table.vectors @ ch.entries.T))

    def test_antipodal_symbols_give_antipodal_codewords(self):
        rng = stream_rng(20, 0)
        hbar = sample_rayleigh_channel(4, 2, rng)
        ch = RealChannel(expand_real_channel(hbar), 1.0)
        table = enumerate_symbol_vectors(make_constellation("bpsk"), 2)
        cb = build_codebook(ch, table)
        products = table.vectors @ ch.entries.T
        assert np.all(products != 0)
        # Index pairs (0,3) and (1,2) hold antipodal symbol vectors.
        assert_array_equal(cb.codewords[0], -cb.codewords[3])
        assert_array_equal(cb.codewords[1], -cb.codewords[2])

    def test_elements_and_shape(self):
        _, _, cb = example_system(0.5)
        assert cb.codewords.shape == (4, 4)
        assert np.all(np.isin(cb.codewords, (-1, 1)))

    def test_reference_codewords_distinct(self):
        _, _, cb = example_system(0.01)
        assert len(np.unique(cb.codewords, axis=0)) == 4

    def test_dimension_mismatch(self):
        ch, _, _ = example_system(1.0)
        other = enumerate_symbol_vectors(make_constellation("qam4"), 3)
        with pytest.raises(ValueError):
            build_codebook(ch, other)


class TestCodebookChecks:
    """Before, Codebook kept any array, and detect_mwd answered an index
    even for all-zero codewords."""

    @pytest.mark.parametrize("entry", [0, 2, 0.5, np.nan, 1j])
    def test_entries_other_than_signs_rejected(self, entry):
        _, table, cb = example_system(0.5)
        codewords = np.array(cb.codewords, dtype=np.result_type(np.float64, entry))
        codewords[1, 2] = entry
        with pytest.raises(ValueError, match=r"codeword entries must be real \+1 or -1"):
            Codebook(codewords, table)

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 1), (3, 4), (5, 4)],
                             ids=["1-D", "3-D", "fewer-rows", "more-rows"])
    def test_shape_other_than_one_row_per_symbol_rejected(self, shape):
        _, table, _ = example_system(0.5)
        with pytest.raises(ValueError, match=r"codewords have shape .*, expected \(4, 2N\)"):
            Codebook(np.ones(shape, dtype=np.int8), table)

    @pytest.mark.parametrize("shape", [(3, 5), (3,), (3, 4, 1), (3, 2)],
                             ids=["five-columns", "1-D", "3-D", "two-columns"])
    def test_symbol_vectors_other_than_two_u_columns_rejected(self, shape):
        # Before, a (3, 5) table for U = 2 was accepted, and compute_llrs
        # would read each user's imaginary part from column U + u.
        with pytest.raises(ValueError, match=r"symbol vectors have shape .*, expected \(K, 2U\)"):
            SymbolTable(np.zeros(shape), make_constellation("qam4"), 2)

    def test_symbol_table_of_other_size_rejected(self):
        _, table, cb = example_system(0.5)
        fewer = SymbolTable(table.vectors[:2], table.constellation, table.users)
        with pytest.raises(ValueError, match=r"expected \(2, 2N\)"):
            Codebook(cb.codewords, fewer)
