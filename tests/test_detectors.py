import gc
import pickle
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr

from obdk import (
    Codebook,
    ComplexChannel,
    ComplexityQuery,
    ConfigError,
    ExperimentConfig,
    RealChannel,
    Receiver,
    SphereConfig,
    SphereTable,
    SymbolTable,
    WeightSet,
    assemble_list,
    build_codebook,
    build_sphere_table,
    complexity_model,
    compute_llrs,
    compute_weights_approx,
    compute_weights_exact,
    detect_mld,
    detect_mwd,
    detect_mwd_high_snr,
    detect_osd,
    enumerate_symbol_vectors,
    make_constellation,
    pattern_index,
    pattern_signs,
    quantize_sign,
    read_sphere_table,
    snr_db_to_sigma_sq,
    sphere_table_from_bytes,
    sphere_table_to_bytes,
    stream_rng,
    weighted_hamming,
    write_sphere_table,
)
import obdk.detectors
from obdk.detectors import (
    BLOCK_VALUES,
    MAX_SUBVECTOR_DIM,
    _candidates,
    _mismatch_affine,
    _nearest,
    _prepared,
    _row_blocks,
    _sub_scores,
    distance_affine,
    loglik_affine,
)
from obdk.analysis import SepBoundInputs, sep_bound
from obdk.experiments import validate_sep_config
from conftest import EXAMPLE_HBAR, example_system, random_system


def _all_observations(n):
    return np.array(list(product((1, -1), repeat=n)), dtype=np.int8)


class TestWeightedHamming:
    def test_identical_vectors_charge_match_weights(self):
        d = weighted_hamming([1, -1], [1, -1], [5.0, 5.0], [0.1, 0.2])
        assert d == pytest.approx(0.3)

    def test_plain_hamming_reduction(self):
        d = weighted_hamming([1, 1], [1, -1], [1.0, 1.0], [0.0, 0.0])
        assert d == 1.0

    def test_hand_worked_mix(self):
        d = weighted_hamming(
            [1, -1, -1, 1], [1, 1, -1, -1], [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]
        )
        assert d == pytest.approx(2 + 4 + 0.1 + 0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_hamming([1, -1], [1], [1.0], [0.1])


class TestPatternConvention:
    def test_known_patterns(self):
        assert pattern_index([1, 1]) == 0
        assert pattern_index([-1, 1]) == 1
        assert pattern_index([1, -1]) == 2
        assert pattern_index([-1, -1]) == 3

    def test_round_trip(self):
        for n in (1, 3, 5):
            for p in range(1 << n):
                assert pattern_index(pattern_signs(p, n)) == p

    def test_pattern_outside_range_rejected(self):
        # Before, pattern_signs(5, 2) gave pattern 1's signs and
        # pattern_signs(-1, 2) pattern 3's.
        for p in (5, -1):
            with pytest.raises(ValueError, match=r"pattern -?\d+ out of range \[0, 2\^2\)"):
                pattern_signs(p, 2)
        for n in (1, 8, MAX_SUBVECTOR_DIM):
            for p in (0, (1 << n) - 1):
                assert pattern_index(pattern_signs(p, n)) == p

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n_sub=st.integers(1, MAX_SUBVECTOR_DIM), g_count=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**32 - 1))
    @example(n_sub=MAX_SUBVECTOR_DIM, g_count=3, seed=0)
    def test_candidate_keys_equal_pattern_index(self, n_sub, g_count, seed):
        # Entry (g, p) of this table is its own row g 2^n_sub + p of the
        # flattened table, so a row's sorted candidates are its G keys.
        n_patterns = 1 << n_sub
        rows = np.arange(g_count * n_patterns, dtype=np.uint32)
        table = SphereTable(rows.reshape(g_count, n_patterns, 1), len(rows))
        if n_sub <= 8:  # every pattern in every group
            pats = (np.arange(n_patterns)[:, None] + np.arange(g_count)) % n_patterns
        else:
            pats = np.random.default_rng(seed).integers(0, n_patterns, size=(40, g_count))
        obs = np.array([np.concatenate([pattern_signs(p, n_sub) for p in row]) for row in pats])
        for batch in (obs, obs[:1], obs[-1:]):
            want = [[pattern_index(y[g * n_sub:(g + 1) * n_sub]) + g * n_patterns
                     for g in range(g_count)] for y in batch]
            for dtype in (np.int8, np.float64):
                assert_array_equal(_candidates(table, batch.astype(dtype)), want)


class TestDetectMld:
    def test_reference_channel_noisy_codeword(self):
        ch, _, cb = example_system(0.1)
        y = np.array([1, -1, -1, 1], dtype=np.int8)
        result = detect_mld(y, cb, ch)
        # Independent oracle: product of per-element tail probabilities.
        products = cb.symbols.vectors @ ch.entries.T
        scaled = np.sqrt(2.0 / ch.noise_variance) * products
        likelihood = np.prod(ndtr(scaled * y[None, :]), axis=1)
        assert result.index == int(np.argmax(likelihood))
        assert result.index == 1
        assert result.list_len == 4

    def test_single_codeword(self):
        table = SymbolTable(np.array([[1.0, 1.0, 0.0, 0.0]]), make_constellation("bpsk"), 2)
        ch, _, _ = example_system(1.0)
        cb = build_codebook(ch, table)
        result = detect_mld(np.array([-1, -1, -1, -1], dtype=np.int8), cb, ch)
        assert result.index == 0

    def test_antipodal_observations(self):
        ch, table, cb = random_system(2, 4, "bpsk", 0.5, seed=31)
        assert np.all(table.vectors @ ch.entries.T != 0)
        rng = stream_rng(32, 0)
        for _ in range(50):
            y = quantize_sign(rng.standard_normal(8))
            k_pos = detect_mld(y, cb, ch).index
            k_neg = detect_mld(-y, cb, ch).index
            assert_array_equal(table.vectors[k_neg], -table.vectors[k_pos])


class TestDetectMwd:
    def test_exact_flavor_matches_mld_exhaustively(self):
        for seed in (0, 1, 2):
            for sigma_sq in (0.5, 1.0, 2.0):
                ch, table, cb = random_system(2, 4, "qam4", sigma_sq, seed=seed)
                ws = compute_weights_exact(ch, table)
                for y in _all_observations(8):
                    assert detect_mwd(y, cb, ws).index == detect_mld(y, cb, ch).index

    def test_approx_agrees_with_exact_on_noisy_data(self):
        ch, table, cb = random_system(2, 8, "qam4", 10 ** (-0.5), seed=7)
        we = compute_weights_exact(ch, table)
        wa = compute_weights_approx(ch, table)
        rng = stream_rng(70, 0)
        trials = 100_000
        ks = rng.integers(0, cb.size, size=trials)
        noise = rng.standard_normal((trials, 16)) * ch.noise_std_per_component
        obs = quantize_sign(table.vectors[ks] @ ch.entries.T + noise)
        obs_f = obs.astype(np.float64)
        winners = {}
        for name, ws in (("approx", wa), ("exact", we)):
            base, coef = distance_affine(cb, ws)
            winners[name] = np.argmin(base[None, :] - obs_f @ coef.T, axis=1)
        assert np.mean(winners["approx"] == winners["exact"]) >= 0.99
        # The batched argmin is the same rule the public detector applies.
        for t in range(0, trials, 10_000):
            assert detect_mwd(obs[t], cb, wa).index == winners["approx"][t]

    def test_codeword_detected_at_high_snr(self):
        ch, table, cb = random_system(2, 8, "qam4", 0.01, seed=11)
        ws = compute_weights_approx(ch, table)
        for k in range(cb.size):
            assert detect_mwd(cb.codewords[k], cb, ws).index == k


class TestDetectMwdHighSnr:
    def test_agrees_with_full_rule_at_high_snr(self):
        ch, table, cb = random_system(2, 8, "qam4", 0.01, seed=13)
        ws = compute_weights_approx(ch, table)
        rng = stream_rng(14, 0)
        trials = 10_000
        ks = rng.integers(0, cb.size, size=trials)
        noise = rng.standard_normal((trials, 16)) * ch.noise_std_per_component
        obs = quantize_sign(table.vectors[ks] @ ch.entries.T + noise)
        agree = sum(
            detect_mwd_high_snr(obs[t], cb, ws).index == detect_mwd(obs[t], cb, ws).index
            for t in range(trials)
        )
        assert agree / trials >= 0.999

    def test_exact_codeword_wins(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.05, seed=15)
        ws = compute_weights_approx(ch, table)
        for k in range(cb.size):
            r = detect_mwd_high_snr(cb.codewords[k], cb, ws)
            assert r.index == k
            assert r.distance == pytest.approx(0.0, abs=1e-9)

    def test_unit_weights_reduce_to_hamming(self):
        _, table, cb = example_system(1.0)
        ws = WeightSet(np.ones((4, 4)), np.full((4, 4), 1e-12))
        y = np.array([1, -1, 1, 1], dtype=np.int8)
        hamming = np.sum(cb.codewords != y[None, :], axis=1)
        assert detect_mwd_high_snr(y, cb, ws).index == int(np.argmin(hamming))


class TestWeightSetMatchesCodebook:
    """A weight set scores codebooks of its own shape. Before, numpy
    broadcast a one-codeword codebook over the K weight rows (detect_mwd
    searched a list of 16 in a codebook of one) and refused another 2N
    with its own broadcast message."""

    CALLS = {
        "mwd": lambda cb, ws, table: detect_mwd(np.ones(cb.n_outputs), cb, ws),
        "mwd-hs": lambda cb, ws, table: detect_mwd_high_snr(np.ones(cb.n_outputs), cb, ws),
        "osd": lambda cb, ws, table: detect_osd(np.ones(cb.n_outputs), table, cb, ws),
        "table": lambda cb, ws, table: build_sphere_table(cb, ws, SphereConfig(2, 2)),
        "llrs": lambda cb, ws, table: compute_llrs(np.ones(cb.n_outputs), np.arange(cb.size),
                                                   cb, ws, 0),
    }

    # No list size lies in [1, K) for K = 1, so a table build refuses the
    # one-codeword codebook already.
    @pytest.mark.parametrize("call, mismatch", [
        (call, mismatch) for call in CALLS for mismatch in ("one-codeword", "other-2n")
        if (call, mismatch) != ("table", "one-codeword")
    ])
    def test_mismatched_codebook_rejected(self, call, mismatch):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 2))
        if mismatch == "one-codeword":
            other = Codebook(cb.codewords[:1],
                             SymbolTable(table.vectors[:1], table.constellation, table.users))
        else:
            other = random_system(2, 3, "qam4", 0.3, seed=5)[2]
        with pytest.raises(ValueError, match=rf"weight set has shape \(16, 8\), codebook "
                                             rf"codewords \({other.size}, {other.n_outputs}\)"):
            self.CALLS[call](other, ws, sphere)


class TestBuildSphereTable:
    def test_reference_sublists(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        # Group 1 maps each pattern to the matching codeword slice;
        # group 2 holds the slices in reverse codeword order.
        group1 = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}
        group2 = {(1, 1): 3, (1, -1): 2, (-1, 1): 1, (-1, -1): 0}
        for signs, k in group1.items():
            assert sphere.indices[0, pattern_index(signs)] == [k]
        for signs, k in group2.items():
            assert sphere.indices[1, pattern_index(signs)] == [k]

    def test_top_l_lists_match_brute_force(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.8, seed=21)
        ws = compute_weights_approx(ch, table)
        cfg = SphereConfig(4, 3)
        sphere = build_sphere_table(cb, ws, cfg)
        for g in range(2):
            cols = slice(g * 4, (g + 1) * 4)
            for p in range(16):
                signs = pattern_signs(p, 4)
                dists = np.array(
                    [
                        weighted_hamming(
                            signs, cb.codewords[k, cols], ws.w[k, cols], ws.w_tilde[k, cols]
                        )
                        for k in range(cb.size)
                    ]
                )
                expected = np.argsort(dists, kind="stable")[:3]
                assert_array_equal(sphere.indices[g, p], expected)
                assert np.all(np.diff(dists[sphere.indices[g, p]]) >= 0)

    def test_largest_list_drops_only_farthest(self):
        ch, table, cb = random_system(2, 2, "qam4", 1.0, seed=22)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, cb.size - 1))
        for g in range(2):
            cols = slice(g * 2, (g + 1) * 2)
            for p in range(4):
                signs = pattern_signs(p, 2)
                dists = np.array(
                    [
                        weighted_hamming(
                            signs, cb.codewords[k, cols], ws.w[k, cols], ws.w_tilde[k, cols]
                        )
                        for k in range(cb.size)
                    ]
                )
                farthest = np.argsort(dists, kind="stable")[-1]
                assert farthest not in sphere.indices[g, p]
                assert len(set(sphere.indices[g, p].tolist())) == cb.size - 1

    def test_invalid_configurations(self):
        ch, table, cb = example_system(1.0)
        ws = compute_weights_approx(ch, table)
        with pytest.raises(ValueError):
            build_sphere_table(cb, ws, SphereConfig(3, 1))  # 3 does not divide 4
        with pytest.raises(ValueError):
            build_sphere_table(cb, ws, SphereConfig(2, 4))  # L must stay below K
        with pytest.raises(ValueError):
            SphereConfig(24, 1)  # dimension cap

    def test_tie_breaks_by_smallest_index(self):
        # Two identical codewords with identical weights tie on every
        # pattern; the stored order must put the smaller index first.
        table = SymbolTable(np.array([[1.0, 1.0], [1.0, 1.0]]), make_constellation("bpsk"), 1)
        cb = Codebook(np.array([[1, -1], [1, -1]], dtype=np.int8), table)
        ws = WeightSet(np.full((2, 2), 2.0), np.full((2, 2), 0.1))
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        assert np.all(sphere.indices[0, :, 0] == 0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_ranking_equals_stable_argsort(self, data):
        rows, k = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 12))
        values = data.draw(st.sampled_from([
            st.integers(-2, 2).map(float),  # heavy ties
            st.sampled_from([0.0, -0.0, 1.0]),  # -0.0 and 0.0 compare equal
            st.floats(-1e3, 1e3),
        ]))
        d = np.array(data.draw(st.lists(values, min_size=rows * k, max_size=rows * k)))
        d = d.reshape(rows, k)
        for src, dst in data.draw(st.lists(st.tuples(st.integers(0, k - 1),
                                                     st.integers(0, k - 1)), max_size=3)):
            d[:, dst] = d[:, src]
        order = np.argsort(d, axis=1, kind="stable")
        for lsz in range(1, k):
            assert_array_equal(_nearest(d.copy(), lsz), order[:, :lsz])


class TestAssembleList:
    def test_reference_union_codeword_two(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        # Both halves of [1,-1,-1,1] exactly match codeword 1's slices
        # (0-based), so the union is that singleton; no positive weighting
        # can rank the all-mismatch slice of another codeword first.
        got = assemble_list(np.array([1, -1, -1, 1], dtype=np.int8), sphere)
        assert_array_equal(got, [1])

    def test_reference_union_codeword_one(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        got = assemble_list(np.array([1, 1, -1, -1], dtype=np.int8), sphere)
        assert_array_equal(got, [0])

    def test_reference_mean_list_size(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        sizes = [len(assemble_list(np.array(y, dtype=np.int8), sphere))
                 for y in product((1, -1), repeat=4)]
        assert np.mean(sizes) == 1.75

    def test_cardinality_bounds(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.7, seed=23)
        ws = compute_weights_approx(ch, table)
        for n_sub, lsz in ((2, 1), (4, 3), (8, 5)):
            sphere = build_sphere_table(cb, ws, SphereConfig(n_sub, lsz))
            g = 8 // n_sub
            rng = stream_rng(24, 0)
            for _ in range(40):
                y = quantize_sign(rng.standard_normal(8))
                got = assemble_list(y, sphere)
                assert lsz <= len(got) <= min(g * lsz, cb.size)
                assert_array_equal(got, np.unique(got))

    def test_rejects_wrong_length(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        with pytest.raises(ValueError):
            assemble_list(np.ones(6, dtype=np.int8), sphere)

    def test_equals_unique_of_looked_up_lists(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.7, seed=23)
        ws = compute_weights_approx(ch, table)
        for n_sub, lsz in ((1, 3), (2, 5), (4, 3)):
            sphere = build_sphere_table(cb, ws, SphereConfig(n_sub, lsz))
            for y in _all_observations(8):
                got = assemble_list(y, sphere)
                want = np.unique(_candidates(sphere, y[None, :].astype(np.float64)))
                assert got.dtype == want.dtype
                assert_array_equal(got, want)


class TestDetectOsd:
    def test_matches_full_search_when_winner_listed(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=25)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(4, 2))
        rng = stream_rng(26, 0)
        checked = 0
        for _ in range(300):
            y = quantize_sign(rng.standard_normal(8))
            full = detect_mwd(y, cb, ws)
            listed = assemble_list(y, sphere)
            narrowed = detect_osd(y, sphere, cb, ws)
            if full.index in listed:
                assert narrowed.index == full.index
                checked += 1
        assert checked > 0

    def test_reference_observation(self):
        ch, table, cb = example_system(0.01)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        r = detect_osd(np.array([1, -1, -1, 1], dtype=np.int8), sphere, cb, ws)
        assert r.index == 1
        assert r.list_len == 1
        assert r.distance == pytest.approx(float(np.sum(ws.w_tilde[1])), abs=1e-9)

    def test_single_group_full_list_equals_full_search(self):
        ch, table, cb = random_system(2, 4, "qam4", 1.0, seed=27)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(8, cb.size - 1))
        for y in _all_observations(8):
            assert detect_osd(y, sphere, cb, ws).index == detect_mwd(y, cb, ws).index

    def test_list_length_recorded(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.7, seed=28)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 2))
        rng = stream_rng(29, 0)
        y = quantize_sign(rng.standard_normal(8))
        r = detect_osd(y, sphere, cb, ws)
        assert r.list_len == len(assemble_list(y, sphere))

    def test_memory_scales_with_list_not_codebook(self):
        # K = 4096, 2N = 64: the kept form is a 2 MB coef, built by the
        # first call on the weight set; later calls gather the G * L = 32
        # listed rows (16 KB), and detect_mwd reuses the same form.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(8, 4))
        y = quantize_sign(stream_rng(8, 0).standard_normal(cb.n_outputs))
        detect_osd(y, sphere, cb, ws)
        for detect in (lambda: detect_osd(y, sphere, cb, ws), lambda: detect_mwd(y, cb, ws)):
            tracemalloc.start()
            try:
                detect()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 2**10

    def test_tie_tolerance_comes_from_listed_rows(self):
        # Every pattern lists codewords 0 and 1. At y = [1, 1] they score
        # 1 + 1e-12 and 1, a gap far above the rounding of scores near 1;
        # unlisted codewords 2 and 3 carry weights 1e6 times larger, so a
        # tolerance taken over all K (about 5e-9) would call the pair a
        # tie and pick codeword 0.
        codewords = np.array([[1, 1], [1, 1], [-1, -1], [-1, 1]], dtype=np.int8)
        w = np.array([[1.0, 1.0], [1.0, 1.0], [1e6, 1e6], [1e6, 1e6]])
        w_tilde = np.array([[0.5, 0.5 + 1e-12], [0.5, 0.5], [1e6, 1e6], [1e6, 1e6]])
        cb = Codebook(codewords, enumerate_symbol_vectors(make_constellation("bpsk"), 2))
        ws = WeightSet(w, w_tilde)
        sphere = SphereTable(np.tile(np.array([0, 1], dtype=np.uint32), (1, 4, 1)), 4)
        y = np.array([1, 1], dtype=np.int8)
        index, score, lens = Receiver(*distance_affine(cb, ws), sphere).detect(y[None])
        assert (index[0], lens[0]) == (1, 2)
        assert score[0] == pytest.approx(1.0, abs=1e-15)
        r = detect_osd(y, sphere, cb, ws)
        assert (r.index, r.list_len) == (1, 2)
        assert r.distance == pytest.approx(1.0, abs=1e-15)

    def test_table_of_another_codebook_rejected(self):
        # Same observation length 2N = 64, K = 16 against K = 4096.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        small_ch, small_table, small_cb = random_system(1, 32, "qam16", 0.3, seed=5)
        small = build_sphere_table(small_cb, compute_weights_approx(small_ch, small_table),
                                   SphereConfig(8, 4))
        y = quantize_sign(stream_rng(8, 0).standard_normal(cb.n_outputs))
        with pytest.raises(ValueError, match="16 codewords"):
            detect_osd(y, small, cb, ws)
        with pytest.raises(ValueError, match="16 codewords"):
            Receiver(*distance_affine(cb, ws), small)

    def test_table_of_another_observation_length_rejected(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=25)
        ws = compute_weights_approx(ch, table)
        short_ch, short_table, short_cb = random_system(2, 2, "qam4", 0.5, seed=25)
        short = build_sphere_table(short_cb, compute_weights_approx(short_ch, short_table),
                                   SphereConfig(2, 2))
        assert short.codebook_size == cb.size and short.n_outputs != cb.n_outputs
        with pytest.raises(ValueError, match="length 4"):
            detect_osd(np.ones(8, dtype=np.int8), short, cb, ws)
        with pytest.raises(ValueError, match="length 4"):
            Receiver(*distance_affine(cb, ws), short)


class TestPreparedFullSearch:
    """The detectors prepare their full-search form once per weight set
    (or channel) and codebook, and reuse it on later calls; detect_osd
    searches the kept distance form through its table, bit for bit as
    the drivers' sphere receiver does."""

    @staticmethod
    def _fresh(cb, ch, ws):
        lb, lc = loglik_affine(cb, ch)
        table = build_sphere_table(cb, ws, SphereConfig(4, 2))
        return [
            (Receiver(-lb, lc), lambda y: detect_mld(y, cb, ch), -1.0),
            (Receiver(*distance_affine(cb, ws)), lambda y: detect_mwd(y, cb, ws), 1.0),
            (Receiver(*_mismatch_affine(cb, ws)), lambda y: detect_mwd_high_snr(y, cb, ws), 1.0),
            (Receiver(*distance_affine(cb, ws), table), lambda y: detect_osd(y, table, cb, ws), 1.0),
        ]

    def _assert_bitwise_equal(self, cb, ch, ws, obs):
        # One observation at a time on both sides: a batch is one GEMM,
        # which may round differently from the GEMV of a single row.
        for rx, detect_one, sign in self._fresh(cb, ch, ws):
            for y in obs:
                r = detect_one(y)
                (index,), (score,), (lens,) = rx.detect(y[None])
                assert (r.index, r.list_len) == (index, lens)
                assert r.distance == sign * score

    def test_repeated_calls_equal_a_fresh_receiver(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=40)
        ws = compute_weights_approx(ch, table)
        obs = _all_observations(cb.n_outputs)
        for _ in range(2):  # the first pass prepares, the second reuses
            self._assert_bitwise_equal(cb, ch, ws, obs)

    def test_another_codebook_is_prepared_anew(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=41)
        ws = compute_weights_approx(ch, table)
        rows = stream_rng(42, 0).permutation(cb.size)
        twin_cb = Codebook(cb.codewords[rows],
                           SymbolTable(table.vectors[rows], table.constellation, table.users))
        obs = _all_observations(cb.n_outputs)
        for codebook in (cb, twin_cb, cb):
            self._assert_bitwise_equal(codebook, ch, ws, obs)

    def test_arrays_are_read_only_copies(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=43)
        w = compute_weights_approx(ch, table)
        w_src, wt_src = np.array(w.w), np.array(w.w_tilde)
        c_src, h_src = np.array(cb.codewords), np.array(ch.entries)
        ws = WeightSet(w_src, wt_src)
        own_cb = Codebook(c_src, table)
        own_ch = RealChannel(h_src, ch.noise_variance)
        for held in (ws.w, ws.w_tilde, own_cb.codewords, own_ch.entries, table.vectors):
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 0
        obs = _all_observations(cb.n_outputs)
        before = [[detect(y) for y in obs] for _, detect, _ in self._fresh(own_cb, own_ch, ws)]
        w_src[:] = 1.0
        wt_src[:] = 1.0
        c_src[:] = 1
        h_src[:] = 0.0
        after = [[detect(y) for y in obs] for _, detect, _ in self._fresh(own_cb, own_ch, ws)]
        assert after == before
        self._assert_bitwise_equal(own_cb, own_ch, ws, obs)

    def test_repeated_call_does_not_rebuild_the_form(self):
        # K = 4096, 2N = 64: the form is a 2 MB coef and a 32 KB base; a
        # reused receiver only scores, 32 KB of scores and a 4 KB mask.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        y = quantize_sign(stream_rng(8, 0).standard_normal(cb.n_outputs))
        first = detect_mwd(y, cb, ws)
        tracemalloc.start()
        try:
            again = detect_mwd(y, cb, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 512 * 2**10

    def test_one_distance_form_per_weight_set(self, monkeypatch):
        # The table build, the bound's sweep, both detectors and the soft
        # outputs all read the form the first of them built; every
        # binding of distance_affine in the package is counted.
        original = obdk.detectors.distance_affine
        calls = []

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        for module in (obdk.detectors, obdk.analysis, obdk.experiments):
            if getattr(module, "distance_affine", None) is original:
                monkeypatch.setattr(module, "distance_affine", counted)
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=50)
        ws = compute_weights_approx(ch, table)
        cfg = SphereConfig(4, 2)
        sphere = build_sphere_table(cb, ws, cfg)
        SepBoundInputs.build(cb, ws, cfg)
        y = cb.codewords[6]
        detect_mwd(y, cb, ws)
        detect_osd(y, sphere, cb, ws)
        compute_llrs(y, assemble_list(y, sphere), cb, ws, 0)
        assert calls == [ws]

    def test_pickled_copies_are_read_only_and_carry_no_receivers(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=45)
        ws = compute_weights_approx(ch, table)
        y = cb.codewords[5]
        want = (detect_mwd(y, cb, ws), detect_mld(y, cb, ch))
        ws2, ch2, cb2 = pickle.loads(pickle.dumps((ws, ch, cb)))
        assert "_receivers" not in ws2.__dict__ and "_receivers" not in ch2.__dict__
        for held in (ws2.w, ws2.w_tilde, ch2.entries, cb2.codewords, cb2.symbols.vectors):
            assert not held.flags.writeable
        assert_array_equal(ws2.w, ws.w)
        assert ch2.noise_variance == ch.noise_variance
        assert (detect_mwd(y, cb2, ws2), detect_mld(y, cb2, ch2)) == want

    def test_array_holders_compare_by_identity(self):
        # Twins of equal content compare unequal, where comparing their
        # arrays would raise, and each keys a dict of its own: a kept
        # receiver is found again only for the same objects (_prepared).
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=49)
        ws = compute_weights_approx(ch, table)
        cfg = SphereConfig(4, 2)
        twins = [
            (make_constellation("qam4"), make_constellation("qam4")),
            (table, enumerate_symbol_vectors(make_constellation("qam4"), 2)),
            (cb, build_codebook(ch, table)),
            (ComplexChannel(EXAMPLE_HBAR), ComplexChannel(EXAMPLE_HBAR.copy())),
            (ch, RealChannel(ch.entries, ch.noise_variance)),
            (ws, compute_weights_approx(ch, table)),
            (build_sphere_table(cb, ws, cfg), build_sphere_table(cb, ws, cfg)),
            (Receiver(*distance_affine(cb, ws)), Receiver(*distance_affine(cb, ws))),
            (SepBoundInputs.build(cb, ws, cfg), SepBoundInputs.build(cb, ws, cfg)),
        ]
        for a, b in twins:
            assert a == a and a != b
            assert {a: 0, b: 1}[b] == 1

    def test_kept_sphere_receiver_follows_its_inputs(self):
        # One weight set, its sphere receiver switched between tables (of
        # another L, then of another n_sub) and codebooks: every call
        # searches the table and codebook it is given.
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=46)
        ws = compute_weights_approx(ch, table)
        rows = stream_rng(47, 0).permutation(cb.size)
        twin_cb = Codebook(cb.codewords[rows],
                           SymbolTable(table.vectors[rows], table.constellation, table.users))
        first, longer, finer = (build_sphere_table(cb, ws, SphereConfig(n_sub, lsz))
                                for n_sub, lsz in ((4, 2), (4, 5), (2, 3)))
        twin = build_sphere_table(twin_cb, ws, SphereConfig(4, 2))
        obs = _all_observations(cb.n_outputs)

        def assert_fresh(codebook, sphere, y):
            r = detect_osd(y, sphere, codebook, ws)
            fresh = Receiver(*distance_affine(codebook, ws), sphere)
            (index,), (score,), (lens,) = fresh.detect(y[None])
            assert (r.index, r.list_len) == (index, lens)
            assert np.float64(r.distance).tobytes() == score.tobytes()

        for codebook, sphere in ((cb, first), (cb, longer), (cb, first), (cb, finer),
                                 (twin_cb, twin), (cb, first)):
            for y in obs:
                assert_fresh(codebook, sphere, y)
            kept = _prepared(ws, distance_affine, codebook, sphere)
            assert _prepared(ws, distance_affine, codebook, sphere) is kept
        other_ch, other_table, other_cb = random_system(1, 4, "qam4", 0.3, seed=48)
        other = build_sphere_table(other_cb, compute_weights_approx(other_ch, other_table),
                                   SphereConfig(4, 2))
        with pytest.raises(ValueError, match="4 codewords"):
            detect_osd(obs[0], other, cb, ws)
        assert_fresh(cb, first, obs[0])

    def test_kept_receivers_go_with_their_owner(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.3, seed=44)
        ws = compute_weights_approx(ch, table)
        y = cb.codewords[3]
        detect_mwd(y, cb, ws)
        detect_mwd_high_snr(y, cb, ws)
        detect_mld(y, cb, ch)
        refs = [weakref.ref(ws), weakref.ref(ch)]
        gc.disable()  # only reference counting may free them
        try:
            del ws, ch
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


def _blob(groups, n_sub, list_size, k_total) -> bytes:
    """A table blob with this header and a payload of the matching length."""
    head = np.array([groups, n_sub, list_size, k_total], dtype="<u4").tobytes()
    return b"OSD1" + head + bytes(4 * groups * (1 << n_sub) * list_size)


class TestSphereTableSerialization:
    def _table(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.9, seed=30)
        ws = compute_weights_approx(ch, table)
        return build_sphere_table(cb, ws, SphereConfig(4, 3))

    def test_round_trip_bytes(self):
        sphere = self._table()
        again = sphere_table_from_bytes(sphere_table_to_bytes(sphere))
        assert_array_equal(again.indices, sphere.indices)
        assert (again.n_sub, again.list_size, again.codebook_size) == (4, 3, 16)

    def test_header_layout(self):
        blob = sphere_table_to_bytes(self._table())
        assert blob[:4] == b"OSD1"
        g, n_sub, lsz, k = np.frombuffer(blob[4:20], dtype="<u4")
        assert (g, n_sub, lsz, k) == (2, 4, 3, 16)
        assert len(blob) == 20 + 4 * g * (1 << n_sub) * lsz

    def test_file_round_trip(self, tmp_path):
        sphere = self._table()
        path = tmp_path / "table.osd"
        write_sphere_table(sphere, path)
        again = read_sphere_table(path)
        assert_array_equal(again.indices, sphere.indices)

    def test_bad_magic_rejected(self):
        blob = sphere_table_to_bytes(self._table())
        with pytest.raises(ValueError):
            sphere_table_from_bytes(b"XXXX" + blob[4:])

    def test_truncated_payload_rejected(self):
        blob = sphere_table_to_bytes(self._table())
        with pytest.raises(ValueError):
            sphere_table_from_bytes(blob[:-4])

    def test_truncated_header_rejected(self):
        blob = sphere_table_to_bytes(self._table())
        for cut in (4, 12, 19):
            with pytest.raises(ValueError, match="truncated"):
                sphere_table_from_bytes(blob[:cut])

    def test_partial_entry_rejected(self):
        blob = sphere_table_to_bytes(self._table())
        for cut in (1, 2, 3):
            with pytest.raises(ValueError, match="truncated"):
                sphere_table_from_bytes(blob[:-cut])

    def test_oversized_sub_vector_dimension_rejected(self):
        # A corrupt n_sub would otherwise size the table as 2^n_sub.
        head = b"OSD1" + np.array([1, 2**31, 1, 16], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="sub-vector dimension"):
            sphere_table_from_bytes(head)

    def test_zero_groups_rejected(self):
        # Would load as an empty table whose every list is empty.
        head = b"OSD1" + np.array([0, 4, 2, 16], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="no groups"):
            sphere_table_from_bytes(head)

    @pytest.mark.parametrize("n_sub, list_size, message", [
        (0, 2, "--ns must lie in [1, 20], got 0"),
        (4, 0, "list size 0 must lie in [1, K) with K = 16"),
        (4, 16, "list size 16 must lie in [1, K) with K = 16"),
    ], ids=["ns-0", "l-0", "l-16"])
    def test_header_breaking_sphere_rules_rejected(self, n_sub, list_size, message):
        # Well-formed blobs that no table build could have written.
        with pytest.raises(ConfigError) as exc:
            sphere_table_from_bytes(_blob(2, n_sub, list_size, 16))
        assert str(exc.value) == message

    def test_lookup_identical_after_reload(self, tmp_path):
        ch, table, cb = random_system(2, 4, "qam4", 0.9, seed=30)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(4, 3))
        path = tmp_path / "table.osd"
        write_sphere_table(sphere, path)
        again = read_sphere_table(path)
        rng = stream_rng(33, 0)
        for _ in range(20):
            y = quantize_sign(rng.standard_normal(8))
            assert_array_equal(assemble_list(y, sphere), assemble_list(y, again))


class TestSphereTableShape:
    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 6, 1), (0, 4, 2), (2, 1, 2), (1, 4, 0),
                                       (4, 2), (1, 2, 4, 2)],
                             ids=["3-patterns", "6-patterns", "no-groups", "ns-0", "l-0", "2-D",
                                  "4-D"])
    def test_malformed_indices_rejected(self, shape):
        # Before, (2, 3, 1) read as n_sub = 1 and assemble_list([1, -1], ...)
        # answered [0] from a misaddressed row; (1, 4, 0) made it fail to reshape.
        with pytest.raises(ValueError, match="sphere-table indices have shape"):
            SphereTable(np.zeros(shape, dtype=np.uint32), 16)

    @pytest.mark.parametrize("entry", [16, 99, -1])
    def test_entries_outside_codebook_rejected(self, entry):
        # Before, a table of 99s answered assemble_list([1, -1], ...) with [99] for K = 16.
        indices = np.zeros((1, 4, 2), dtype=np.int64)
        indices[0, 3, 1] = entry
        with pytest.raises(ValueError, match="table entry out of codebook range"):
            SphereTable(indices, 16)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_], ids=["float", "bool"])
    def test_non_integer_entries_rejected(self, dtype):
        # Before, a float table of 1.5 was kept as float64, and
        # assemble_list answered the truncated [1].
        with pytest.raises(ValueError, match="sphere-table indices have dtype .*, not integer"):
            SphereTable(np.full((2, 16, 1), 1.5).astype(dtype), 16)
        for integer in (np.uint32, np.int64):
            table = SphereTable(np.ones((2, 16, 1), dtype=integer), 16)
            assert_array_equal(assemble_list(np.ones(8), table), [1])

    def test_indices_are_a_private_read_only_copy(self):
        # Before, the table held the caller's array: writing 99 into it
        # made assemble_list([1, 1], ...) answer [99], past the range check.
        idx = np.zeros((1, 4, 1), dtype=np.uint32)
        table = SphereTable(idx, 4)
        idx[0, 0, 0] = 99
        assert_array_equal(assemble_list([1, 1], table), [0])
        for held in (table.indices, pickle.loads(pickle.dumps(table)).indices):
            assert_array_equal(held, np.zeros((1, 4, 1)))
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0, 0] = 1

    def test_blob_entries_outside_codebook_rejected(self):
        # The blob reader relies on the same check.
        blob = bytearray(_blob(2, 4, 2, 16))
        blob[-4:] = np.array([16], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="table entry out of codebook range"):
            sphere_table_from_bytes(bytes(blob))


class TestSphereRules:
    # 2N = 8, K = 16 throughout. ``groups`` is G in the blob header; None
    # skips the blob reader: no header states 2N = 8 with n_sub = 3, and
    # its own allocation cap answers n_sub > 20 first.
    @pytest.mark.parametrize("n_sub, list_size, groups, message", [
        (0, 2, 2, "--ns must lie in [1, 20], got 0"),
        (21, 2, None, "--ns must lie in [1, 20], got 21"),
        (3, 0, None, "--ns 3 must divide the observation length 2N = 8"),
        (4, 0, 2, "list size 0 must lie in [1, K) with K = 16"),
        (8, 16, 1, "list size 16 must lie in [1, K) with K = 16"),
        (2, 99, 4, "list size 99 must lie in [1, K) with K = 16"),
    ], ids=["ns-0", "ns-21", "ns-3", "l-0", "l-16", "l-99"])
    def test_one_rule_one_text(self, n_sub, list_size, groups, message):
        ch, table, cb = random_system(2, 4, "qam4", 0.9, seed=30)
        ws = compute_weights_approx(ch, table)
        checks = [
            lambda: build_sphere_table(cb, ws, SphereConfig(n_sub, list_size)),
            lambda: validate_sep_config(ExperimentConfig(2, 4, n_sub=n_sub, list_size=list_size)),
            lambda: complexity_model(ComplexityQuery("osd", 2, 4, 16, 1, n_sub=n_sub,
                                                     list_size=list_size)),
        ]
        if groups is not None:
            checks.append(lambda: sphere_table_from_bytes(_blob(groups, n_sub, list_size, 16)))
        for check in checks:
            with pytest.raises(ConfigError) as exc:
                check()
            assert str(exc.value) == message


# (scheme, users, antennas): K from 4 to 256, 2N from 4 to 8.
SMALL_SYSTEMS = [("bpsk", 2, 2), ("qam4", 1, 2), ("qam4", 2, 3), ("qam4", 2, 4), ("qam16", 2, 2)]
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def sphere_systems(draw):
    scheme, users, antennas = draw(st.sampled_from(SMALL_SYSTEMS))
    sigma_sq = draw(st.floats(0.05, 4.0))
    ch, table, cb = random_system(users, antennas, scheme, sigma_sq, seed=draw(st.integers(0, 2**31)))
    two_n = 2 * antennas
    n_sub = draw(st.sampled_from([d for d in range(1, two_n + 1) if two_n % d == 0]))
    return ch, cb, SphereConfig(n_sub, draw(st.integers(1, cb.size - 1)))


def _receivers_and_detectors(ch, cb, cfg):
    """(batch receiver, its single-observation detector, score sign) per detector."""
    ws = compute_weights_approx(ch, cb.symbols)
    exact = compute_weights_exact(ch, cb.symbols)
    table = build_sphere_table(cb, ws, cfg)
    lb, lc = loglik_affine(cb, ch)
    return [
        (Receiver(-lb, lc), lambda y: detect_mld(y, cb, ch), -1.0),
        (Receiver(*distance_affine(cb, exact)), lambda y: detect_mwd(y, cb, exact), 1.0),
        (Receiver(*distance_affine(cb, ws)), lambda y: detect_mwd(y, cb, ws), 1.0),
        (Receiver(*_mismatch_affine(cb, ws)), lambda y: detect_mwd_high_snr(y, cb, ws), 1.0),
        (Receiver(*distance_affine(cb, ws), table), lambda y: detect_osd(y, table, cb, ws), 1.0),
    ], table


def _gathered_sphere_search(rx, obs):
    """Reference sphere search: the listed rows' coefficients gathered,
    (T, G*L, 2N), and contracted by einsum, the arithmetic that every
    sphere list used before small codebooks read one (T, K) GEMM."""
    obs = np.asarray(obs, dtype=np.float64)
    cand = np.ascontiguousarray(rx.candidates(obs))
    listed = rx.base[cand]
    scores = listed - np.einsum("tcn,tn->tc", rx.coef[cand], obs)
    tol = rx._rel * np.abs(listed).max(axis=1, keepdims=True)
    best = np.argmax(scores <= scores.min(axis=1, keepdims=True) + tol, axis=1)
    rows = np.arange(len(obs))
    lens = np.array([len(np.unique(listed_row)) for listed_row in cand])
    return cand[rows, best], scores[rows, best], lens


def _assert_sphere_scorings_agree(ch, cb, cfg):
    ws = compute_weights_approx(ch, cb.symbols)
    rx = Receiver(*distance_affine(cb, ws), build_sphere_table(cb, ws, cfg))
    obs = _all_observations(cb.n_outputs)
    index, score, lens = rx.detect(obs)
    ref_index, ref_score, ref_lens = _gathered_sphere_search(rx, obs)
    assert_array_equal(index, ref_index)
    assert_array_equal(lens, ref_lens)
    # Each scoring errs by at most (2N + 1) eps |base_k| (see Receiver).
    bound = 2 * (cb.n_outputs + 1) * np.finfo(np.float64).eps * np.abs(rx.base[index])
    assert np.all(np.abs(score - ref_score) <= bound)
    return cb.size <= rx.row_values  # whether the receiver took the (T, K) GEMM


class TestSphereScorings:
    """A sphere list reads its scores off one (T, K) GEMM when K <= G*L*2N,
    and gathers the listed coefficients otherwise; both decide as the
    gathered reference does."""

    @PROPERTY_SETTINGS
    @given(system=sphere_systems())
    def test_equal_to_the_gathered_reference(self, system):
        _assert_sphere_scorings_agree(*system)

    # 30 dB: the match weights vanish against the mismatch weights, so the
    # scores of every exact match cancel to about 0, the near-ties that
    # GEMM and einsum could round apart.
    @pytest.mark.parametrize("scheme, users, antennas, cfg, gemm", [
        ("qam4", 2, 4, SphereConfig(4, 2), True),     # K = 16 <= 2 * 2 * 8
        ("qam4", 2, 4, SphereConfig(8, 1), False),    # K = 16 > 1 * 1 * 8
        ("qam16", 2, 2, SphereConfig(1, 64), True),   # K = 256 <= 4 * 64 * 4
        ("qam16", 2, 2, SphereConfig(2, 5), False),   # K = 256 > 2 * 5 * 4
    ])
    def test_equal_at_high_snr(self, scheme, users, antennas, cfg, gemm):
        ch, _, cb = random_system(users, antennas, scheme, snr_db_to_sigma_sq(30.0), seed=31)
        assert _assert_sphere_scorings_agree(ch, cb, cfg) == gemm

    def test_small_codebook_reads_one_gemm(self):
        # K = 16, 2N = 16, G * L = 8: the 2000 x 8 x 16 gathered
        # coefficients would take 2 MB; the (T, K) scores take 256 KB.
        ch, table, cb = random_system(2, 8, "qam4", 0.3, seed=1)
        ws = compute_weights_approx(ch, table)
        rx = Receiver(*distance_affine(cb, ws), build_sphere_table(cb, ws, SphereConfig(8, 4)))
        obs = quantize_sign(stream_rng(9, 0).standard_normal((2000, cb.n_outputs)))
        tracemalloc.start()
        try:
            rx.detect(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(obs) * 8 * cb.n_outputs * 8


class TestReceiverProperties:
    """One prepared receiver decides a whole batch exactly as the public
    single-observation detectors decide each observation."""

    @PROPERTY_SETTINGS
    @given(system=sphere_systems())
    def test_batch_equals_single_observation(self, system):
        ch, cb, cfg = system
        obs = _all_observations(cb.n_outputs)
        prepared, table = _receivers_and_detectors(ch, cb, cfg)
        for rx, detect_one, sign in prepared:
            index, score, lens = rx.detect(obs)
            # Cancellation to zero (a codeword met exactly under the
            # high-SNR rule) leaves only absolute error.
            atol = 1e-12 * float(np.max(np.abs(rx.base)))
            for t, y in enumerate(obs):
                single = detect_one(y)
                assert single.index == index[t]
                assert single.list_len == lens[t]
                assert_allclose(single.distance, sign * score[t], rtol=1e-12, atol=atol)
        # The sphere receiver (listed last) searches the assembled list.
        index, _, lens = prepared[-1][0].detect(obs)
        for t, y in enumerate(obs):
            listed = assemble_list(y, table)
            assert lens[t] == len(listed)
            assert index[t] in listed

    @PROPERTY_SETTINGS
    @given(system=sphere_systems(), data=st.data())
    def test_duplicated_codewords_resolve_to_smallest_index(self, system, data):
        ch, cb, cfg = system
        # Every codeword appears twice, at shuffled positions, so every
        # score ties exactly with its twin's.
        rows = np.array(data.draw(st.permutations(list(range(cb.size)) * 2)))
        twin_cb = Codebook(cb.codewords[rows],
                           SymbolTable(cb.symbols.vectors[rows], cb.symbols.constellation,
                                       cb.symbols.users))
        first = {int(r): int(np.flatnonzero(rows == r)[0]) for r in rows}
        obs = _all_observations(cb.n_outputs)
        prepared, _ = _receivers_and_detectors(ch, twin_cb, cfg)
        for rx, detect_one, _ in prepared:
            index, _, _ = rx.detect(obs)
            assert all(first[rows[k]] == k for k in index)
            for t, y in enumerate(obs):
                assert detect_one(y).index == index[t]

    def test_row_blocks_match_single_rows(self):
        # K = 4096: full search scores 128 rows per block, the ns 1 / L 4
        # sphere search (G * L * 2N = 16384 gathered values a row) 32.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        base, coef = distance_affine(cb, ws)
        sphere = build_sphere_table(cb, ws, SphereConfig(1, 4))
        obs = quantize_sign(stream_rng(6, 0).standard_normal((2100, cb.n_outputs)))
        for rx in (Receiver(base, coef), Receiver(base, coef, sphere)):
            index, score, lens = rx.detect(obs)
            assert len(index) == len(score) == len(lens) == len(obs)
            atol = 1e-12 * float(np.max(np.abs(base)))
            edges = [rows.start for rows in _row_blocks(len(obs), rx.row_values)][1:]
            assert len(edges) > 10
            for edge in edges:
                for t in (edge - 1, edge, edge + 1):
                    one = rx.detect(obs[t:t + 1])
                    assert one[0][0] == index[t] and one[2][0] == lens[t]
                    assert_allclose(one[1][0], score[t], rtol=1e-12, atol=atol)

    def test_full_search_memory_is_bounded(self):
        # 4096 observations x K = 4096: the whole (T, K) score matrix is
        # 128 MB. Scores, and the float64 copy of the +/-1 batch, are made
        # block by block, so two blocks bound the peak.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        rx = Receiver(*distance_affine(cb, compute_weights_approx(ch, table)))
        obs = quantize_sign(stream_rng(7, 0).standard_normal((4096, cb.n_outputs)))
        tracemalloc.start()
        try:
            rx.detect(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * BLOCK_VALUES

    @pytest.mark.parametrize("seed", [0, 2])
    def test_score_does_not_depend_on_batch_position(self, seed):
        # 1025 observations at K = 4096. Every row must score exactly as
        # it does in a two-row batch; a one-row block (GEMV rather than
        # GEMM) rounds differently, so none may be left at the tail.
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        base, coef = distance_affine(cb, ws)
        sphere = build_sphere_table(cb, ws, SphereConfig(8, 4))
        obs = quantize_sign(stream_rng(seed, 0).standard_normal((1025, cb.n_outputs)))
        for rx in (Receiver(base, coef), Receiver(base, coef, sphere)):
            index, score, _ = rx.detect(obs)
            for t in range(len(obs)):
                pair_index, pair_score, _ = rx.detect(obs[[t, t - 1]])
                assert pair_index[0] == index[t]
                assert pair_score[0] == score[t]

    @pytest.mark.parametrize("block_values", [1 << 10, 1 << 22])
    def test_block_budget_does_not_change_bits(self, block_values, monkeypatch):
        ch, table, cb = random_system(3, 32, "qam16", 0.3, seed=5)
        ws = compute_weights_approx(ch, table)
        base, coef = distance_affine(cb, ws)
        cfg = SphereConfig(8, 4)
        obs = quantize_sign(stream_rng(8, 0).standard_normal((301, cb.n_outputs)))

        def outputs():
            sphere = build_sphere_table(cb, ws, cfg)
            bound = np.float64(sep_bound(SepBoundInputs.build(cb, ws, cfg)))
            return [sphere.indices, *Receiver(base, coef).detect(obs),
                    *Receiver(base, coef, sphere).detect(obs), bound]

        default = outputs()
        monkeypatch.setattr(obdk.detectors, "BLOCK_VALUES", block_values)
        # 2^10 values split each of the 8 groups of 256 x 4096 sub-scores
        # into pattern blocks of two rows; 2^22 stack 4 groups in a block.
        sub_block = {1 << 10: (1, 2, 4096), 1 << 22: (4, 256, 4096)}[block_values]
        assert {d.shape for _, _, d in _sub_scores(cb, ws, cfg.n_sub)} == {sub_block}
        for got, want in zip(outputs(), default, strict=True):
            assert got.dtype == want.dtype
            assert_array_equal(got, want)


class TestRowBlocks:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n_rows=st.integers(0, 3000),
           width=st.one_of(st.integers(1, 1 << 14),
                           st.integers(BLOCK_VALUES // 4, 2 * BLOCK_VALUES)))
    def test_balanced_in_order_cover_within_budget(self, n_rows, width):
        blocks = list(_row_blocks(n_rows, width))
        assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert max(sizes) - min(sizes) <= 1
        cap = BLOCK_VALUES // width
        if n_rows < 2:
            assert sizes == [n_rows]
        elif cap >= 3:  # as few blocks as the budget allows
            assert min(sizes) >= 2 and max(sizes) <= cap
            assert len(blocks) == -(-n_rows // cap)
        else:  # the two-row minimum; an odd batch needs one of three
            assert set(sizes) <= {2, 3} and sizes.count(3) <= 1

    def test_empty_batch_gives_one_empty_block(self):
        assert list(_row_blocks(0, 64)) == [slice(0, 0)]


class TestObservationSigns:
    """Every entry point refuses an observation with an entry other than
    a real +/-1; the affine forms would score its 0/1 bit form, a scaled
    copy or the real part of a complex one as if it were a distance."""

    @staticmethod
    def _entry_points():
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=25)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(4, 2))
        full_rx = Receiver(*distance_affine(cb, ws))
        sphere_rx = Receiver(*distance_affine(cb, ws), sphere)
        return {
            "detect_mld": lambda y: detect_mld(y, cb, ch),
            "detect_mwd": lambda y: detect_mwd(y, cb, ws),
            "detect_mwd_high_snr": lambda y: detect_mwd_high_snr(y, cb, ws),
            "detect_osd": lambda y: detect_osd(y, sphere, cb, ws),
            "assemble_list": lambda y: assemble_list(y, sphere),
            "Receiver.detect": lambda y: full_rx.detect(y[None]),
            "sphere Receiver.detect": lambda y: sphere_rx.detect(y[None]),
            "Receiver.candidates": lambda y: sphere_rx.candidates(y[None]),
            "compute_llrs": lambda y: compute_llrs(y, np.arange(cb.size), cb, ws, 0),
        }

    @pytest.mark.parametrize("entry", [
        "detect_mld", "detect_mwd", "detect_mwd_high_snr", "detect_osd", "assemble_list",
        "Receiver.detect", "sphere Receiver.detect", "Receiver.candidates", "compute_llrs",
    ])
    @pytest.mark.parametrize("form", ["bits", "tripled", "complex"])
    def test_rejected_on_every_entry_point(self, entry, form):
        call = self._entry_points()[entry]
        y = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=np.int8)
        bad = {"bits": (1 - y) // 2, "tripled": 3 * y, "complex": 1j * y}[form]
        call(y)  # the +/-1 form is accepted
        # |1j| is 1 too: before, the complex form was scored by its real part.
        dtypes = (np.complex128, np.complex64) if form == "complex" else (np.int8, np.float64)
        for dtype in dtypes:
            with pytest.raises(ValueError, match=r"\+1 or -1"):
                call(bad.astype(dtype))

    @pytest.mark.parametrize("bad", [[0, 1, 1, 0], [1, -1, 0.5, 1], [1, -1, 1.5, 1], [1j, -1j]],
                             ids=["bits", "half", "one-and-a-half", "complex"])
    def test_pattern_index_rejects_other_entries(self, bad):
        # Before, the bit form [0, 1, 1, 0] read as all +1, pattern 0.
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            pattern_index(bad)
