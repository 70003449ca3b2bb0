import tracemalloc
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from obdk import (
    ComplexityQuery,
    Receiver,
    SepBoundInputs,
    SphereConfig,
    WeightSet,
    build_sphere_table,
    complexity_model,
    compute_llrs,
    compute_weights_approx,
    compute_weights_exact,
    sep_bound,
    snr_db_to_sigma_sq,
    weighted_hamming,
)
from obdk.detectors import distance_affine
from conftest import random_system


def _brute_force_bound(cb, ws, n_sub, list_size):
    """Literal re-implementation of the list-miss bound with plain loops.

    Its ``<=`` counts a competitor tied with k as ranking ahead of k even
    when the competitor has the larger index, so it agrees with the library
    except on exact ties, where the table lists the smaller index first.
    """
    k_total, two_n = cb.codewords.shape
    g_count = two_n // n_sub
    total = 0.0
    for k in range(k_total):
        prod = 1.0
        for g in range(g_count):
            cols = range(g * n_sub, (g + 1) * n_sub)
            w_k = np.array([ws.w[k, i] for i in cols])
            wt_k = np.array([ws.w_tilde[k, i] for i in cols])
            budget = wt_k.sum()
            group_sum = 0.0
            for bits in product((0, 1), repeat=n_sub):
                e = np.array(bits, dtype=float)
                shifted = []
                for j in range(k_total):
                    if j == k:
                        continue
                    d_kj = weighted_hamming(
                        cb.codewords[j, list(cols)],
                        cb.codewords[k, list(cols)],
                        np.array([ws.w[j, i] for i in cols]),
                        np.array([ws.w_tilde[j, i] for i in cols]),
                    )
                    delta = sum(
                        (
                            (ws.w[j, i] - ws.w_tilde[j, i])
                            * cb.codewords[k, i]
                            * cb.codewords[j, i]
                            - (ws.w[k, i] - ws.w_tilde[k, i])
                        )
                        * e[i - g * n_sub]
                        for i in cols
                    )
                    shifted.append(d_kj + delta)
                d_min = sorted(shifted)[list_size - 1]
                if d_min <= budget:
                    group_sum += float(np.exp(-(e @ w_k) - ((1 - e) @ wt_k)))
            prod *= group_sum
        total += prod
    return total / k_total


def _unlisted_mass(cb, ws, table):
    """mean_k sum_y exp(-d_k(y)) [k not among the candidates of y], over
    all 2^(2N) observations y."""
    obs = 1.0 - 2.0 * np.array(list(product((0, 1), repeat=cb.n_outputs)))
    base, coef = distance_affine(cb, ws)
    mass = np.exp(-(base[None, :] - obs @ coef.T))
    cand = Receiver(base, coef, table).candidates(obs)
    listed = np.any(cand[:, :, None] == np.arange(cb.size), axis=1)
    return float(np.where(listed, 0.0, mass).sum(axis=0).mean())


def _constant_weights(cb, flip):
    shape = cb.codewords.shape
    return WeightSet(np.full(shape, -np.log(flip)), np.full(shape, -np.log(1 - flip)))


# Exact weights; then constant weights (flip probability 0.2) on a K=16
# codebook with 2N=4, where duplicate sub-codewords make exact ties that
# the table breaks towards the smaller index.
BOUND_CASES = {
    "exact-u1n2-ns2-l1": ((1, 2, "qam4", 0.5, 60), "exact", 2, 1, None),
    "exact-u2n2-ns2-l3": ((2, 2, "qam4", 1.0, 61), "exact", 2, 3, None),
    "exact-u2n4-ns4-l2": ((2, 4, "qam4", 0.3, 62), "exact", 4, 2, None),
    "exact-u2n4-ns8-l5": ((2, 4, "qam4", 1.0, 63), "exact", 8, 5, None),
    "exact-u1n4-qam16-ns2-l2": ((1, 4, "qam16", 0.2, 64), "exact", 2, 2, None),
    "exact-u2n4-bpsk-ns4-l1": ((2, 4, "bpsk", 0.5, 65), "exact", 4, 1, None),
    "ties-ns2-l1": ((2, 2, "qam4", 1.0, 3), "constant", 2, 1, 0.7312),
    "ties-ns2-l3": ((2, 2, "qam4", 1.0, 3), "constant", 2, 3, 0.3712),
    "ties-ns4-l2": ((2, 2, "qam4", 1.0, 3), "constant", 4, 2, 0.4880),
}


# Approximate weights, as the experiments use them, at 30 and 50 dB.
HIGH_SNR_CASES = {
    "30db-u2n8-ns4-l2": ((2, 8, "qam4", 1e-3, 70), "approx", 4, 2, None),
    "50db-u2n8-ns4-l2": ((2, 8, "qam4", 1e-5, 71), "approx", 4, 2, None),
    "30db-u2n8-qam16-ns8-l4": ((2, 8, "qam16", 1e-3, 72), "approx", 8, 4, None),
    "50db-u2n8-qam16-ns8-l4": ((2, 8, "qam16", 1e-5, 73), "approx", 8, 4, None),
}


def _case_system(case):
    system, flavor, n_sub, lsz, _ = case
    ch, table, cb = random_system(*system)
    if flavor == "exact":
        ws = compute_weights_exact(ch, table)
    elif flavor == "approx":
        ws = compute_weights_approx(ch, table)
    else:
        ws = _constant_weights(cb, 0.2)
    return cb, ws, SphereConfig(n_sub, lsz)


def _two_pass_bound(cb, ws, table):
    """The bound from a second sweep over a built table: each group's
    sub-scores again, exp(-d) of every cell, the listed cells zeroed."""
    n_sub = table.n_sub
    signs = 1.0 - 2.0 * ((np.arange(1 << n_sub)[:, None] >> np.arange(n_sub)) & 1)
    unlisted = np.zeros((table.group_count, cb.size))
    for g in range(table.group_count):
        cols = slice(g * n_sub, (g + 1) * n_sub)
        w, wt = ws.w[:, cols], ws.w_tilde[:, cols]
        base = wt.sum(axis=1) + 0.5 * (w - wt).sum(axis=1)
        mass = np.exp(-(base - signs @ (0.5 * ((w - wt) * cb.codewords[:, cols])).T))
        np.put_along_axis(mass, table.indices[g], 0.0, axis=1)
        unlisted[g] = mass.sum(axis=0)
    return float(unlisted.prod(axis=0).mean())


class TestSepBound:
    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    def test_equals_unlisted_probability_mass(self, case):
        # The bound is the mass of the observations whose candidate list
        # misses the transmitted index, ties resolved as the decoder does.
        cb, ws, cfg = _case_system(BOUND_CASES[case])
        inputs = SepBoundInputs.build(cb, ws, cfg)
        got = sep_bound(inputs)
        assert_allclose(got, _unlisted_mass(cb, ws, inputs.table), rtol=1e-12)
        exact = BOUND_CASES[case][-1]
        if exact is not None:
            assert_allclose(got, exact, rtol=1e-12)

    @pytest.mark.parametrize("case", sorted(BOUND_CASES) + sorted(HIGH_SNR_CASES))
    def test_one_pass_equals_two_passes(self, case):
        # The mass summed while the table is ranked is the mass of a second
        # sweep over the built table, bit for bit, and the table is the one
        # build_sphere_table makes.
        cb, ws, cfg = _case_system({**BOUND_CASES, **HIGH_SNR_CASES}[case])
        inputs = SepBoundInputs.build(cb, ws, cfg)
        table = build_sphere_table(cb, ws, cfg)
        assert_array_equal(inputs.table.indices, table.indices)
        assert sep_bound(inputs).hex() == _two_pass_bound(cb, ws, table).hex()

    def test_memory_does_not_grow_as_k_squared(self):
        ch, table, cb = random_system(5, 16, "qam4", 1.0, seed=57)
        ws = compute_weights_approx(ch, table)
        assert cb.size == 1024
        tracemalloc.start()
        try:
            sep_bound(SepBoundInputs.build(cb, ws, SphereConfig(8, 4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_matches_brute_force(self):
        ch, table, cb = random_system(1, 2, "qam4", 0.5, seed=40)
        ws = compute_weights_approx(ch, table)
        for n_sub, lsz in ((2, 1), (4, 2), (2, 3)):
            got = sep_bound(SepBoundInputs.build(cb, ws, SphereConfig(n_sub, lsz)))
            want = _brute_force_bound(cb, ws, n_sub, lsz)
            assert_allclose(got, want, rtol=1e-10)

    def test_vanishes_at_high_snr(self):
        ch, table, cb = random_system(2, 4, "qam4", 1e-6, seed=41)
        assert len(np.unique(cb.codewords, axis=0)) == cb.size
        got = sep_bound(SepBoundInputs.build(cb, ws := compute_weights_approx(ch, table),
                                             SphereConfig(4, 2)))
        assert got < 1e-30

    def test_non_increasing_in_list_size(self):
        ch, table, cb = random_system(2, 4, "qam4", 1.0, seed=42)
        ws = compute_weights_approx(ch, table)
        values = [
            sep_bound(SepBoundInputs.build(cb, ws, SphereConfig(4, lsz)))
            for lsz in range(1, cb.size)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_list_size_precondition(self):
        ch, table, cb = random_system(1, 2, "qam4", 1.0, seed=43)
        ws = compute_weights_approx(ch, table)
        with pytest.raises(ValueError):
            SepBoundInputs.build(cb, ws, SphereConfig(2, cb.size))

    def test_no_flip_term_is_all_match_mass(self):
        # Whenever the all-zero flip pattern is included for (k, g), its
        # summand is exp(-sum of match weights); verified against the
        # brute force above implicitly, and directly here for one cell.
        ch, table, cb = random_system(1, 2, "qam4", 2.0, seed=44)
        ws = compute_weights_approx(ch, table)
        k, g, n_sub = 0, 0, 2
        cols = slice(0, 2)
        e0_term = float(np.exp(-ws.w_tilde[k, cols].sum()))
        assert 0 < e0_term < 1


def _exact_table_and_bound(cb, ws, n_sub, list_size):
    """The sphere table and the list-miss bound in exact arithmetic: every
    sub-codeword distance summed exactly from the float64 weights, ranked
    by (distance, index), and the unlisted mass summed with mpmath at 50
    digits.

    Every float64 is a whole multiple of 2^-1074, so the weights in that
    unit are integers, and so are their sums."""
    k_total, two_n = cb.codewords.shape
    c = cb.codewords.tolist()
    w, wt = ([[int(Fraction(v) * 2**1074) for v in row] for row in a.tolist()]
             for a in (ws.w, ws.w_tilde))
    table = np.empty((two_n // n_sub, 1 << n_sub, list_size), dtype=np.int64)
    with mp.workdps(50):
        unlisted = [[mp.mpf(0)] * k_total for _ in range(len(table))]
        for g, p in product(range(len(table)), range(1 << n_sub)):
            cols = range(g * n_sub, (g + 1) * n_sub)
            signs = [1 - 2 * ((p >> j) & 1) for j in range(n_sub)]
            d = [sum(wt[k][i] if c[k][i] == y else w[k][i] for i, y in zip(cols, signs))
                 for k in range(k_total)]
            order = sorted(range(k_total), key=lambda k: (d[k], k))
            table[g, p] = order[:list_size]
            for k in order[list_size:]:
                unlisted[g][k] += mp.exp(-mp.ldexp(d[k], -1074))
        bound = mp.fsum(mp.fprod(masses) for masses in zip(*unlisted)) / k_total
    return table, float(bound)


# (n_sub, L, SNR dB, seed) of the K = 16 oracle cases whose float64 table
# misranks: cancellation in base - coef . y loses the match weights that
# tell sub-codewords apart.
MISRANKED = {(1, 3, 10, 7), (1, 3, 20, 3), (1, 3, 20, 7), (1, 3, 30, 3), (1, 3, 30, 7),
             (1, 3, 40, 3), (1, 3, 40, 7), (2, 2, 20, 7), (2, 2, 30, 3), (2, 2, 30, 7),
             (2, 2, 40, 3), (2, 2, 40, 7), (4, 2, 40, 7)}
_ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 1, exact sphere ranking at high SNR")
ORACLE_CASES = [
    pytest.param(n_sub, lsz, snr_db, seed, id=f"ns{n_sub}-l{lsz}-{snr_db}db-seed{seed}",
                 marks=[_ITEM_1] if (n_sub, lsz, snr_db, seed) in MISRANKED else [])
    for (n_sub, lsz), snr_db, seed in product(((1, 3), (2, 2), (4, 2), (8, 4)),
                                               (0, 5, 10, 20, 30, 40), (3, 7))
]


class TestExactOracle:
    @pytest.mark.parametrize("n_sub, list_size, snr_db, seed", ORACLE_CASES)
    def test_table_and_bound_match_exact_arithmetic(self, n_sub, list_size, snr_db, seed):
        ch, table, cb = random_system(2, 4, "qam4", snr_db_to_sigma_sq(snr_db), seed)
        ws = compute_weights_approx(ch, table)
        inputs = SepBoundInputs.build(cb, ws, SphereConfig(n_sub, list_size))
        want_table, want_bound = _exact_table_and_bound(cb, ws, n_sub, list_size)
        assert_array_equal(inputs.table.indices, want_table)
        # exp turns a one-ulp error in a sub-score near 400 into about 1e-13
        # a factor; a bound below the float64 range reads 0 on both sides.
        assert_allclose(sep_bound(inputs), want_bound, rtol=1e-11, atol=0)


class TestFlipPatternProbabilities:
    def test_factorization_sums_to_one(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.8, seed=45)
        ws = compute_weights_exact(ch, table)
        q = np.exp(-ws.w)  # per-position flip probabilities
        n_sub = 4
        for k in range(cb.size):
            for g in range(cb.codewords.shape[1] // n_sub):
                cols = slice(g * n_sub, (g + 1) * n_sub)
                qk = q[k, cols]
                total = 0.0
                for bits in product((0, 1), repeat=n_sub):
                    e = np.array(bits)
                    total += float(np.prod(np.where(e == 1, qk, 1 - qk)))
                assert total == pytest.approx(1.0, abs=1e-9)


class TestComplexityModel:
    def test_full_search_counts(self):
        pre, det = complexity_model(ComplexityQuery("mld", 2, 8, 16, 1))
        assert (pre, det) == (0, 14 * 8 * 16)
        pre, det = complexity_model(ComplexityQuery("mwd", 2, 8, 16, 1))
        assert (pre, det) == (0, 22 * 8 * 16)

    def test_sphere_counts(self):
        pre, det = complexity_model(
            ComplexityQuery("osd", 2, 8, 16, 1, n_sub=4, list_size=2)
        )
        assert det == (16 * 2 // 4) * 22 * 8
        assert pre == (1 << 4) * 22 * 8 * 16

    def test_ratio_identity(self):
        u, n, k, td, n_sub, lsz = 3, 16, 64, 512, 8, 4
        pre, det = complexity_model(ComplexityQuery("osd", u, n, k, td, n_sub=n_sub, list_size=lsz))
        _, mld = complexity_model(ComplexityQuery("mld", u, n, k, td))
        lhs = (pre + det) / mld
        rhs = (2 * n * lsz / (n_sub * k) + (1 << n_sub) / td) * (4 * u + 14) / (4 * u + 6)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_integer_outputs(self):
        pre, det = complexity_model(ComplexityQuery("osd", 2, 8, 16, 3, n_sub=8, list_size=5))
        assert isinstance(pre, int) and isinstance(det, int)

    def test_sphere_requires_parameters(self):
        with pytest.raises(ValueError):
            complexity_model(ComplexityQuery("osd", 2, 8, 16, 1))

    def test_rejects_bad_divisor(self):
        # n_sub = 3 does not divide 2N = 16; L = K and n_sub = 21 break
        # the other sphere rules.
        for n_sub, lsz in ((3, 2), (4, 16), (21, 2)):
            with pytest.raises(ValueError):
                complexity_model(ComplexityQuery("osd", 2, 8, 16, 1, n_sub=n_sub, list_size=lsz))


class TestComputeLlrs:
    def test_balanced_classes_give_zero(self):
        ch, table, cb = random_system(1, 4, "qam4", 1.0, seed=52)
        # Equal mismatch and match weights make every distance identical,
        # so all four symbol classes tie and both soft outputs vanish.
        from obdk import WeightSet

        ws = WeightSet(np.full((4, 8), 0.7), np.full((4, 8), 0.7))
        y = cb.codewords[0]
        odd, even = compute_llrs(y, np.arange(4), cb, ws, 0)
        assert odd == pytest.approx(0.0, abs=1e-12)
        assert even == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_signs_follow_symbol(self):
        ch, table, cb = random_system(2, 8, "qam4", 0.01, seed=53)
        ws = compute_weights_approx(ch, table)
        full = np.arange(cb.size)
        for k in range(cb.size):
            y = cb.codewords[k]
            for user in range(2):
                odd, even = compute_llrs(y, full, cb, ws, user)
                re = table.vectors[k, user]
                im = table.vectors[k, 2 + user]
                assert np.sign(odd) == np.sign(re)
                assert np.sign(even) == np.sign(im)

    def test_singleton_list_saturates(self):
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=54)
        ws = compute_weights_approx(ch, table)
        k = 5
        y = cb.codewords[k]
        odd, even = compute_llrs(y, np.array([k]), cb, ws, 0)
        saturation = cb.codewords.shape[1] * float(ws.w.mean())
        assert abs(odd) == pytest.approx(saturation, rel=1e-12)
        assert abs(even) == pytest.approx(saturation, rel=1e-12)
        assert np.sign(odd) == np.sign(table.vectors[k, 0])
        assert np.sign(even) == np.sign(table.vectors[k, 2])

    def test_rejects_non_qam4(self):
        ch, table, cb = random_system(2, 4, "bpsk", 0.5, seed=55)
        ws = compute_weights_approx(ch, table)
        with pytest.raises(ValueError):
            compute_llrs(cb.codewords[0], np.arange(cb.size), cb, ws, 0)

    def test_rejects_empty_list(self):
        ch, table, cb = random_system(1, 2, "qam4", 0.5, seed=56)
        ws = compute_weights_approx(ch, table)
        with pytest.raises(ValueError):
            compute_llrs(cb.codewords[0], np.array([], dtype=int), cb, ws, 0)

    @pytest.mark.parametrize("candidates", [
        [-16, 4, 5, 6, 7],
        [4, 16],
        np.arange(4, 8) + 0.9,
        [[4, 5], [6, 7]],
    ], ids=["negative", "past-K", "fractional", "2-D"])
    def test_rejects_candidates_it_would_misread(self, candidates):
        # Before, a negative index i scored codeword K + i, a fraction was
        # truncated and a 2-D list gave values that are not LLRs.
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=57)
        ws = compute_weights_approx(ch, table)
        with pytest.raises(ValueError, match=r"1-D integer array in \[0, 16\)"):
            compute_llrs(cb.codewords[4], candidates, cb, ws, 0)

    @pytest.mark.parametrize("length", [6, 10])
    def test_rejects_observation_of_wrong_length(self, length):
        ch, table, cb = random_system(2, 4, "qam4", 0.5, seed=57)
        ws = compute_weights_approx(ch, table)
        y = np.ones(length)
        with pytest.raises(ValueError, match=rf"shape \({length},\), expected \(8,\)"):
            compute_llrs(y, np.arange(4, 8), cb, ws, 0)
