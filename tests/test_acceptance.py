"""Acceptance gate: ten numbered criteria, one printed line each.

Criterion lines are written to the real stdout so they stay visible
under pytest's capture. Run the gate alone with:

    pytest tests/test_acceptance.py -v
"""

import sys
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.special import ndtr

from obdk import (
    ComplexityQuery,
    ExperimentConfig,
    RealChannel,
    Receiver,
    SphereConfig,
    assemble_list,
    build_codebook,
    build_sphere_table,
    complexity_model,
    compute_weights_approx,
    compute_weights_exact,
    detect_mld,
    detect_mwd,
    enumerate_symbol_vectors,
    expand_real_channel,
    make_constellation,
    quantize_sign,
    run_sep_experiment,
    run_ser_experiment,
    sample_rayleigh_channel,
    stream_rng,
)
from obdk.cli import cli_main
from obdk.detectors import distance_affine, loglik_affine
from obdk.weights import q_hat
from conftest import EXAMPLE_CODEWORDS, example_system


@contextmanager
def _criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {title} "
              f"({time.perf_counter() - start:.1f}s)", file=sys.__stdout__, flush=True)
        raise
    print(f"[PASS] criterion {num:02d}: {title} "
          f"({time.perf_counter() - start:.1f}s)", file=sys.__stdout__, flush=True)


def _all_observations(n):
    return np.array(list(product((1, -1), repeat=n)), dtype=np.int8)


def test_criterion_01_exact_weights_reproduce_maximum_likelihood():
    with _criterion(1, "exact-weight distance rule equals maximum likelihood"):
        table = enumerate_symbol_vectors(make_constellation("qam4"), 2)
        obs = _all_observations(8).astype(np.float64)
        for channel_index in range(100):
            hbar = sample_rayleigh_channel(4, 2, stream_rng(1001, channel_index))
            h = expand_real_channel(hbar)
            for sigma_sq in (0.5, 1.0, 2.0):
                ch = RealChannel(h, sigma_sq)
                cb = build_codebook(ch, table)
                ws = compute_weights_exact(ch, table)
                lb, lc = loglik_affine(cb, ch)
                db, dc = distance_affine(cb, ws)
                mld = np.argmax(lb[None, :] + obs @ lc.T, axis=1)
                mwd = np.argmin(db[None, :] - obs @ dc.T, axis=1)
                assert np.array_equal(mld, mwd)
        # Spot-check that the batch path above decides like the public
        # single-observation detectors.
        for y in obs[:8].astype(np.int8):
            assert detect_mld(y, cb, ch).index == detect_mwd(y, cb, ws).index


def test_criterion_02_tail_approximation_fidelity():
    with _criterion(2, "closed-form tail approximation within 1e-3 of Q"):
        x = np.arange(0.0, 10.0 + 5e-4, 1e-3)
        assert float(np.max(np.abs(ndtr(-x) - q_hat(x)))) <= 1e-3


def test_criterion_03_reference_system_regression():
    with _criterion(3, "hand-worked 4x2 system regression"):
        ch, table, cb = example_system(0.01)
        assert_array_equal(cb.codewords, EXAMPLE_CODEWORDS)

        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(2, 1))
        from obdk import pattern_index

        group1 = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}
        group2 = {(1, 1): 3, (1, -1): 2, (-1, 1): 1, (-1, -1): 0}
        for signs, k in group1.items():
            assert sphere.indices[0, pattern_index(signs)] == [k]
        for signs, k in group2.items():
            assert sphere.indices[1, pattern_index(signs)] == [k]

        sizes = [len(assemble_list(np.array(y, dtype=np.int8), sphere))
                 for y in product((1, -1), repeat=4)]
        mean_size = float(np.mean(sizes))
        assert mean_size == 1.75
        assert 1 - mean_size / 4 == 0.5625

        # Unions read off group1/group2 (one-based). [1,-1,-1,1] is codeword
        # 2 itself: group 1 maps (1,-1) to 2 and group 2 maps (-1,1) to 2,
        # so the union is {2}. Codeword 3 (= -codeword 2) cannot join it:
        # w >= ln 2 >= w_tilde for both weight flavours, so its all-mismatch
        # sub-codeword never scores below the exact match, and ties go to
        # the smaller index. The documented pair {2, 3} is the union for
        # [1,-1,1,-1]: group 1 maps (1,-1) to 2, group 2 maps (1,-1) to 3.
        # The source that documented the pair is not in the repository, so
        # which observation it meant cannot be settled here.
        def union(y):
            return {int(i) + 1 for i in assemble_list(np.array(y, dtype=np.int8), sphere)}

        assert union([1, -1, -1, 1]) == {2}
        assert union([1, -1, 1, -1]) == {2, 3}


def test_criterion_04_multiplication_count_identities():
    with _criterion(4, "complexity model matches re-derived counts on 100 tuples"):
        rng = stream_rng(1004, 0)
        for _ in range(100):
            u = int(rng.integers(1, 9))
            n = int(rng.integers(1, 65))
            k = int(rng.integers(2, 5000))
            td = int(rng.integers(1, 10000))
            divisors = [d for d in range(1, min(2 * n, 20) + 1) if (2 * n) % d == 0]
            n_sub = int(divisors[rng.integers(0, len(divisors))])
            lsz = int(rng.integers(1, k))
            assert complexity_model(ComplexityQuery("mld", u, n, k, td)) == (
                0, (4 * u + 6) * n * k * td)
            assert complexity_model(ComplexityQuery("mwd", u, n, k, td)) == (
                0, (4 * u + 14) * n * k * td)
            pre, det = complexity_model(
                ComplexityQuery("osd", u, n, k, td, n_sub=n_sub, list_size=lsz))
            assert pre == 2 ** n_sub * (4 * u + 14) * n * k
            assert det == (2 * n * lsz // n_sub) * (4 * u + 14) * n * td
            assert isinstance(pre, int) and isinstance(det, int)


def _ser_cfg():
    return ExperimentConfig(
        users=2, antennas=8, modulation="qam4", snr_db=(0.0, 5.0, 10.0),
        detectors=("mld", "mwd", "osd"), n_sub=8, list_size=4,
        trials=1000, channels=100, seed=2025,
    )


def test_criterion_05_sphere_decoder_near_maximum_likelihood():
    with _criterion(5, "sphere decoder within 1.2x of maximum-likelihood SER"):
        records = run_ser_experiment(_ser_cfg())
        by = {(r.detector, r.snr_db): r for r in records}
        checked = 0
        for snr in (0.0, 5.0, 10.0):
            mld = by[("mld", snr)].rate
            osd = by[("osd", snr)].rate
            if mld >= 1e-3:
                assert osd <= 1.2 * mld, f"snr {snr}: {osd} vs {mld}"
                checked += 1
        assert checked >= 1


@pytest.fixture(scope="module")
def sep_records():
    out = {}
    for n_sub, lsz in ((4, 2), (8, 4)):
        cfg = ExperimentConfig(
            users=2, antennas=8, modulation="qam4", snr_db=(0.0, 5.0, 10.0),
            detectors=("mwd", "osd"), n_sub=n_sub, list_size=lsz,
            trials=1000, channels=100, seed=2025,
        )
        out[(n_sub, lsz)] = run_sep_experiment(cfg)
    return out


def test_criterion_06_list_miss_bound_tracks_simulation(sep_records):
    with _criterion(6, "analytic list-miss bound tracks simulation"):
        checked = 0
        for key, records in sep_records.items():
            by = {(r.detector, r.snr_db): r for r in records}
            for snr in (0.0, 5.0, 10.0):
                sep = by[("sep", snr)].rate
                bound = by[("bound", snr)].rate
                if sep >= 1e-3:
                    assert 0.8 * bound <= sep <= 1.25 * bound, (key, snr, sep, bound)
                    checked += 1
        assert checked >= 1
        small = {(r.detector, r.snr_db): r for r in sep_records[(4, 2)]}
        large = {(r.detector, r.snr_db): r for r in sep_records[(8, 4)]}
        for snr in (0.0, 5.0, 10.0):
            assert large[("bound", snr)].rate < small[("bound", snr)].rate


def test_criterion_07_loss_rate_bounded_by_miss_rate(sep_records):
    with _criterion(7, "loss rate below list-miss rate in every row"):
        for records in sep_records.values():
            by = {(r.detector, r.snr_db): r for r in records}
            for snr in (0.0, 5.0, 10.0):
                sep_row = by[("sep", snr)]
                loss_row = by[("p_loss", snr)]
                n = sep_row.trials * sep_row.channels
                stderr = np.sqrt(max(sep_row.rate, 1.0 / n) * (1 - sep_row.rate) / n)
                assert loss_row.rate <= sep_row.rate + 3 * stderr


def test_criterion_08_flip_pattern_probabilities_sum_to_one():
    with _criterion(8, "flip-pattern probability factorization sums to 1"):
        hbar = sample_rayleigh_channel(4, 2, stream_rng(1008, 0))
        ch = RealChannel.from_complex(hbar, 0.9)
        table = enumerate_symbol_vectors(make_constellation("qam4"), 2)
        cb = build_codebook(ch, table)
        ws = compute_weights_exact(ch, table)
        flip = np.exp(-ws.w)
        n_sub = 4
        patterns = np.array(list(product((0, 1), repeat=n_sub)))
        for k in range(cb.size):
            for g in range(8 // n_sub):
                cols = slice(g * n_sub, (g + 1) * n_sub)
                q = flip[k, cols]
                total = float(np.sum(np.prod(np.where(patterns == 1, q, 1 - q), axis=1)))
                assert abs(total - 1.0) <= 1e-9


DETERMINISM_ARGS = [
    "ser", "-U", "2", "-N", "4", "--mod", "qam4", "--snr-db", "0,6",
    "--detectors", "mld,mwd,osd", "--ns", "4", "--list-size", "2",
    "--trials", "200", "--channels", "8", "--seed", "99",
]


def test_criterion_09_worker_count_does_not_change_output(tmp_path, monkeypatch, capsys):
    with _criterion(9, "byte-identical CSV across 1, 4, and 8 workers"):
        outputs = []
        for workers in ("1", "4", "8"):
            monkeypatch.setenv("OBDK_THREADS", workers)
            path = tmp_path / f"w{workers}.csv"
            assert cli_main(DETERMINISM_ARGS + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_10_narrowed_search_never_contradicts_full_search():
    with _criterion(10, "no trial has the full-search winner listed but a different pick"):
        table = enumerate_symbol_vectors(make_constellation("qam4"), 2)
        sphere_cfg = SphereConfig(8, 4)
        trials_per_channel = 25_000
        total = 0
        violations = 0
        for channel_index in range(4):
            rng = stream_rng(1010, channel_index)
            hbar = sample_rayleigh_channel(8, 2, rng)
            ch = RealChannel.from_complex(hbar, 10 ** -0.5)
            cb = build_codebook(ch, table)
            ws = compute_weights_approx(ch, table)
            ks = rng.integers(0, cb.size, size=trials_per_channel)
            noise = rng.standard_normal((trials_per_channel, 16)) * ch.noise_std_per_component
            obs = quantize_sign(table.vectors[ks] @ ch.entries.T + noise).astype(np.float64)
            base, coef = distance_affine(cb, ws)
            dists = base[None, :] - obs @ coef.T
            mwd = np.argmin(dists, axis=1)
            narrowed = Receiver(base, coef, build_sphere_table(cb, ws, sphere_cfg))
            cand = narrowed.candidates(obs)
            osd, _, _ = narrowed.detect(obs, cand)
            listed = np.any(cand == mwd[:, None], axis=1)
            violations += int(np.count_nonzero(listed & (osd != mwd)))
            total += trials_per_channel
        assert total >= 100_000
        assert violations == 0
