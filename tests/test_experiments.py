import json
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import obdk.experiments

from obdk import (
    ConfigError,
    ExperimentConfig,
    Receiver,
    SphereConfig,
    build_sphere_table,
    compute_weights_approx,
    compute_weights_exact,
    pattern_index,
    records_to_csv,
    records_to_json,
    run_sep_experiment,
    run_ser_experiment,
    run_tradeoff_sweep,
    snr_db_to_sigma_sq,
    stream_rng,
    wilson_interval,
)
from obdk.detectors import BLOCK_VALUES, distance_affine
from obdk.experiments import (
    CSV_COLUMNS,
    _sphere_counts,
    validate_ser_config,
    validate_sep_config,
    validate_tradeoff_config,
)
from conftest import random_system


def _small_cfg(**kw):
    base = dict(
        users=2, antennas=4, modulation="qam4", snr_db=(0.0, 6.0),
        detectors=("mld", "mwd", "osd"), n_sub=4, list_size=2,
        trials=300, channels=5, seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSnrConvention:
    def test_mapping(self):
        assert snr_db_to_sigma_sq(0.0) == 1.0
        assert snr_db_to_sigma_sq(10.0) == pytest.approx(0.1)
        assert snr_db_to_sigma_sq(-3.0) == pytest.approx(10 ** 0.3)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 400)
        assert lo <= 37 / 400 <= hi

    def test_clipped_to_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        lo, hi = wilson_interval(0, 50)
        assert hi > 0.0  # zero observed successes still leave uncertainty

    def test_narrows_with_trials(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestSerExperiment:
    def test_record_layout_and_ranges(self):
        cfg = _small_cfg()
        records = run_ser_experiment(cfg)
        assert len(records) == len(cfg.detectors) * len(cfg.snr_db)
        n = cfg.trials * cfg.channels
        for r in records:
            assert 0.0 <= r.rate <= 1.0
            assert r.errors <= n
            assert r.rate == r.errors / n
            assert r.seed == cfg.seed

    def test_full_search_rows_report_codebook_length(self):
        records = run_ser_experiment(
            _small_cfg(detectors=("mld", "mwd-exact", "mwd-hs"), n_sub=None, list_size=None)
        )
        for r in records:
            assert r.mean_list_len == 16.0
            assert r.distance_evals == 16 * 300 * 5

    def test_sphere_rows_bounded_by_group_list_product(self):
        cfg = _small_cfg(detectors=("osd",))
        g = (2 * cfg.antennas) // cfg.n_sub
        for r in run_ser_experiment(cfg):
            assert r.mean_list_len <= g * cfg.list_size
            assert r.distance_evals <= g * cfg.list_size * cfg.trials * cfg.channels

    def test_deterministic_across_worker_counts(self):
        a = records_to_csv(run_ser_experiment(_small_cfg(workers=1)))
        b = records_to_csv(run_ser_experiment(_small_cfg(workers=2)))
        assert a == b

    def test_deterministic_repeat(self):
        cfg = _small_cfg()
        assert records_to_csv(run_ser_experiment(cfg)) == records_to_csv(run_ser_experiment(cfg))

    def test_seed_changes_results(self):
        a = records_to_csv(run_ser_experiment(_small_cfg(seed=1)))
        b = records_to_csv(run_ser_experiment(_small_cfg(seed=2)))
        assert a != b

    def test_sphere_never_beats_full_search_on_shared_noise(self):
        # With common randomness the narrowed search can only add errors.
        records = run_ser_experiment(_small_cfg(detectors=("mwd", "osd")))
        by = {(r.detector, r.snr_db): r for r in records}
        for snr in (0.0, 6.0):
            assert by[("osd", snr)].errors >= by[("mwd", snr)].errors

    def test_sphere_near_full_search_within_confidence(self):
        cfg = _small_cfg(detectors=("mld", "osd"), snr_db=(0.0,), trials=2000)
        by = {(r.detector, r.snr_db): r for r in run_ser_experiment(cfg)}
        n = cfg.trials * cfg.channels
        osd_low, _ = wilson_interval(by[("osd", 0.0)].errors, n)
        _, mld_high = wilson_interval(by[("mld", 0.0)].errors, n)
        assert osd_low <= 1.2 * mld_high

    def test_mid_scale_configuration_runs(self):
        # Larger antenna count and codebook than the default test shapes.
        cfg = ExperimentConfig(
            users=3, antennas=16, modulation="qam4", snr_db=(5.0,),
            detectors=("mwd", "osd"), n_sub=8, list_size=4,
            trials=200, channels=2, seed=17,
        )
        records = run_ser_experiment(cfg)
        by = {r.detector: r for r in records}
        assert by["osd"].mean_list_len <= (2 * 16 / 8) * 4
        assert by["osd"].errors >= by["mwd"].errors


class TestSepExperiment:
    def test_rows_and_ordering(self):
        cfg = _small_cfg(detectors=("mwd", "osd"))
        records = run_sep_experiment(cfg)
        labels = [r.detector for r in records]
        assert labels == ["sep", "p_loss", "bound"] * len(cfg.snr_db)

    def test_loss_never_exceeds_miss_rate(self):
        cfg = _small_cfg(detectors=("mwd", "osd"), trials=2000)
        records = run_sep_experiment(cfg)
        by = {(r.detector, r.snr_db): r for r in records}
        for snr in cfg.snr_db:
            assert by[("p_loss", snr)].errors <= by[("sep", snr)].errors

    def test_bound_rows_clamped(self):
        records = run_sep_experiment(_small_cfg(detectors=("mwd", "osd")))
        for r in records:
            if r.detector == "bound":
                assert 0.0 <= r.rate <= 1.0
                assert r.trials == 0 and r.errors == 0

    def test_deterministic_across_worker_counts(self):
        cfg = dict(detectors=("mwd", "osd"), trials=200, channels=4)
        a = records_to_csv(run_sep_experiment(_small_cfg(workers=1, **cfg)))
        b = records_to_csv(run_sep_experiment(_small_cfg(workers=2, **cfg)))
        assert a == b


@pytest.mark.parametrize("run, first", [
    (run_ser_experiment, slice(0, None, 2)),  # detector-major rows
    (run_sep_experiment, slice(0, 3)),  # SNR-major rows
])
def test_repeated_snr_point_reports_its_own_trials(run, first):
    # The first of two equal SNR points is the single-point run: its draw
    # is not overwritten by the second one, which follows in the stream.
    cfg = _small_cfg(detectors=("mwd", "osd"), trials=200, channels=2, seed=1)
    once = run(replace(cfg, snr_db=(5.0,)))
    twice = run(replace(cfg, snr_db=(5.0, 5.0)))
    assert len(twice) == 2 * len(once)
    assert twice[first] == once


class TestSphereCounts:
    def test_single_group_full_list_matches_enumeration(self):
        # One group holding all but one codeword: a miss happens exactly
        # when the true index ranks last. The exact miss rate follows by
        # enumerating all 2^8 observations with per-element flip
        # probabilities.
        ch, table, cb = random_system(2, 4, "qam4", 0.7, seed=49)
        ws = compute_weights_approx(ch, table)
        sphere = build_sphere_table(cb, ws, SphereConfig(8, cb.size - 1))
        flip = np.exp(-compute_weights_exact(ch, table).w)  # (K, 2N)
        exact_rate = 0.0
        for k in range(cb.size):
            for bits in product((0, 1), repeat=8):
                e = np.array(bits)
                y = cb.codewords[k] * (1 - 2 * e)
                prob = float(np.prod(np.where(e == 1, flip[k], 1 - flip[k])))
                if k not in sphere.indices[0, pattern_index(y)]:
                    exact_rate += prob / cb.size
        trials = 20_000
        base, coef = distance_affine(cb, ws)
        misses, _, _ = _sphere_counts(ch, cb, trials, stream_rng(50, 0),
                                      Receiver(base, coef), Receiver(base, coef, sphere))
        stderr = np.sqrt(exact_rate * (1 - exact_rate) / trials)
        assert abs(misses / trials - exact_rate) <= 3 * stderr + 1e-12


class TestTradeoffSweep:
    def test_relative_complexity_increases_with_list_size(self):
        cfg = _small_cfg(detectors=("mld", "osd"), list_size=None,
                         list_sizes=(1, 2, 4), snr_db=(0.0,))
        records = run_tradeoff_sweep(cfg)
        osd_rows = [r for r in records if r.detector.startswith("osd")]
        rel = [r.rel_complexity for r in osd_rows]
        assert rel == sorted(rel)
        assert all(r is not None for r in rel)

    def test_relative_ser_close_to_one_or_below(self):
        cfg = _small_cfg(detectors=("mld", "osd"), list_size=None,
                         list_sizes=(2, 4), snr_db=(0.0,), trials=2000)
        for r in run_tradeoff_sweep(cfg):
            if r.rel_ser is not None:
                assert r.rel_ser <= 1.05

    def test_mean_list_length_column(self):
        cfg = _small_cfg(detectors=("mld", "osd"), list_size=None,
                         list_sizes=(2,), snr_db=(0.0,))
        records = run_tradeoff_sweep(cfg)
        osd = [r for r in records if r.detector == "osd-l2"][0]
        assert 2 <= osd.mean_list_len <= (2 * cfg.antennas / cfg.n_sub) * 2


class TestValidation:
    def test_sphere_params_required_with_osd(self):
        with pytest.raises(ConfigError, match="--ns"):
            validate_ser_config(_small_cfg(n_sub=None, list_size=None))
        with pytest.raises(ConfigError, match="--list-size"):
            validate_ser_config(_small_cfg(list_size=None))

    def test_sphere_params_rejected_without_osd(self):
        with pytest.raises(ConfigError):
            validate_ser_config(_small_cfg(detectors=("mld",)))

    def test_unknown_detector(self):
        with pytest.raises(ConfigError, match="unknown detector"):
            validate_ser_config(_small_cfg(detectors=("mld", "zf")))

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            validate_ser_config(_small_cfg(snr_db=()))
        with pytest.raises(ConfigError):
            validate_ser_config(_small_cfg(detectors=()))

    def test_sep_requires_sphere_params(self):
        with pytest.raises(ConfigError):
            validate_sep_config(_small_cfg(n_sub=None))

    def test_tradeoff_requires_list_sizes(self):
        with pytest.raises(ConfigError):
            validate_tradeoff_config(_small_cfg(list_sizes=()))

    def test_bad_trial_counts(self):
        with pytest.raises(ConfigError):
            validate_ser_config(_small_cfg(trials=0))
        with pytest.raises(ConfigError):
            validate_ser_config(_small_cfg(channels=0))


class TestStateBudget:
    def test_rejects_state_beyond_budget_before_enumerating(self, monkeypatch):
        # -U 6 -N 32 qam16: K = 2^24 codewords of length 64, about 35 GB.
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the codebook was enumerated")

        monkeypatch.setattr(obdk.experiments, "enumerate_symbol_vectors", enumerate_nothing)
        big = _small_cfg(users=6, antennas=32, modulation="qam16", n_sub=8, list_size=4)
        need = 2**24 * 64 * (4 * 8 + 1) + 8 * 2**8 * 4 * 4
        for check in (validate_ser_config, validate_sep_config, run_ser_experiment,
                      run_sep_experiment):
            with pytest.raises(ConfigError, match=f"needs {need} bytes"):
                check(big)
        with pytest.raises(ConfigError, match="budget"):
            validate_ser_config(replace(big, detectors=("mld",), n_sub=None, list_size=None))
        with pytest.raises(ConfigError, match="budget"):
            validate_tradeoff_config(replace(big, list_sizes=(1, 4)))

    def test_sphere_table_counts_toward_budget(self):
        # K = 2^16 at 2N = 40 holds 86 MB; lists of 200 entries over
        # 2 x 2^20 patterns add 1.7 GB of table, lists of 4 only 34 MB.
        cfg = _small_cfg(users=4, antennas=20, modulation="qam16", n_sub=20, list_size=200)
        with pytest.raises(ConfigError, match="budget"):
            validate_sep_config(cfg)
        with pytest.raises(ConfigError, match="budget"):
            validate_tradeoff_config(replace(cfg, list_sizes=(4, 200)))
        validate_sep_config(replace(cfg, list_size=4))


class TestBoundedMemory:
    def test_peak_does_not_grow_with_trials(self):
        # 200 000 trials: all indices are drawn at once (8 bytes a trial),
        # observations and scores in blocks of at most BLOCK_VALUES values.
        cfg = _small_cfg(snr_db=(3.0,), trials=200_000, channels=1)
        for run in (run_ser_experiment, run_sep_experiment):
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * cfg.trials + 3 * 8 * BLOCK_VALUES


class TestSerialization:
    def test_csv_header_and_shape(self):
        records = run_ser_experiment(_small_cfg(trials=50, channels=2))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(records)
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:])

    def test_json_round_trip(self):
        records = run_ser_experiment(_small_cfg(trials=50, channels=2))
        data = json.loads(records_to_json(records))
        assert len(data) == len(records)
        assert data[0]["detector"] == "mld"
        assert "wall_ns" not in data[0]

    def test_tradeoff_json_carries_relative_columns(self):
        cfg = _small_cfg(detectors=("mld", "osd"), list_size=None,
                         list_sizes=(2,), snr_db=(0.0,), trials=200, channels=2)
        data = json.loads(records_to_json(run_tradeoff_sweep(cfg)))
        osd = [d for d in data if d["detector"] == "osd-l2"][0]
        assert "rel_complexity" in osd
        mld = [d for d in data if d["detector"] == "mld"][0]
        assert "rel_complexity" not in mld
