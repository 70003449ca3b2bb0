import concurrent.futures
import json
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import obdk.experiments

from obdk import (
    ConfigError,
    ExperimentConfig,
    RealChannel,
    Receiver,
    SphereConfig,
    assemble_list,
    build_sphere_table,
    compute_llrs,
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
from obdk.weights import log_q
from obdk.experiments import (
    CSV_COLUMNS,
    DETECTOR_NAMES,
    MAX_KEYED_OUTPUTS,
    _channel_setup,
    _check_common,
    _distinct_rows,
    _draw_trials,
    _receivers,
    _sphere_counts,
    single_block,
    validate_ser_config,
    validate_sep_config,
    validate_tradeoff_config,
)
from conftest import count_calls, random_system


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

    @pytest.mark.parametrize("successes", [-1, 11])
    def test_rejects_successes_outside_trials(self, successes):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(successes, 10)

    @pytest.mark.parametrize("successes", [0, 3, np.int64(3), 10])
    def test_bounds_are_python_floats(self, successes):
        assert [type(b) for b in wilson_interval(successes, 10)] == [float, float]


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

    @pytest.mark.parametrize("workers, channels, pools", [(3, 2, [2]), (4, 1, [])])
    def test_pool_has_no_more_workers_than_channels(self, workers, channels, pools, monkeypatch):
        # Before, the pool was sized by workers alone, and a fork pool starts
        # every worker at the first submit: 6 processes for one channel.
        sizes = []

        class SpyPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        cfg = _small_cfg(detectors=("mwd",), n_sub=None, list_size=None, trials=10,
                         channels=channels, workers=workers)
        assert run_ser_experiment(cfg) == run_ser_experiment(replace(cfg, workers=1))
        assert sizes == pools

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

    def test_sphere_near_mld_at_high_snr(self):
        # The test above at 30-50 dB, where match weights down to 1e-308
        # still rank the sphere table's sub-codewords.
        cfg = _small_cfg(antennas=8, detectors=("mld", "osd"), snr_db=(30.0, 40.0, 50.0),
                         trials=2000, channels=20)
        by = {(r.detector, r.snr_db): r for r in run_ser_experiment(cfg)}
        n = cfg.trials * cfg.channels
        for snr in cfg.snr_db:
            osd_low, _ = wilson_interval(by[("osd", snr)].errors, n)
            _, mld_high = wilson_interval(by[("mld", snr)].errors, n)
            assert osd_low <= 1.2 * mld_high, f"{snr} dB"

    @pytest.fixture(scope="class")
    def forty_channel_errors(self):
        # Each channel's trials continue one stream across the grid, so the
        # 30 and 40 dB draws follow those at 10 and 20 dB.
        cfg = ExperimentConfig(users=2, antennas=8, snr_db=(10.0, 20.0, 30.0, 40.0),
                               detectors=("mld", "osd"), n_sub=4, list_size=2, trials=5000,
                               channels=40, seed=11)
        return cfg.trials * cfg.channels, {(r.detector, r.snr_db): r.errors
                                           for r in run_ser_experiment(cfg)}

    @pytest.mark.parametrize("snr_db", [
        30.0,
        pytest.param(40.0, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=("ROADMAP item 1 stage B, match weights that underflow: osd makes 303 "
                    "errors against mld's 14 at 40 dB"))),
    ])
    def test_sphere_near_mld_over_forty_channels(self, forty_channel_errors, snr_db):
        # At 10 and 20 dB osd errs 1.4 and 1.6 times as often as mld: the
        # loss of a narrow list (ns = 4, L = 2), not a misranked table.
        n, errors = forty_channel_errors
        osd_low, _ = wilson_interval(errors["osd", snr_db], n)
        _, mld_high = wilson_interval(errors["mld", snr_db], n)
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


@pytest.mark.parametrize("run", [run_sep_experiment, obdk.experiments.run_bound_sweep])
def test_one_sub_score_sweep_per_channel_and_snr(run, monkeypatch):
    # The table and the bound come from one sweep of the sub-codeword
    # scores; every binding of the sweep in the package is counted.
    sweeps = count_calls(monkeypatch, "_sub_scores")
    cfg = _small_cfg(snr_db=(0.0, 6.0, 30.0), channels=2, trials=50)
    run(cfg)
    assert [n_sub for _, _, n_sub in sweeps] == [cfg.n_sub] * (len(cfg.snr_db) * cfg.channels)


@pytest.mark.parametrize("run, forms", [
    (run_sep_experiment, 1),  # the one its full-search and sphere receivers search
    (obdk.experiments.run_bound_sweep, 0),  # its sweep sums the weights themselves
])
def test_distance_forms_per_channel_and_snr(run, forms, monkeypatch):
    calls = count_calls(monkeypatch, "distance_affine")
    cfg = _small_cfg(snr_db=(0.0, 6.0, 30.0), channels=2, trials=50)
    run(cfg)
    assert len(calls) == forms * len(cfg.snr_db) * cfg.channels
    assert len({id(ws) for _, ws in calls}) == len(calls)  # one form per weight set


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


def _every_row(obs):
    """What :func:`_distinct_rows` would return if no row repeated."""
    return obs, np.arange(len(obs))


def _constant_signs(v):
    """A quantizer under which every trial observes the all-(+1) vector."""
    return np.ones(np.shape(v), dtype=np.int8)


class TestDistinctRows:
    # A system at each side of MAX_KEYED_OUTPUTS, and one whose trials all
    # observe the same vector; 30 dB makes observations repeat.
    SYSTEMS = {
        "same-observation": dict(snr_db=(5.0,)),
        "2n-52": dict(users=1, antennas=26, n_sub=4, list_size=2, snr_db=(5.0, 30.0)),
        "2n-54": dict(users=1, antennas=27, n_sub=6, list_size=2, snr_db=(5.0, 30.0)),
    }

    @pytest.fixture(params=SYSTEMS, ids=list(SYSTEMS))
    def system(self, request, monkeypatch):
        if request.param == "same-observation":
            monkeypatch.setattr(obdk.experiments, "quantize_sign", _constant_signs)
        return request.param, _small_cfg(trials=400, channels=2, **self.SYSTEMS[request.param])

    def test_winners_and_list_lengths_match_every_row(self, system):
        name, cfg = system
        detectors = ("mld", "mwd-exact", "mwd", "mwd-hs", SphereConfig(cfg.n_sub, cfg.list_size))
        for snr in cfg.snr_db:
            rng, h_entries, cb = _channel_setup(cfg, 0)
            ch = RealChannel(h_entries, snr_db_to_sigma_sq(snr))
            receivers = _receivers(cb, ch, detectors)
            for ks, distinct, inverse in _draw_trials(ch, cb, cfg.trials, rng, receivers):
                obs = distinct[inverse]
                for rx in receivers:
                    winners, _, lens = rx.detect(distinct)
                    every_winner, _, every_len = rx.detect(obs)
                    assert_array_equal(winners[inverse], every_winner)
                    assert_array_equal(lens[inverse], every_len)
                if name == "same-observation":
                    assert len(distinct) == 1 and not inverse.any()
                elif name == "2n-54":
                    assert_array_equal(inverse, np.arange(len(ks)))
                elif snr == 30.0:
                    assert len(distinct) < len(ks)

    def test_records_match_every_row(self, system, monkeypatch):
        # Errors and list lengths of ser, misses, losses and list lengths of sep.
        _, cfg = system
        cfg = replace(cfg, detectors=DETECTOR_NAMES)
        once = [run(cfg) for run in (run_ser_experiment, run_sep_experiment)]
        monkeypatch.setattr(obdk.experiments, "_distinct_rows", _every_row)
        assert [run(cfg) for run in (run_ser_experiment, run_sep_experiment)] == once

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_round_trip_through_their_keys(self, data):
        width = data.draw(st.integers(2, 64), label="2N")
        patterns = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=6))
        picks = data.draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=40))
        obs = np.array([[1.0 - 2.0 * (p >> i & 1) for i in range(width)] for p in picks])
        distinct, inverse = _distinct_rows(obs)
        assert distinct.dtype == np.float64 and inverse.shape == (len(obs),)
        assert_array_equal(distinct[inverse], obs)
        if width > MAX_KEYED_OUTPUTS:
            assert distinct is obs
        else:
            assert len(distinct) == len(set(picks))


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

    def test_tradeoff_states_the_sphere_ns_rule(self):
        # The one --ns rule of every sphere command; before, tradeoff had its own.
        with pytest.raises(ConfigError, match="--ns is required when the sphere decoder"):
            validate_tradeoff_config(_small_cfg(n_sub=None, list_sizes=(2,)))

    @pytest.mark.parametrize("validate, change, message", [
        (validate_ser_config, dict(detectors=("mwd", "osd", "mwd")),
         "--detectors lists mwd more than once"),
        (validate_tradeoff_config, dict(list_sizes=(2, 4, 2)),
         "--list-sizes lists 2 more than once"),
    ])
    @pytest.mark.parametrize("trials", [300, 2_000_000_000], ids=["in-budget", "over-budget"])
    def test_repeated_detector_or_list_size(self, validate, change, message, trials):
        # Before, each repeat wrote a second, identical row. The repeat is
        # named before the memory budget is charged.
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate(_small_cfg(**change, trials=trials))

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(1.0), "1"],
                             ids=["half", "float-one", "numpy-float-one", "string"])
    def test_seed_must_be_an_integer(self, seed):
        # Before, seed 1.5 ran seed 1's streams and wrote 1.5 in its rows.
        with pytest.raises(ConfigError, match="--seed must be an integer"):
            _check_common(_small_cfg(seed=seed))
        with pytest.raises(ConfigError, match="--seed must be an integer"):
            run_ser_experiment(_small_cfg(seed=seed))
        _check_common(_small_cfg(seed=np.uint64(2**64 - 1)))  # numpy integers stay accepted

    def test_unknown_modulation(self):
        with pytest.raises(ConfigError, match="unsupported --mod value: 'psk8'"):
            _check_common(_small_cfg(modulation="psk8"))

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
        k, entries, vectors, table = 2**24, 2**24 * 64, 2**24 * 12 * 8, 8 * 2**8 * 4 * 4
        fixed = vectors + table + 8 * big.trials + 3 * 8 * BLOCK_VALUES
        # ser (mld, mwd, osd) keeps the codewords, the weights and two
        # forms with their bases, 33 bytes an entry, and peaks in the
        # log-likelihood's tail terms; sep keeps one form and the (G, K)
        # unlisted mass, and peaks in the weights' terms; bound keeps what
        # sep does but the form and its base, and draws no trial indices.
        # At this K full search screens: each form it searches (mld and
        # mwd for ser, mwd for sep) also keeps its float32 [base, -coef].
        screen = 4 * (entries + k)
        needs = {validate_ser_config: fixed + 2 * 8 * k + 33 * entries + 32 * entries + 2 * screen,
                 validate_sep_config: (fixed + 8 * k + 25 * entries + 8 * 8 * k + 25 * entries
                                       + screen)}
        needs[run_ser_experiment], needs[run_sep_experiment] = needs.values()
        needs[obdk.experiments.run_bound_sweep] = (fixed - 8 * big.trials + 17 * entries
                                                   + 8 * 8 * k + 25 * entries)
        for check, need in needs.items():
            with pytest.raises(ConfigError, match=f"needs {need} bytes"):
                check(big)
        with pytest.raises(ConfigError, match="budget"):
            validate_ser_config(replace(big, detectors=("mld",), n_sub=None, list_size=None))
        with pytest.raises(ConfigError, match="budget"):
            validate_tradeoff_config(replace(big, list_sizes=(1, 4)))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        # Before, min(workers, channels) blocks were charged, so -U 6 -N 32
        # qam16 (K = 2^24), refused with one worker, was accepted with none.
        message = f"--workers must be >= 1, got {workers}"
        big = ExperimentConfig(6, 32, "qam16", detectors=("mwd",), workers=workers)
        with pytest.raises(ConfigError, match="budget"):
            validate_ser_config(replace(big, workers=1))
        sphere = replace(big, n_sub=8, list_size=4, list_sizes=(4,))
        for check, cfg in ((validate_ser_config, big), (validate_sep_config, sphere),
                           (validate_tradeoff_config, sphere)):
            with pytest.raises(ConfigError, match=re.escape(message)):
                check(cfg)
        tiny = ExperimentConfig(1, 1, n_sub=1, list_size=1, channels=1, snr_db=(0.0,),
                                workers=workers)
        with pytest.raises(ConfigError, match=re.escape(message)):
            obdk.experiments.run_bound_sweep(tiny)

    def test_sphere_table_counts_toward_budget(self):
        # K = 2^16 at 2N = 40: sep is charged about 150 MB besides its
        # table; lists of 200 entries over 2 x 2^20 patterns add 1.7 GB
        # of table, held twice by the build, lists of 4 only 34 MB.
        cfg = _small_cfg(users=4, antennas=20, modulation="qam16", n_sub=20, list_size=200)
        with pytest.raises(ConfigError, match="budget"):
            validate_sep_config(cfg)
        with pytest.raises(ConfigError, match="budget"):
            validate_tradeoff_config(replace(cfg, list_sizes=(4, 200)))
        validate_sep_config(replace(cfg, list_size=4))

    def test_table_counts_twice(self, monkeypatch):
        # A table build holds the filled array and the table's private copy
        # at once, beside the costs of its sweep's block of groups, 17 bytes
        # per codeword and position; sep and bound also keep the (G, K)
        # unlisted mass.
        cfg = _small_cfg(n_sub=8, list_size=8)  # K = 16, 2N = 8: one group of 256 lists
        table = 256 * 8 * 4
        # symbol vectors, mwd's base, codewords + weights + coef, mass
        kept = 16 * 4 * 8 + 16 * 8 + 25 * 16 * 8 + 16 * 8
        need = kept + 2 * table + 17 * 16 * 8 + 8 * cfg.trials + 3 * 8 * BLOCK_VALUES
        monkeypatch.setattr(obdk.experiments, "STATE_BUDGET_BYTES", need - table)
        with pytest.raises(ConfigError, match=f"needs {need} bytes"):
            validate_sep_config(cfg)
        monkeypatch.setattr(obdk.experiments, "STATE_BUDGET_BYTES", need)
        validate_sep_config(cfg)

    def test_trial_indices_count_toward_budget(self):
        # All indices are drawn at once, 8 bytes a trial: 2e9 trials would
        # allocate 16 GB before the first block.
        cfg = ExperimentConfig(users=1, antennas=1, trials=2_000_000_000)
        sphere = replace(cfg, n_sub=2, list_size=1, list_sizes=(1,))
        for check, checked in ((validate_ser_config, cfg), (validate_sep_config, sphere),
                               (validate_tradeoff_config, sphere)):
            with pytest.raises(ConfigError, match="budget"):
                check(checked)
        # bound draws none, so its charge does not read the trial count.
        # Before, the same block was refused for indices it never drew.
        bound = obdk.experiments.run_bound_sweep(replace(sphere, channels=1, snr_db=(0.0,)))
        assert [r.trials for r in bound] == [0]
        validate_ser_config(replace(cfg, trials=100_000_000))

    def test_trial_count_is_checked_only_where_trials_are_drawn(self):
        # Before, bound was refused with "--trials must be >= 1", a flag it
        # does not have, for a count it never reads.
        cfg = ExperimentConfig(2, 4, n_sub=4, list_size=2, list_sizes=(2,), trials=0, channels=1,
                               snr_db=(0.0,))
        assert [r.trials for r in obdk.experiments.run_bound_sweep(cfg)] == [0]
        for check in (validate_ser_config, validate_sep_config, validate_tradeoff_config):
            with pytest.raises(ConfigError, match="--trials must be >= 1"):
                check(replace(cfg, detectors=("osd",)))

    def test_blocks_run_at_once_count_toward_budget(self, monkeypatch):
        # Each of min(workers, channels) worker processes holds a block.
        cfg = _small_cfg(channels=4)
        monkeypatch.setattr(obdk.experiments, "STATE_BUDGET_BYTES", 0)
        with pytest.raises(ConfigError) as one:
            validate_ser_config(cfg)
        charge = int(re.search(r"a block of .* needs (\d+) bytes", str(one.value)).group(1))
        monkeypatch.setattr(obdk.experiments, "STATE_BUDGET_BYTES", charge)
        validate_ser_config(cfg)
        with pytest.raises(ConfigError, match=f"^2 blocks run at once of K = 16 codewords "
                                              f"of length 2N = 8 need {2 * charge} bytes"):
            validate_ser_config(replace(cfg, workers=2))
        validate_ser_config(replace(cfg, workers=8, channels=1))


def _soft_outputs(cfg):
    """What the llr command computes: each user's soft outputs for one observation."""
    y = np.resize(np.array([1, -1, -1], dtype=np.int8), 2 * cfg.antennas)
    cb, ws, table = single_block(cfg, cfg.snr_db[0], y)
    candidates = assemble_list(y, table)
    return [compute_llrs(y, candidates, cb, ws, user) for user in range(cfg.users)]


class TestBoundedMemory:
    def test_peak_does_not_grow_with_trials(self):
        # 200 000 trials: all indices are drawn at once (8 bytes a trial),
        # observations and scores in blocks of at most BLOCK_VALUES values.
        cfg = _small_cfg(snr_db=(3.0,), trials=200_000, channels=1)
        log_q(0.0)  # the first call imports scipy.special, once per process
        for run in (run_ser_experiment, run_sep_experiment):
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * cfg.trials + 3 * 8 * BLOCK_VALUES

    # -U 4 -N 16 qam16 --ns 8: K = 2^16, one K x 2N float64 array is 16 MB
    # and each table at most 1 MB; the soft outputs need qam4, so theirs
    # is -U 8 -N 16, of the same K and 2N. Sphere heads: the tradeoff case
    # at -U 2 -N 9 --ns 18 has a 15 MB table at L = 15 and an 8 MB one at 8.
    BIG = dict(users=4, antennas=16, modulation="qam16", n_sub=8, list_size=4, trials=100,
               channels=1, snr_db=(5.0,))
    HEADS = dict(users=2, antennas=9, modulation="qam4", n_sub=18, list_size=None,
                 list_sizes=(8, 15), trials=100, channels=1, snr_db=(5.0,))
    COMMANDS = {
        "ser": (BIG, run_ser_experiment),
        "sep": (BIG, run_sep_experiment),
        "bound": (BIG, obdk.experiments.run_bound_sweep),
        "tradeoff": (dict(BIG, list_sizes=(4, 16, 64)), run_tradeoff_sweep),
        "tradeoff-heads": (HEADS, run_tradeoff_sweep),
        "table-build": (BIG, lambda cfg: single_block(cfg, cfg.snr_db[0])),
        "llr": (dict(BIG, users=8, modulation="qam4"), _soft_outputs),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_block_peak_within_charge(self, command, monkeypatch):
        # One channel at one SNR is one block; ser runs all five detectors.
        # With no budget each command is refused before it enumerates
        # anything, in a message that names its own charge.
        fields, run = self.COMMANDS[command]
        cfg = ExperimentConfig(detectors=DETECTOR_NAMES, seed=3, **fields)
        monkeypatch.setattr(obdk.experiments, "STATE_BUDGET_BYTES", 0)
        with pytest.raises(ConfigError) as refused:
            run(cfg)
        charge = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
        monkeypatch.undo()
        log_q(0.0)  # the first call imports scipy.special, once per process
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge
        if command == "tradeoff-heads":
            # The longest list searches the built table itself: the block
            # peaks at the build's two copies of it, not 2.5 tables as when
            # the longest list held a copy beside the shorter one's.
            assert peak < 2.25 * (1 << 18) * 15 * 4


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
