"""Seeded Monte-Carlo experiments and their CSV/JSON records.

Every experiment draws channels and noise from counter-based generator
streams keyed by (seed, channel index), so results are bit-identical no
matter how many worker processes share the channel loop. Within one
trial all selected detectors see the same observation (common random
numbers), which is what makes the loss-versus-miss accounting of the
sphere decoder a well-defined joint event.

SNR convention: snr_db = 10 * log10(1 / sigma^2) per user, i.e.
sigma^2 = 10 ** (-snr_db / 10) with unit-power symbols.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .analysis import ComplexityQuery, SepBoundInputs, complexity_model, sep_bound
from .channel import RealChannel, quantize_sign, sample_rayleigh_channel, stream_rng
from .codebook import Codebook, build_codebook, enumerate_symbol_vectors, make_constellation
from .detectors import (
    ConfigError,
    Receiver,
    SphereConfig,
    build_sphere_table,
    distance_affine,
    _mismatch_affine,
    _negated_loglik_affine,
    _prepared,
    _row_blocks,
)
from .weights import compute_weights_approx, compute_weights_exact

DETECTOR_NAMES = ("mld", "mwd-exact", "mwd", "mwd-hs", "osd")

CSV_COLUMNS = (
    "detector",
    "snr_db",
    "channels",
    "trials",
    "errors",
    "rate",
    "mean_list_len",
    "distance_evals",
    "seed",
)

# Largest per-block state an experiment may hold (1 GiB): the codewords
# and four K x 2N float64 arrays (weights, affine coefficients) plus the
# sphere table. Larger systems fail in validation instead of being killed
# for memory part way through.
STATE_BUDGET_BYTES = 1 << 30


def snr_db_to_sigma_sq(snr_db: float) -> float:
    return 10.0 ** (-float(snr_db) / 10.0)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial rate; sane near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def resolve_workers(requested: int | None = None) -> int:
    """Worker count; the OBDK_THREADS environment variable overrides."""
    env = os.environ.get("OBDK_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"OBDK_THREADS must be an integer, got {env!r}") from exc
    return max(1, int(requested) if requested else 1)


@dataclass(frozen=True)
class ExperimentConfig:
    users: int
    antennas: int
    modulation: str = "qam4"
    snr_db: tuple = (0.0, 5.0, 10.0)
    detectors: tuple = ("mld", "mwd")
    n_sub: int | None = None
    list_size: int | None = None
    list_sizes: tuple | None = None
    trials: int = 10_000
    channels: int = 100
    seed: int = 0
    time_slots: int = 4096
    workers: int = 1


@dataclass
class ExperimentRecord:
    """One aggregated measurement row; ``rate`` is the SER (or list-miss
    rate / loss rate / clamped bound, depending on the experiment)."""

    detector: str
    snr_db: float
    channels: int
    trials: int
    errors: int
    rate: float
    mean_list_len: float
    distance_evals: int
    seed: int
    rel_ser: float | None = None
    rel_complexity: float | None = None

    def output_fields(self) -> dict:
        """Every field, less the ``rel_*`` ones left unset."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _check_common(cfg: ExperimentConfig) -> None:
    if cfg.users < 1 or cfg.antennas < 1:
        raise ConfigError("--users and --antennas must be >= 1")
    if cfg.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if cfg.channels < 1:
        raise ConfigError("--channels must be >= 1")
    if not cfg.snr_db:
        raise ConfigError("--snr-db must list at least one value")
    for snr in cfg.snr_db:
        _check_snr(snr)
    if cfg.modulation not in ("bpsk", "qam4", "qam16"):
        raise ConfigError(f"unsupported --mod value: {cfg.modulation!r}")


def _check_snr(snr: float) -> None:
    if not math.isfinite(snr):
        raise ConfigError(f"--snr-db values must be finite, got {snr}")


def _check_sphere(cfg: ExperimentConfig, list_sizes=()) -> None:
    """Reject missing sphere parameters, run the rules of :class:`SphereConfig`
    for each of ``list_sizes`` in order (empty: no table), then reject a
    per-block state above :data:`STATE_BUDGET_BYTES` before anything is
    enumerated: K x 2N x (4 * 8 + 1) bytes, plus G * 2^ns * L * 4 for a
    table with lists of the longest L."""
    two_n = 2 * cfg.antennas
    k_total = make_constellation(cfg.modulation).size ** cfg.users
    need = k_total * two_n * (4 * 8 + 1)
    if list_sizes:
        if cfg.n_sub is None:
            raise ConfigError("--ns is required when the sphere decoder is selected")
        if None in list_sizes:
            raise ConfigError("--list-size is required when the sphere decoder is selected")
        for lsz in list_sizes:
            groups = SphereConfig(cfg.n_sub, lsz).group_count(two_n, k_total)
        need += groups * (1 << cfg.n_sub) * max(list_sizes) * 4
    if need > STATE_BUDGET_BYTES:
        raise ConfigError(
            f"a block of K = {k_total} codewords of length 2N = {two_n} needs {need} bytes "
            f"of state, above the budget of {STATE_BUDGET_BYTES} bytes"
        )


def validate_ser_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    if not cfg.detectors:
        raise ConfigError("--detectors must list at least one detector")
    unknown = [d for d in cfg.detectors if d not in DETECTOR_NAMES]
    if unknown:
        raise ConfigError(f"unknown detector(s): {', '.join(unknown)}")
    sphere = "osd" in cfg.detectors
    if not sphere and (cfg.n_sub is not None or cfg.list_size is not None):
        raise ConfigError("--ns/--list-size are only valid when 'osd' is selected")
    _check_sphere(cfg, (cfg.list_size,) if sphere else ())


def validate_sep_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    _check_sphere(cfg, (cfg.list_size,))


def validate_tradeoff_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    if cfg.time_slots < 1:
        raise ConfigError("--td must be >= 1")
    if cfg.n_sub is None:
        raise ConfigError("--ns is required for the tradeoff sweep")
    if not cfg.list_sizes:
        raise ConfigError("--list-sizes must list at least one value")
    _check_sphere(cfg, cfg.list_sizes)


def _channel_setup(cfg: ExperimentConfig, channel_index: int):
    """Channel draw plus codebook for one realization; the returned rng
    continues the same stream for the trial noise."""
    rng = stream_rng(cfg.seed, channel_index)
    hbar = sample_rayleigh_channel(cfg.antennas, cfg.users, rng)
    constellation = make_constellation(cfg.modulation)
    table = enumerate_symbol_vectors(constellation, cfg.users)
    # Codeword signs do not depend on the noise level; any variance works here.
    ch0 = RealChannel.from_complex(hbar, 1.0)
    cb = build_codebook(ch0, table)
    return rng, ch0.entries, cb


def single_block(cfg: ExperimentConfig, snr_db: float):
    """Codebook and approximate weights of channel 0 at one SNR, for the
    commands that work on a single block (sphere-table build, soft outputs)."""
    _check_sphere(cfg, (cfg.list_size,))
    _check_snr(snr_db)
    _, h_entries, cb = _channel_setup(cfg, 0)
    ch = RealChannel(h_entries, snr_db_to_sigma_sq(snr_db))
    return cb, compute_weights_approx(ch, cb.symbols)


def _receivers(cb, ch: RealChannel, detectors):
    """Prepared receivers of one block, one per entry of ``detectors``: a
    full-search detector name, or a SphereConfig for the sphere decoder.
    Also returns the approximate weights (None if no entry needs them).

    Sphere entries share one n_sub, so one table at the longest list
    serves them all: a shorter list is a prefix of a longer one, both
    being the head of one (score, index) order."""
    ws = full = None
    if any(d not in ("mld", "mwd-exact") for d in detectors):
        ws = compute_weights_approx(ch, cb.symbols)
        full = _prepared(ws, distance_affine, cb)
    spheres = [d for d in detectors if isinstance(d, SphereConfig)]
    if spheres:
        longest = build_sphere_table(cb, ws, max(spheres, key=lambda c: c.list_size))
    receivers = []
    for det in detectors:
        if det == "mld":
            receivers.append(_prepared(ch, _negated_loglik_affine, cb))
        elif det == "mwd-exact":
            receivers.append(_prepared(compute_weights_exact(ch, cb.symbols), distance_affine, cb))
        elif det == "mwd":
            receivers.append(full)
        elif det == "mwd-hs":
            receivers.append(_prepared(ws, _mismatch_affine, cb))
        else:
            head = np.ascontiguousarray(longest.indices[..., :det.list_size])
            receivers.append(Receiver(full.base, full.coef, replace(longest, indices=head)))
    return receivers, ws


def _draw_trials(ch: RealChannel, codebook: Codebook, trials: int, rng: np.random.Generator,
                 width: int):
    """Uniform codeword indices and their one-bit observations (float64
    +/-1, the form receivers score), yielded as (indices, observations)
    per row block of :func:`_row_blocks`, for work that holds ``width``
    values per trial (at least the 2N of an observation).

    Draws all ``trials`` indices first (8 bytes a trial), then the noise
    of each block in turn, from ``rng``; the stream is consumed as by one
    draw of the whole batch, so the values do not depend on the blocks.
    Consume every block before ``rng`` is used again.
    """
    ks = rng.integers(0, codebook.size, size=trials)
    for rows in _row_blocks(trials, max(width, ch.n_outputs)):
        noise = rng.standard_normal((rows.stop - rows.start, ch.n_outputs))
        noise *= ch.noise_std_per_component
        obs = quantize_sign(codebook.symbols.vectors[ks[rows]] @ ch.entries.T + noise)
        yield ks[rows], obs.astype(np.float64)


def _sphere_counts(ch: RealChannel, codebook: Codebook, trials: int, rng: np.random.Generator,
                   full: Receiver, sphere: Receiver) -> tuple[int, int, int]:
    """(list misses, losses, summed list length) of ``trials`` draws of
    :func:`_draw_trials`, counted block by block: a miss is a true index
    absent from its list, a loss a trial that the full search gets right
    and the sphere decoder gets wrong."""
    misses = losses = list_sum = 0
    width = max(full.row_values, sphere.row_values)
    for ks, obs in _draw_trials(ch, codebook, trials, rng, width):
        cand = sphere.candidates(obs)
        full_hat, _, _ = full.detect(obs)
        sphere_hat, _, lens = sphere.detect(obs, cand)
        misses += int(np.count_nonzero(~np.any(cand == ks[:, None], axis=1)))
        losses += int(np.count_nonzero((full_hat == ks) & (sphere_hat != ks)))
        list_sum += int(lens.sum())
    return misses, losses, list_sum


def _clamped_bound(inputs: SepBoundInputs) -> float:
    return float(min(1.0, max(0.0, sep_bound(inputs))))


def _detect_channel(detectors, cfg: ExperimentConfig, channel_index: int) -> dict:
    """(errors, summed list length) of each receiver of ``detectors`` (see
    :func:`_receivers`), keyed by (receiver position, SNR position); every
    receiver sees the same observations."""
    rng, h_entries, cb = _channel_setup(cfg, channel_index)
    out = {}
    for j, snr in enumerate(cfg.snr_db):
        ch = RealChannel(h_entries, snr_db_to_sigma_sq(snr))
        receivers = _receivers(cb, ch, detectors)[0]
        totals = np.zeros((len(receivers), 2), dtype=np.int64)
        width = max(rx.row_values for rx in receivers)
        for ks, obs in _draw_trials(ch, cb, cfg.trials, rng, width):
            for i, rx in enumerate(receivers):
                winners, _, lens = rx.detect(obs)
                totals[i] += np.count_nonzero(winners != ks), lens.sum()
        for i, (errors, list_sum) in enumerate(totals.tolist()):
            out[i, j] = (errors, list_sum)
    return out


def _sep_channel(cfg: ExperimentConfig, channel_index: int) -> dict:
    """(misses, losses, summed list length, clamped bound) per SNR position."""
    rng, h_entries, cb = _channel_setup(cfg, channel_index)
    sphere = SphereConfig(cfg.n_sub, cfg.list_size)
    out = {}
    for j, snr in enumerate(cfg.snr_db):
        ch = RealChannel(h_entries, snr_db_to_sigma_sq(snr))
        (full, narrowed), ws = _receivers(cb, ch, ("mwd", sphere))
        counts = _sphere_counts(ch, cb, cfg.trials, rng, full, narrowed)
        out[j] = (*counts, _clamped_bound(SepBoundInputs(cb, ws, narrowed.table)))
    return out


def _bound_channel(cfg: ExperimentConfig, channel_index: int) -> dict:
    """(clamped bound,) per SNR position."""
    _, h_entries, cb = _channel_setup(cfg, channel_index)
    sphere = SphereConfig(cfg.n_sub, cfg.list_size)
    out = {}
    for j, snr in enumerate(cfg.snr_db):
        ch = RealChannel(h_entries, snr_db_to_sigma_sq(snr))
        ws = compute_weights_approx(ch, cb.symbols)
        out[j] = (_clamped_bound(SepBoundInputs.build(cb, ws, sphere)),)
    return out


def _channel_totals(worker, cfg: ExperimentConfig) -> dict:
    """Run the per-channel worker, which returns {key: tuple of numbers},
    over all channel indices; each key's tuples summed elementwise in
    channel order."""
    if cfg.workers <= 1:
        partials = [worker(cfg, ci) for ci in range(cfg.channels)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            partials = list(pool.map(partial(worker, cfg), range(cfg.channels)))
    return {key: tuple(map(sum, zip(*(p[key] for p in partials)))) for key in partials[0]}


def _rate_record(cfg: ExperimentConfig, name: str, snr, errors: int, list_sum: int,
                 **rel) -> ExperimentRecord:
    """A simulated row: ``errors`` and ``list_sum`` summed over every trial."""
    n = cfg.trials * cfg.channels
    return ExperimentRecord(name, float(snr), cfg.channels, cfg.trials, errors, errors / n,
                            list_sum / n, list_sum, cfg.seed, **rel)


def _bound_record(cfg: ExperimentConfig, snr, bound_sum: float) -> ExperimentRecord:
    return ExperimentRecord("bound", float(snr), cfg.channels, 0, 0, bound_sum / cfg.channels,
                            0.0, 0, cfg.seed)


def run_ser_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Paired symbol-error-rate sweep; one record per (detector, SNR)."""
    validate_ser_config(cfg)
    dets = [SphereConfig(cfg.n_sub, cfg.list_size) if d == "osd" else d for d in cfg.detectors]
    totals = _channel_totals(partial(_detect_channel, dets), cfg)
    return [_rate_record(cfg, det, snr, *totals[i, j])
            for i, det in enumerate(cfg.detectors) for j, snr in enumerate(cfg.snr_db)]


def run_sep_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """List-miss rate, loss rate, and the analytic bound, side by side.

    Emits rows labelled ``sep`` (true index missing from the list),
    ``p_loss`` (sphere decoder wrong while full search is right on the
    same observation), and ``bound`` (channel-averaged analytic bound,
    clamped to [0, 1]).
    """
    validate_sep_config(cfg)
    totals = _channel_totals(_sep_channel, cfg)
    records = []
    for j, snr in enumerate(cfg.snr_db):
        misses, losses, list_sum, bound_sum = totals[j]
        records += [_rate_record(cfg, "sep", snr, misses, list_sum),
                    _rate_record(cfg, "p_loss", snr, losses, list_sum),
                    _bound_record(cfg, snr, bound_sum)]
    return records


def run_bound_sweep(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Channel-averaged analytic list-miss bound alone (no simulation);
    one ``bound`` row per SNR, as in :func:`run_sep_experiment`."""
    validate_sep_config(cfg)
    totals = _channel_totals(_bound_channel, cfg)
    return [_bound_record(cfg, snr, *totals[j]) for j, snr in enumerate(cfg.snr_db)]


def run_tradeoff_sweep(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """SER and complexity of the sphere decoder relative to full-search
    maximum likelihood, for each configured list size.

    Sphere-decoder rows carry ``rel_ser`` = SER(mld) / SER(osd) and
    ``rel_complexity`` = (preprocessing + detection) multiplications of
    the sphere decoder over the maximum-likelihood detection count
    (JSON output only; the CSV keeps the fixed column set).
    """
    validate_tradeoff_config(cfg)
    dets = ["mld", *(SphereConfig(cfg.n_sub, lsz) for lsz in cfg.list_sizes)]
    totals = _channel_totals(partial(_detect_channel, dets), cfg)
    k_total = make_constellation(cfg.modulation).size ** cfg.users
    _, mld_mults = complexity_model(
        ComplexityQuery("mld", cfg.users, cfg.antennas, k_total, cfg.time_slots)
    )
    records = []
    for j, snr in enumerate(cfg.snr_db):
        mld_errors, mld_sum = totals[0, j]
        records.append(_rate_record(cfg, "mld", snr, mld_errors, mld_sum))
        for i, lsz in enumerate(cfg.list_sizes, start=1):
            errors, list_sum = totals[i, j]
            pre, det = complexity_model(
                ComplexityQuery("osd", cfg.users, cfg.antennas, k_total, cfg.time_slots,
                                n_sub=cfg.n_sub, list_size=lsz)
            )
            records.append(
                _rate_record(cfg, f"osd-l{lsz}", snr, errors, list_sum,
                             rel_ser=(mld_errors / errors) if errors else None,
                             rel_complexity=(pre + det) / mld_mults)
            )
    return records


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        fields = r.output_fields()
        lines.append(",".join(str(fields[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    return json.dumps([r.output_fields() for r in records], indent=2) + "\n"


def _write_text(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_records(records, out: str | None, fmt: str = "csv") -> None:
    _write_text(records_to_csv(records) if fmt == "csv" else records_to_json(records), out)
