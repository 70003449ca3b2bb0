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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .analysis import ComplexityQuery, SepBoundInputs, complexity_model, sep_bound
from .channel import RealChannel, _seed_index, quantize_sign, sample_rayleigh_channel, stream_rng
from .codebook import (SCHEMES, Codebook, build_codebook, enumerate_symbol_vectors,
                       make_constellation)
from .detectors import (
    BLOCK_VALUES,
    ConfigError,
    SphereConfig,
    build_sphere_table,
    distance_affine,
    _mismatch_affine,
    _negated_loglik_affine,
    _SWEEP_COST_BYTES,
    _prepared,
    _row_blocks,
    _screens,
    _sweep_groups,
)
from .weights import compute_weights_approx, compute_weights_exact

DETECTOR_NAMES = ("mld", "mwd-exact", "mwd", "mwd-hs", "osd")

# Largest state that the blocks an experiment runs at once may hold
# (1 GiB; see _check_sphere). Larger systems fail in validation instead
# of being killed for memory part way through.
STATE_BUDGET_BYTES = 1 << 30

# What each step of a block keeps, and what it holds beyond that at its
# peak, in bytes per entry of a K x 2N array (tracemalloc, numpy 2.4):
# int8 codewords after their float64 product; the approximate w and
# w_tilde after their terms and copies; and the float64 coef of each
# full-search form (its K-entry base is charged apart) after the terms
# of the log-likelihood, or of the exact weights, which it then drops.
_STEP_BYTES = {
    "codebook": (1, 9),
    "weights": (16, 25),
    "mld": (8, 32),
    "mwd-exact": (8, 40),
    "mwd": (8, 0),
    "mwd-hs": (8, 0),
}

# Longest observation whose rows the trial draws key exactly in float64
# (see _distinct_rows); wider blocks are scored as drawn.
MAX_KEYED_OUTPUTS = 52


def snr_db_to_sigma_sq(snr_db: float) -> float:
    return 10.0 ** (-float(snr_db) / 10.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate; sane near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z = 1.96
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def resolve_workers(requested: int) -> int:
    """Worker count; the OBDK_THREADS environment variable overrides.
    Either below 1 is a ConfigError naming it."""
    if requested < 1:
        raise ConfigError(f"--workers must be >= 1, got {requested}")
    env = os.environ.get("OBDK_THREADS")
    try:
        workers = requested if env is None else int(env)
    except ValueError as exc:
        raise ConfigError(f"OBDK_THREADS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise ConfigError(f"OBDK_THREADS must be >= 1, got {workers}")
    return workers


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


# The CSV columns: every field of a record but the optional rel_* ones.
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.default is MISSING)


def _check_common(cfg: ExperimentConfig, draws: bool = True) -> None:
    """The rules every experiment shares; ``trials`` only when it ``draws``."""
    if cfg.users < 1 or cfg.antennas < 1:
        raise ConfigError("--users and --antennas must be >= 1")
    if draws and cfg.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if cfg.channels < 1:
        raise ConfigError("--channels must be >= 1")
    if not cfg.snr_db:
        raise ConfigError("--snr-db must list at least one value")
    for snr in cfg.snr_db:
        if not math.isfinite(snr):
            raise ConfigError(f"--snr-db values must be finite, got {snr}")
    if cfg.modulation not in SCHEMES:
        raise ConfigError(f"unsupported --mod value: {cfg.modulation!r}")
    try:
        _seed_index(cfg.seed)
    except ValueError as exc:  # its message names "seed", the flag without its dashes
        raise ConfigError(f"--{exc}") from None


def _check_distinct(flag: str, values) -> None:
    """Reject a value listed twice: it would write a second, identical
    row for each SNR, where the schema has one per (detector, SNR)."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{flag} lists {repeated[0]} more than once")


def _check_sphere(cfg: ExperimentConfig, detectors, list_sizes=(), mass: bool = False) -> None:
    """Reject missing sphere parameters, run the rules of :class:`SphereConfig`
    for each of ``list_sizes`` in order (empty: no table), then reject a
    state above :data:`STATE_BUDGET_BYTES` before anything is enumerated:
    the charge of one block times :func:`_blocks_at_once`.

    A block of ``detectors`` (full-search names, ``osd`` for the sphere
    decoder) is charged what its steps keep and the largest extra that
    one step holds at its peak (see :data:`_STEP_BYTES`). Kept: the
    K x 2U float64 symbol vectors, the codebook, the approximate weights
    when ``mwd``, ``mwd-hs`` or a table (even ``bound``'s) needs them, each
    full-search form (``osd`` searches that of ``mwd``), the float32 copy
    of each form that a full-search detector of ``detectors`` screens
    (see ``detectors._screens``), the table of the longest
    list, a copy of the table for each shorter list, and with ``mass``
    the (G, K) float64 unlisted mass of the bound. Peak extras: three
    times the symbol vectors while they are enumerated, the steps' own,
    and for a table build a second copy of the table (the filled array
    beside the table's private copy) and the costs of its sweep's block
    of groups (see ``detectors._sweep_groups``). On top come the 8-byte
    trial indices, all drawn at once, unless ``detectors`` is empty
    (``bound`` draws no trial), and three BLOCK_VALUES float64
    temporaries for row blocks."""
    two_n = 2 * cfg.antennas
    k_total = make_constellation(cfg.modulation).size ** cfg.users
    entries, vectors = k_total * two_n, k_total * 2 * cfg.users * 8
    steps = {"codebook", *detectors}
    if "osd" in steps:
        steps.add("mwd")
    if list_sizes or steps & {"mwd", "mwd-hs"}:
        steps.add("weights")
    steps &= _STEP_BYTES.keys()
    forms = steps - {"codebook", "weights"}
    kept = vectors + 8 * k_total * len(forms) + entries * sum(_STEP_BYTES[s][0] for s in steps)
    if _screens(k_total):  # the float32 [base, -coef] of each form searched in full
        kept += 4 * (entries + k_total) * len(forms & set(detectors))
    extra = max(3 * vectors, *(entries * _STEP_BYTES[s][1] for s in steps))
    if list_sizes:
        if cfg.n_sub is None:
            raise ConfigError("--ns is required when the sphere decoder is selected")
        if None in list_sizes:
            raise ConfigError("--list-size is required when the sphere decoder is selected")
        for lsz in list_sizes:
            groups = SphereConfig(cfg.n_sub, lsz).group_count(two_n, k_total)
        lists, longest = groups * (1 << cfg.n_sub) * 4, max(list_sizes)
        kept += lists * (longest + sum(lsz for lsz in list_sizes if lsz < longest))
        kept += 8 * groups * k_total * mass
        sweep = _SWEEP_COST_BYTES * k_total * cfg.n_sub * _sweep_groups(cfg.n_sub, k_total, groups)
        extra = max(extra, lists * longest + sweep)
    blocks = _blocks_at_once(cfg)
    draws = 8 * cfg.trials if detectors else 0
    need = blocks * (kept + extra + draws + 3 * 8 * BLOCK_VALUES)
    if need > STATE_BUDGET_BYTES:
        what = "a block" if blocks == 1 else f"{blocks} blocks run at once"
        raise ConfigError(
            f"{what} of K = {k_total} codewords of length 2N = {two_n} "
            f"{'needs' if blocks == 1 else 'need'} {need} bytes of state, "
            f"above the budget of {STATE_BUDGET_BYTES} bytes"
        )


def validate_ser_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    if not cfg.detectors:
        raise ConfigError("--detectors must list at least one detector")
    unknown = [d for d in cfg.detectors if d not in DETECTOR_NAMES]
    if unknown:
        raise ConfigError(f"unknown detector(s): {', '.join(unknown)}")
    _check_distinct("--detectors", cfg.detectors)
    sphere = "osd" in cfg.detectors
    if not sphere and (cfg.n_sub is not None or cfg.list_size is not None):
        raise ConfigError("--ns/--list-size are only valid when 'osd' is selected")
    _check_sphere(cfg, cfg.detectors, (cfg.list_size,) if sphere else ())


def validate_sep_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    _check_sphere(cfg, ("mwd", "osd"), (cfg.list_size,), mass=True)


def validate_tradeoff_config(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    if cfg.time_slots < 1:
        raise ConfigError("--td must be >= 1")
    if not cfg.list_sizes:
        raise ConfigError("--list-sizes must list at least one value")
    _check_distinct("--list-sizes", cfg.list_sizes)
    _check_sphere(cfg, ("mld", "osd"), cfg.list_sizes)


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


def single_block(cfg: ExperimentConfig, snr_db: float, y=None):
    """Codebook, approximate weights and sphere table of channel 0 at one
    SNR, for the commands that work on a single block (sphere-table
    build, soft outputs).

    ``cfg`` is checked as a one-point ``sep`` run at ``snr_db``, then the
    observation ``y``, when given, against the length 2N; both before
    anything is drawn or enumerated.
    """
    cfg = replace(cfg, snr_db=(snr_db,))
    validate_sep_config(cfg)
    if y is not None and len(y) != 2 * cfg.antennas:
        raise ConfigError(f"--y must list {2 * cfg.antennas} entries, got {len(y)}")
    _, h_entries, cb = _channel_setup(cfg, 0)
    ws = compute_weights_approx(RealChannel(h_entries, snr_db_to_sigma_sq(snr_db)), cb.symbols)
    return cb, ws, build_sphere_table(cb, ws, SphereConfig(cfg.n_sub, cfg.list_size))


def _receivers(cb, ch: RealChannel, detectors) -> list:
    """Prepared receivers of one block, one per entry of ``detectors``: a
    full-search detector name, or a SphereConfig for the sphere decoder.

    Sphere entries share one n_sub, so one table at the longest list
    serves them all: a shorter list is a prefix of a longer one, both
    being the head of one (score, index) order. The longest list
    searches that table, and each shorter one a private copy of its
    prefix (see :func:`_check_sphere`)."""
    ws = None
    if any(d not in ("mld", "mwd-exact") for d in detectors):
        ws = compute_weights_approx(ch, cb.symbols)
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
            receivers.append(_prepared(ws, distance_affine, cb))
        elif det == "mwd-hs":
            receivers.append(_prepared(ws, _mismatch_affine, cb))
        else:
            head = longest
            if det.list_size < longest.list_size:
                head = replace(longest, indices=longest.indices[..., :det.list_size])
            receivers.append(_prepared(ws, distance_affine, cb, head))
    return receivers


def _distinct_rows(obs: np.ndarray):
    """(distinct, inverse) of a (T, 2N) block of float64 +/-1 rows: each
    distinct row once, and for every row the row of ``distinct`` it
    equals, so that ``distinct[inverse]`` is ``obs``.

    Rows are told apart by the GEMV key obs @ (-2^i), a sum of distinct
    powers of two, hence exact while 2N <= :data:`MAX_KEYED_OUTPUTS`; a
    wider block comes back as it is, with the identity ``inverse``. A lone
    distinct row comes back once: a receiver's winners do not depend on
    the rows that share its block (see :func:`_row_blocks`).
    """
    trials, width = obs.shape
    if width > MAX_KEYED_OUTPUTS:
        return obs, np.arange(trials)
    keys, inverse = np.unique(obs @ -np.exp2(np.arange(width)), return_inverse=True)
    rows = np.empty(len(keys), dtype=np.intp)
    rows[inverse] = np.arange(trials)  # one trial of each distinct row
    return obs[rows], inverse


def _draw_trials(ch: RealChannel, codebook: Codebook, trials: int, rng: np.random.Generator,
                 receivers):
    """Uniform codeword indices and their one-bit observations, yielded as
    (indices, distinct, inverse) per row block of :func:`_row_blocks`,
    sized for the widest :attr:`Receiver.row_values` of ``receivers`` (at
    least the 2N of an observation): ``distinct`` holds each distinct
    observation of the block once (float64 +/-1, the form receivers
    score) and ``distinct[inverse]`` is the block's observations, as
    :func:`_distinct_rows` gives them. Receivers are deterministic in the
    observation, so scoring ``distinct`` and gathering through
    ``inverse`` is scoring every trial.

    Draws all ``trials`` indices first (8 bytes a trial), then the noise
    of each block in turn, from ``rng``; the stream is consumed as by one
    draw of the whole batch, so the values do not depend on the blocks.
    Consume every block before ``rng`` is used again.
    """
    ks = rng.integers(0, codebook.size, size=trials)
    width = max(ch.n_outputs, *(rx.row_values for rx in receivers))
    for rows in _row_blocks(trials, width):
        noise = rng.standard_normal((rows.stop - rows.start, ch.n_outputs))
        noise *= ch.noise_std_per_component
        noise += ch.noiseless(codebook.symbols.vectors[ks[rows]])
        yield ks[rows], *_distinct_rows(quantize_sign(noise).astype(np.float64))


def _sphere_counts(ch: RealChannel, codebook: Codebook, trials: int, rng: np.random.Generator,
                   full, sphere) -> tuple[int, int, int]:
    """(list misses, losses, summed list length) of ``trials`` draws of
    :func:`_draw_trials`, counted block by block: a miss is a true index
    absent from its list, a loss a trial that the full search gets right
    and the sphere decoder gets wrong."""
    misses = losses = list_sum = 0
    for ks, distinct, inverse in _draw_trials(ch, codebook, trials, rng, (full, sphere)):
        cand = sphere.candidates(distinct)
        full_hat, _, _ = full.detect(distinct)
        sphere_hat, _, lens = sphere.detect(distinct, cand)
        # Gathered as (G*L, T), np.any combines whole rows, not one short row a trial.
        misses += int(np.count_nonzero(~np.any(cand.T[:, inverse] == ks, axis=0)))
        losses += int(np.count_nonzero((full_hat[inverse] == ks) & (sphere_hat[inverse] != ks)))
        list_sum += int(lens[inverse].sum())
    return misses, losses, list_sum


def _clamped_bound(inputs: SepBoundInputs) -> float:
    return float(min(1.0, max(0.0, sep_bound(inputs))))


def _detect_block(detectors, cfg: ExperimentConfig, rng: np.random.Generator, cb: Codebook,
                  ch: RealChannel) -> tuple:
    """(errors, summed list length) of each receiver of ``detectors`` (see
    :func:`_receivers`) in turn, flattened; every receiver sees the same
    observations."""
    receivers = _receivers(cb, ch, detectors)
    totals = np.zeros((len(receivers), 2), dtype=np.int64)
    for ks, distinct, inverse in _draw_trials(ch, cb, cfg.trials, rng, receivers):
        for i, rx in enumerate(receivers):
            winners, _, lens = rx.detect(distinct)
            totals[i] += np.count_nonzero(winners[inverse] != ks), lens[inverse].sum()
    return tuple(totals.ravel().tolist())


def _sep_block(cfg: ExperimentConfig, rng: np.random.Generator, cb: Codebook,
               ch: RealChannel) -> tuple:
    """(misses, losses, summed list length, clamped bound); the sphere
    receiver searches the table that the bound's sweep ranked."""
    ws = compute_weights_approx(ch, cb.symbols)
    inputs = SepBoundInputs.build(cb, ws, SphereConfig(cfg.n_sub, cfg.list_size))
    full, sphere = (_prepared(ws, distance_affine, cb, t) for t in (None, inputs.table))
    return (*_sphere_counts(ch, cb, cfg.trials, rng, full, sphere), _clamped_bound(inputs))


def _bound_block(cfg: ExperimentConfig, _rng, cb: Codebook, ch: RealChannel) -> tuple:
    """(clamped bound,); draws nothing."""
    ws = compute_weights_approx(ch, cb.symbols)
    return (_clamped_bound(SepBoundInputs.build(cb, ws, SphereConfig(cfg.n_sub, cfg.list_size))),)


def _channel_sweep(block, cfg: ExperimentConfig, channel_index: int) -> list:
    """``block(cfg, rng, codebook, channel)`` of one channel draw at each
    SNR of ``cfg`` in order, the trials continuing one generator stream."""
    rng, h_entries, cb = _channel_setup(cfg, channel_index)
    return [block(cfg, rng, cb, RealChannel(h_entries, snr_db_to_sigma_sq(snr)))
            for snr in cfg.snr_db]


def _blocks_at_once(cfg: ExperimentConfig) -> int:
    """Worker processes of :func:`_channel_totals`, a block each."""
    return min(cfg.workers, cfg.channels)


def _channel_totals(block, cfg: ExperimentConfig) -> list:
    """(SNR, totals) for each SNR of ``cfg`` in order: the tuples of
    :func:`_channel_sweep` over every channel index, in the
    :func:`_blocks_at_once` processes, summed elementwise in channel order."""
    sweep = partial(_channel_sweep, block, cfg)
    workers = _blocks_at_once(cfg)
    if workers <= 1:
        partials = [sweep(ci) for ci in range(cfg.channels)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(sweep, range(cfg.channels)))
    return [(snr, tuple(map(sum, zip(*point)))) for snr, point in zip(cfg.snr_db, zip(*partials))]


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
    totals = _channel_totals(partial(_detect_block, dets), cfg)
    return [_rate_record(cfg, det, snr, *point[2 * i:2 * i + 2])
            for i, det in enumerate(cfg.detectors) for snr, point in totals]


def run_sep_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """List-miss rate, loss rate, and the analytic bound, side by side.

    Emits rows labelled ``sep`` (true index missing from the list),
    ``p_loss`` (sphere decoder wrong while full search is right on the
    same observation), and ``bound`` (channel-averaged analytic bound,
    clamped to [0, 1]).
    """
    validate_sep_config(cfg)
    records = []
    for snr, (misses, losses, list_sum, bound_sum) in _channel_totals(_sep_block, cfg):
        records += [_rate_record(cfg, "sep", snr, misses, list_sum),
                    _rate_record(cfg, "p_loss", snr, losses, list_sum),
                    _bound_record(cfg, snr, bound_sum)]
    return records


def run_bound_sweep(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Channel-averaged analytic list-miss bound alone (no simulation);
    one ``bound`` row per SNR, as in :func:`run_sep_experiment`."""
    _check_common(cfg, draws=False)
    _check_sphere(cfg, (), (cfg.list_size,), mass=True)  # sep's checks; no form, no trial
    return [_bound_record(cfg, snr, *point) for snr, point in _channel_totals(_bound_block, cfg)]


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
    totals = _channel_totals(partial(_detect_block, dets), cfg)
    system = (cfg.users, cfg.antennas, make_constellation(cfg.modulation).size ** cfg.users,
              cfg.time_slots)
    _, mld_mults = complexity_model(ComplexityQuery("mld", *system))
    rel_complexity = [  # (preprocessing + detection) over mld, one per list size
        sum(complexity_model(ComplexityQuery("osd", *system, cfg.n_sub, lsz))) / mld_mults
        for lsz in cfg.list_sizes]
    records = []
    for snr, (mld_errors, mld_sum, *spheres) in totals:
        records.append(_rate_record(cfg, "mld", snr, mld_errors, mld_sum))
        for i, lsz in enumerate(cfg.list_sizes):
            errors, list_sum = spheres[2 * i:2 * i + 2]
            records.append(_rate_record(cfg, f"osd-l{lsz}", snr, errors, list_sum,
                                        rel_ser=(mld_errors / errors) if errors else None,
                                        rel_complexity=rel_complexity[i]))
    return records


def _rows_text(rows, columns, fmt: str) -> str:
    """The dicts ``rows`` as CSV of ``columns``, or as JSON of every key."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    return "".join(",".join(map(str, line)) + "\n"
                   for line in [columns, *([row[c] for c in columns] for row in rows)])


def records_to_csv(records) -> str:
    return _rows_text([r.output_fields() for r in records], CSV_COLUMNS, "csv")


def records_to_json(records) -> str:
    return _rows_text([r.output_fields() for r in records], CSV_COLUMNS, "json")


def write_rows(rows, columns, out: str | None, fmt: str = "csv") -> None:
    """Write :func:`_rows_text` to the file ``out``, or to stdout when
    ``out`` is None."""
    text = _rows_text(rows, columns, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_records(records, out: str | None, fmt: str = "csv") -> None:
    write_rows([r.output_fields() for r in records], CSV_COLUMNS, out, fmt)
