"""Units of work the benchmark times, driven only through obdk's public API.

A *unit* is one ``cli_main`` invocation (CLI workloads) or one pass of
observations over a prepared coherence block (``detect`` workloads).
Every obdk call goes through a module attribute looked up at call time
(``obdk.detect_osd``, ``obdk.cli.cli_main``), so an installed tracer sees
it.

All durations are CPU time of the whole process, every thread included
(``cpu_ns``). The work is single-threaded today (one BLAS thread,
``--workers 1``), so on an unshared core this equals wall time; on a
shared virtual machine it leaves out the time the hypervisor gives the
core to someone else, which otherwise puts multi-millisecond spikes into
single-call latencies. Work a later change moves onto other threads of
the process still counts.

The host's speed itself drifts by tens of percent over seconds to
minutes (neighbours contending for the shared caches and cores). So
every observation of a detect pass is followed by one call of
``reference_kernel``, a fixed computation owned by the benchmark, whose
CPU time tracks the host's speed and nothing else; ``measure`` scales a
run's timings by it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from dataclasses import dataclass

import numpy as np

import obdk
import obdk.cli

from check import detect_records, parse_csv

cpu_ns = time.process_time_ns


def _flag(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def cli_obs(argv) -> int:
    """Observations one CLI invocation detects: channels x trials x SNR points."""
    return (int(_flag(argv, "--channels")) * int(_flag(argv, "--trials"))
            * len(_flag(argv, "--snr-db").split(",")))


def cli_system(argv) -> dict:
    """The system a CLI invocation simulates, read from its flags."""
    return {"users": int(_flag(argv, "-U")), "antennas": int(_flag(argv, "-N")),
            "mod": _flag(argv, "--mod"), "ns": int(_flag(argv, "--ns")),
            "list_size": int(_flag(argv, "--list-size"))}


@dataclass
class CliResult:
    text: str
    records: list
    seconds: float


def run_cli(argv, seed: int) -> CliResult:
    """One in-process ``cli_main`` call writing CSV to a buffer."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = cpu_ns()
        rc = obdk.cli.cli_main([*argv, "--seed", str(seed)])
        seconds = (cpu_ns() - t0) / 1e9
    text = buf.getvalue()
    return CliResult(text, parse_csv(text) if rc == 0 else [], seconds)


@dataclass
class Block:
    """One prepared coherence block: channel, codebook, weights, sphere table."""

    ch: object
    symbols: object
    codebook: object
    weights: object
    table: object


def prepare_block(system: dict, seed: int) -> Block:
    rng = obdk.stream_rng(seed, 0)
    hbar = obdk.sample_rayleigh_channel(system["antennas"], system["users"], rng)
    ch = obdk.RealChannel.from_complex(hbar, obdk.snr_db_to_sigma_sq(system["snr_db"]))
    symbols = obdk.enumerate_symbol_vectors(obdk.make_constellation(system["mod"]),
                                            system["users"])
    codebook = obdk.build_codebook(ch, symbols)
    weights = obdk.compute_weights_approx(ch, symbols)
    table = obdk.build_sphere_table(codebook, weights,
                                    obdk.SphereConfig(system["ns"], system["list_size"]))
    return Block(ch, symbols, codebook, weights, table)


def first_call(w: dict) -> None:
    """The workload's first call, on a tiny input: pays lazy set-up costs."""
    if w["kind"] == "cli":
        run_cli(w["first_call_argv"], 0)
    else:
        detect_pass(prepare_block(w["first_call_system"], 0), 0, 1)


@functools.lru_cache(maxsize=None)
def reference_arrays(size: int, n_outputs: int) -> tuple:
    """Fixed inputs of ``reference_kernel`` for a block of ``size``
    codewords of ``n_outputs`` signs: random int8 signs and float64
    weights from a fixed seed, independent of obdk."""
    rng = np.random.default_rng(0)
    signs = np.where(rng.random((size, n_outputs)) < 0.5, -1, 1).astype(np.int8)
    return signs, 1.0 + rng.random((size, n_outputs)), rng.random((size, n_outputs))


def reference_kernel(arrays: tuple, yf) -> int:
    """The yardstick of host speed: the weighted-distance arithmetic of a
    full search, as obdk's detect_mwd did it when the benchmark was made,
    on ``reference_arrays``. It is the benchmark's own code, so no change
    to obdk moves it."""
    signs, w, wt = arrays
    c = signs.astype(np.float64)
    diff = w - wt
    base = wt.sum(axis=1) + 0.5 * diff.sum(axis=1)
    coef = 0.5 * c * diff
    return int(np.argmin(base - coef @ yf))


@dataclass
class DetectResult:
    outcomes: list
    records: list
    seconds: float
    osd_ns: list
    mwd_ns: list
    kernel_ns: list


def detect_pass(block: Block, seed: int, n_obs: int) -> DetectResult:
    """``n_obs`` observations of the block, each through transmit_and_quantize,
    detect_osd and detect_mwd, then one reference-kernel call on the same
    observation. The observations depend only on (seed, n_obs). ``seconds``
    covers the obdk calls only."""
    rng = obdk.stream_rng(seed, 1)
    ks = rng.integers(0, block.codebook.size, size=n_obs)
    vectors = block.symbols.vectors
    reference = reference_arrays(block.codebook.size, block.codebook.n_outputs)
    clock = cpu_ns
    outcomes, osd_ns, mwd_ns, kernel_ns = [], [], [], []
    busy = 0
    for k in ks:
        t = clock()
        y = obdk.transmit_and_quantize(block.ch, vectors[k], rng)
        a = clock()
        osd = obdk.detect_osd(y, block.table, block.codebook, block.weights)
        b = clock()
        mwd = obdk.detect_mwd(y, block.codebook, block.weights)
        c = clock()
        reference_kernel(reference, np.asarray(y, dtype=np.float64))
        d = clock()
        busy += c - t
        osd_ns.append(b - a)
        mwd_ns.append(c - b)
        kernel_ns.append(d - c)
        outcomes.append((int(k), osd.index, osd.list_len, osd.distance, mwd.index, mwd.distance))
    return DetectResult(outcomes, detect_records(outcomes), busy / 1e9, osd_ns, mwd_ns,
                        kernel_ns)
