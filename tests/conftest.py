import numpy as np

import obdk.analysis
import obdk.detectors
import obdk.experiments
from obdk import (
    ComplexChannel,
    RealChannel,
    build_codebook,
    enumerate_symbol_vectors,
    make_constellation,
    sample_rayleigh_channel,
    stream_rng,
)

# Hand-worked 4x2 BPSK system used across the suite: two users, two
# receive antennas, channel rows (0.8, 0.2), (0.1, 0.9), (-0.7, 0.3),
# (0.4, -0.6). Those rows are the first two columns of the real
# expansion of this complex matrix; BPSK symbols have zero imaginary
# parts, so the remaining columns never contribute.
EXAMPLE_HBAR = np.array([[0.8 - 0.7j, 0.2 + 0.3j], [0.1 + 0.4j, 0.9 - 0.6j]])

# Codewords of that system, index order [1,1], [1,-1], [-1,1], [-1,-1].
EXAMPLE_CODEWORDS = np.array(
    [[1, 1, -1, -1], [1, -1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]], dtype=np.int8
)


def example_channel(sigma_sq: float) -> RealChannel:
    return RealChannel.from_complex(ComplexChannel(EXAMPLE_HBAR), sigma_sq)


def example_system(sigma_sq: float):
    ch = example_channel(sigma_sq)
    table = enumerate_symbol_vectors(make_constellation("bpsk"), 2)
    return ch, table, build_codebook(ch, table)


def random_system(users: int, antennas: int, scheme: str, sigma_sq: float, seed: int = 0):
    rng = stream_rng(seed, 0)
    hbar = sample_rayleigh_channel(antennas, users, rng)
    ch = RealChannel.from_complex(hbar, sigma_sq)
    table = enumerate_symbol_vectors(make_constellation(scheme), users)
    return ch, table, build_codebook(ch, table)


def count_calls(monkeypatch, name: str) -> list:
    """Patch every binding of ``obdk.detectors.<name>`` in the package so
    that each call appends its arguments to the returned list."""
    original = getattr(obdk.detectors, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (obdk.detectors, obdk.analysis, obdk.experiments):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls
