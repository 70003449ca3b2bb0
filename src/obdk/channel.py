"""Channel models, noise generation, and one-bit quantization.

A complex N x U uplink channel is mirrored into its stacked real form
(2N x 2U) so that the sign quantizer acts separately on the real and
imaginary parts of each receive antenna. Quantized observations are
+/-1 vectors of length 2N, stored as int8 arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

# Noise variances below this (SNR above 120 dB) are clamped to it;
# sigma^2 = 0 itself is rejected.
SIGMA_SQ_FLOOR = 1e-12


def readonly_copy(a, dtype=None) -> np.ndarray:
    """A private copy of ``a`` that refuses writes.

    The frozen containers below hold their arrays this way, so no caller
    can change a channel, codebook or weight set after it is built, and
    forms prepared from one (see ``detectors``) cannot go stale.
    """
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def reduce_by_fields(obj):
    """``__reduce__`` of those containers: an unpickled copy is built
    through ``__init__`` again, so its arrays are read-only too, and
    what the original keeps beside its fields (prepared receivers) is
    not sent."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Streams are independent Philox keys, so workers can own disjoint
    streams (e.g. one per channel realization) and results do not depend
    on how work is distributed. ``seed`` and ``stream`` must be integers
    in [0, 2^64) (see :func:`_seed_index`).
    """
    key = np.array([_seed_index(seed), _seed_index(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _seed_index(value, name: str = "seed") -> int:
    """``value`` as an int, or ValueError naming ``name`` unless it is an
    integer in [0, 2^64): the key is built of uint64 words, where 1.5
    would key another seed's (or stream's) values and -1 fail in numpy."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return value


@dataclass(frozen=True, eq=False)
class ComplexChannel:
    """Complex channel matrix, N receive antennas x U single-antenna users;
    ``entries`` is a read-only copy of the matrix passed in."""

    entries: np.ndarray

    def __post_init__(self):
        h = readonly_copy(self.entries, np.complex128)
        if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError("channel matrix must be 2-D with positive dimensions")
        if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
            raise ValueError("channel matrix contains non-finite entries")
        object.__setattr__(self, "entries", h)

    __reduce__ = reduce_by_fields


@dataclass(frozen=True, eq=False)
class RealChannel:
    """Real-form channel (2N x 2U) plus the complex-noise variance sigma^2.

    Each real noise component has variance sigma^2 / 2. ``entries`` is a
    read-only copy of the matrix passed in.
    """

    entries: np.ndarray
    noise_variance: float

    def __post_init__(self):
        h = readonly_copy(self.entries, np.float64)
        if h.ndim != 2 or h.shape[0] % 2 or h.shape[1] % 2 or h.size == 0:
            raise ValueError("real channel matrix must be 2-D with even dimensions")
        if not np.all(np.isfinite(h)):
            raise ValueError("real channel matrix contains non-finite entries")
        s2 = float(self.noise_variance)
        if not np.isfinite(s2) or s2 <= 0.0:
            raise ValueError("noise variance must be finite and positive")
        object.__setattr__(self, "entries", h)
        object.__setattr__(self, "noise_variance", max(s2, SIGMA_SQ_FLOOR))

    __reduce__ = reduce_by_fields

    @classmethod
    def from_complex(cls, ch: ComplexChannel, noise_variance: float) -> "RealChannel":
        return cls(expand_real_channel(ch), noise_variance)

    @property
    def n_outputs(self) -> int:
        """Number of real observation dimensions, 2N."""
        return self.entries.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of real symbol dimensions, 2U."""
        return self.entries.shape[1]

    @property
    def noise_std_per_component(self) -> float:
        return float(np.sqrt(self.noise_variance / 2.0))

    def noiseless(self, vectors: np.ndarray) -> np.ndarray:
        """The noiseless outputs H x of each row x of the (T, 2U) array
        ``vectors``, as a (T, 2N) array."""
        if vectors.shape[1] != self.n_inputs:
            raise ValueError(f"symbol vectors have {vectors.shape[1]} dimensions, "
                             f"channel expects {self.n_inputs}")
        return vectors @ self.entries.T


def expand_real_channel(ch: ComplexChannel) -> np.ndarray:
    """Stack a complex channel into its real 2N x 2U block form
    [[Re, -Im], [Im, Re]]."""
    re, im = ch.entries.real, ch.entries.imag
    return np.block([[re, -im], [im, re]])


def sample_rayleigh_channel(n: int, u: int, rng: np.random.Generator) -> ComplexChannel:
    """Draw an N x U channel with i.i.d. unit-variance circularly-symmetric
    complex Gaussian entries (real/imag parts each have variance 1/2)."""
    if n < 1 or u < 1:
        raise ValueError("channel dimensions must be >= 1")
    scale = np.sqrt(0.5)
    re = rng.standard_normal((n, u)) * scale
    im = rng.standard_normal((n, u)) * scale
    return ComplexChannel(re + 1j * im)


def quantize_sign(v) -> np.ndarray:
    """Elementwise one-bit quantizer: positive and zero map to +1, negative
    to -1."""
    a = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot quantize non-finite values")
    out = np.array(a >= 0.0, dtype=np.int8)  # -0.0 >= 0.0, so it maps to +1
    out *= 2
    out -= 1
    return out


def _check_signs(a: np.ndarray, what: str) -> None:
    """Reject ``a`` unless every entry is a real +1 or -1: the affine
    forms score a 0/1 bit form, a scaled copy or the real part of a
    complex one without complaint, but the result is not a distance."""
    if a.dtype.kind not in "biuf" or np.count_nonzero(np.abs(a) != 1):  # |1j| is 1 too
        raise ValueError(f"{what} entries must be real +1 or -1")


def transmit_and_quantize(ch: RealChannel, x, rng: np.random.Generator) -> np.ndarray:
    """One channel use: returns sign(H x + z) with z i.i.d. real Gaussian of
    variance sigma^2 / 2 per component."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ch.n_inputs,):
        raise ValueError(
            f"symbol vector has shape {x.shape}, expected ({ch.n_inputs},)"
        )
    z = rng.standard_normal(ch.n_outputs) * ch.noise_std_per_component
    return quantize_sign(ch.entries @ x + z)

