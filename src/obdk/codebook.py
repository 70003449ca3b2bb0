"""Constellations, exhaustive symbol-vector enumeration, and codebooks.

The codebook maps every transmit hypothesis x_k to the sign pattern
c_k = sign(H x_k), i.e. the observation the receiver would see without
noise. All detectors search over these codewords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RealChannel, _check_signs, quantize_sign, readonly_copy, reduce_by_fields

# Hard cap on the number of enumerated symbol vectors.
MAX_CODEBOOK_SIZE = 1 << 24

# Per-axis levels of each constellation scheme that make_constellation
# builds, a square QAM of those levels on both axes; None is {-1, +1} on
# the real axis alone.
_LEVELS = {
    "bpsk": None,
    "qam4": np.array([-1.0, 1.0]) / np.sqrt(2.0),
    "qam16": np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0),
}
SCHEMES = tuple(_LEVELS)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-power constellation over a read-only copy of its points.

    ``complex_points`` are ordered ascending by real part, then imaginary
    part; a scheme without levels keeps its imaginary parts at zero.
    """

    scheme: str
    complex_points: np.ndarray

    def __post_init__(self):
        pts = readonly_copy(self.complex_points, np.complex128)
        power = np.mean(np.abs(pts) ** 2)
        if abs(power - 1.0) > 1e-12:
            raise ValueError(f"constellation average power is {power}, expected 1")
        object.__setattr__(self, "complex_points", pts)

    __reduce__ = reduce_by_fields

    @property
    def size(self) -> int:
        """Number of complex points, M."""
        return len(self.complex_points)


def make_constellation(scheme: str) -> Constellation:
    """Build one of the unit-power constellations of :data:`SCHEMES`
    (any letter case) from its levels in ``_LEVELS``."""
    key = scheme.lower()
    if key not in _LEVELS:
        raise ValueError(f"unsupported constellation scheme: {scheme!r}")
    levels = _LEVELS[key]
    if levels is None:
        points = np.array([-1.0 + 0j, 1.0 + 0j])
    else:
        points = np.array([r + 1j * i for r in levels for i in levels])
    return Constellation(key, points)


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """All K = M^U transmit hypotheses as real vectors of length 2U.

    Element order is [Re(x_1)..Re(x_U), Im(x_1)..Im(x_U)]. The index
    order is fixed: user 1 is the most significant digit and each user's
    symbol runs from the largest constellation point (descending real,
    then descending imaginary) downwards, so index 0 is the all-largest
    vector. Indices are stable across runs. ``vectors`` is a read-only
    (K, 2U) copy of the array passed in.
    """

    vectors: np.ndarray
    constellation: Constellation
    users: int

    def __post_init__(self):
        object.__setattr__(self, "vectors", readonly_copy(self.vectors))
        if self.vectors.ndim != 2 or self.vectors.shape[1] != 2 * self.users:
            raise ValueError(f"symbol vectors have shape {self.vectors.shape}, expected (K, 2U)")

    __reduce__ = reduce_by_fields

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def enumerate_symbol_vectors(c: Constellation, u: int) -> SymbolTable:
    """Enumerate all M^u symbol vectors in the fixed mixed-radix order;
    more than :data:`MAX_CODEBOOK_SIZE` is a ValueError."""
    if u < 1:
        raise ValueError("user count must be >= 1")
    m = c.size
    k = m ** u
    if k > MAX_CODEBOOK_SIZE:
        raise ValueError(f"codebook size {k} exceeds the cap of {MAX_CODEBOOK_SIZE}")
    # Descending traversal of the ascending point list; digit 0 of every
    # user is the largest point.
    points_desc = c.complex_points[::-1]
    digits = np.unravel_index(np.arange(k), (m,) * u)
    symbols = np.stack([points_desc[d] for d in digits], axis=1)
    vectors = np.concatenate([symbols.real, symbols.imag], axis=1)
    return SymbolTable(vectors, c, u)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Sign codewords c_k = sign(H x_k), aligned with their symbol table.

    ``codewords`` is a read-only copy of the array passed in: a K x 2N
    array of +/-1 entries, one row per symbol vector.
    """

    codewords: np.ndarray
    symbols: SymbolTable

    def __post_init__(self):
        cw = readonly_copy(self.codewords)
        object.__setattr__(self, "codewords", cw)
        if cw.ndim != 2 or len(cw) != self.symbols.size:
            raise ValueError(
                f"codewords have shape {cw.shape}, expected ({self.symbols.size}, 2N)"
            )
        _check_signs(cw, "codeword")

    __reduce__ = reduce_by_fields

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.codewords.shape[1]


def build_codebook(ch: RealChannel, s: SymbolTable) -> Codebook:
    return Codebook(quantize_sign(ch.noiseless(s.vectors)), s)
