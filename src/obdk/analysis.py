"""Performance analysis: list-miss probability bound, complexity model,
and soft outputs.

The sphere decoder can only lose to the full-search rule when the true
codeword index misses the assembled list, so the list-miss probability
bounds that loss. ``SepBoundInputs.build`` ranks the sphere table and
sums the unlisted mass in one sweep of the sub-codeword scores, and
``sep_bound`` reduces that mass to the probability for a fixed channel:
with exact weights the value is the decoder's exact list-miss
probability; approximate weights make it approximate and can
push it above 1 (the experiments clamp it to [0, 1]); ``experiments``
measures the miss and loss rates themselves by simulation.
``complexity_model`` counts real multiplications for the three detector
families, and ``compute_llrs`` produces per-bit soft outputs from the
candidate list for 4-QAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .detectors import (ConfigError, SphereConfig, SphereTable, _observation, _prepared, _rank,
                        distance_affine)
from .weights import WeightSet


@dataclass(frozen=True, eq=False)
class SepBoundInputs:
    """What the list-miss bound reads: a sphere table and, for each group
    g and codeword k, the unlisted mass sum_{p : k not in table[g, p]}
    exp(-d_k^g(p)), shape (G, K)."""

    table: SphereTable
    unlisted: np.ndarray

    @classmethod
    def build(cls, codebook: Codebook, ws: WeightSet, cfg: SphereConfig) -> "SepBoundInputs":
        """Rank the table and add up the unlisted mass in one sweep of the
        sub-codeword scores (see ``detectors._rank``), building no distance form."""
        unlisted = np.zeros((cfg.group_count(codebook.n_outputs, codebook.size), codebook.size))
        return cls(_rank(codebook, ws, cfg, unlisted), unlisted)


def sep_bound(inputs: SepBoundInputs) -> float:
    """Probability that the transmitted index misses the assembled list,
    for a fixed channel; the sphere decoder can only lose to the full
    search on such a miss, so it also bounds that loss.

    The mean over codewords k of the product over groups g of the
    unlisted mass sum_{p : k not in table[g, p]} exp(-d_k^g(p)), where
    d_k^g(p) is the weighted distance of pattern p to k's g-th
    sub-codeword; :meth:`SepBoundInputs.build` sums it while ranking the
    table, so this only reduces it. With exact weights exp(-d_k^g(p)) is
    the probability that k's g-th sub-vector is received as p, so the
    value is the decoder's exact list-miss probability, ties included.
    Approximate weights make it approximate, and can push it above 1.
    """
    return float(inputs.unlisted.prod(axis=0).mean())


# Detector families of the multiplication-count model.
COMPLEXITY_DETECTORS = ("mld", "mwd", "osd")


@dataclass(frozen=True)
class ComplexityQuery:
    """Inputs of the real-multiplication count model; ``n_sub`` and
    ``list_size`` are given for the sphere decoder (``osd``) alone."""

    detector: str
    users: int
    antennas: int
    codebook_size: int
    time_slots: int
    n_sub: int | None = None
    list_size: int | None = None

    def __post_init__(self):
        if self.detector not in COMPLEXITY_DETECTORS:
            raise ConfigError(f"unknown detector for complexity model: {self.detector!r}")
        for field in (self.users, self.antennas, self.codebook_size, self.time_slots):
            if field < 1:
                raise ConfigError("all complexity parameters must be positive")
        sphere = (self.n_sub is not None, self.list_size is not None)
        if self.detector == "osd" and not all(sphere):
            raise ConfigError("the sphere decoder needs n_sub and list_size")
        if self.detector != "osd" and any(sphere):
            raise ConfigError("--ns/--list-size are only valid when 'osd' is selected")


def complexity_model(q: ComplexityQuery) -> tuple[int, int]:
    """(preprocessing, per-block detection) real multiplications.

    Exact integer arithmetic. The sphere decoder's detection count uses
    the worst-case list length G*L = 2NL / n_sub.
    """
    u, n, k, td = q.users, q.antennas, q.codebook_size, q.time_slots
    if q.detector == "mld":
        return 0, (4 * u + 6) * n * k * td
    if q.detector == "mwd":
        return 0, (4 * u + 14) * n * k * td
    groups = SphereConfig(q.n_sub, q.list_size).group_count(2 * n, k)
    pre = (1 << q.n_sub) * (4 * u + 14) * n * k
    det = groups * q.list_size * (4 * u + 14) * n * td
    return pre, det


def compute_llrs(y, candidates, codebook: Codebook, ws: WeightSet, user: int):
    """Per-bit soft outputs for one user from the candidate list (4-QAM).

    Each bit's LLR is the minimum distance over the candidates whose
    axis of the user's symbol is negative (the real part for the odd
    bit, the imaginary part for the even bit) minus the minimum over the
    rest, so a positive value favors bit one (a positive part). A side
    with no candidates contributes the saturation value max(dist) + 2N *
    mean(w). ``y`` must be +/-1 of length 2N, and ``candidates`` a
    non-empty 1-D integer array of indices in [0, K).
    """
    table = codebook.symbols
    if table.constellation.scheme != "qam4":
        raise ValueError("soft outputs are defined for the qam4 constellation only")
    if not 0 <= user < table.users:
        raise ValueError(f"user index {user} out of range")
    candidates = np.asarray(candidates)
    if candidates.size == 0:
        raise ValueError("candidate list must not be empty")
    if (candidates.ndim != 1 or not np.issubdtype(candidates.dtype, np.integer)
            or candidates.min() < 0 or candidates.max() >= codebook.size):
        raise ValueError(f"candidates must be a 1-D integer array in [0, {codebook.size})")
    y = np.asarray(_observation(y, codebook.n_outputs), dtype=np.float64)

    full = _prepared(ws, distance_affine, codebook)
    d = full.base[candidates] - full.coef[candidates] @ y
    saturation = float(d.max()) + codebook.n_outputs * float(ws.w.mean())
    llrs = []
    for axis in (user, table.users + user):  # real part, then imaginary part
        neg = table.vectors[candidates, axis] < 0
        llrs.append(float(d[neg].min(initial=saturation) - d[~neg].min(initial=saturation)))
    return tuple(llrs)
