"""Performance analysis: list-miss probability bound, complexity model,
and soft outputs.

The sphere decoder can only lose to the full-search rule when the true
codeword index misses the assembled list, so the list-miss probability
bounds that loss. ``sep_bound`` computes it for a fixed channel from the
sphere table: with exact weights the value is the decoder's exact
list-miss probability; approximate weights make it approximate and can
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
from .detectors import (ConfigError, SphereConfig, SphereTable, _prepared, _sub_scores,
                        build_sphere_table, distance_affine)
from .weights import WeightSet


@dataclass(frozen=True)
class SepBoundInputs:
    """What the list-miss bound reads: a codebook, its weights and the
    sphere table built from them."""

    codebook: Codebook
    weights: WeightSet
    table: SphereTable

    @classmethod
    def build(cls, codebook: Codebook, ws: WeightSet, cfg: SphereConfig) -> "SepBoundInputs":
        return cls(codebook, ws, build_sphere_table(codebook, ws, cfg))


def sep_bound(inputs: SepBoundInputs) -> float:
    """Probability that the transmitted index misses the assembled list,
    for a fixed channel; the sphere decoder can only lose to the full
    search on such a miss, so it also bounds that loss.

    The mean over codewords k of the product over groups g of
    sum_{p : k not in table[g, p]} exp(-d_k^g(p)), where d_k^g(p) is the
    weighted distance of pattern p to k's g-th sub-codeword. With exact
    weights exp(-d_k^g(p)) is the probability that k's g-th sub-vector
    is received as p, so the value is the decoder's exact list-miss
    probability, ties included. Approximate weights make it approximate,
    and can push it above 1.
    """
    table = inputs.table
    unlisted = np.zeros((table.group_count, table.codebook_size))
    for g, rows, d in _sub_scores(inputs.codebook, inputs.weights, table.n_sub):
        mass = np.exp(np.negative(d, out=d), out=d)
        np.put_along_axis(mass, table.indices[g, rows], 0.0, axis=1)
        unlisted[g] += mass.sum(axis=0)
    return float(unlisted.prod(axis=0).mean())


@dataclass(frozen=True)
class ComplexityQuery:
    """Inputs of the real-multiplication count model."""

    detector: str
    users: int
    antennas: int
    codebook_size: int
    time_slots: int
    n_sub: int | None = None
    list_size: int | None = None

    def __post_init__(self):
        if self.detector not in ("mld", "mwd", "osd"):
            raise ConfigError(f"unknown detector for complexity model: {self.detector!r}")
        for field in (self.users, self.antennas, self.codebook_size, self.time_slots):
            if field < 1:
                raise ConfigError("all complexity parameters must be positive")


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
    if q.n_sub is None or q.list_size is None:
        raise ConfigError("the sphere decoder needs n_sub and list_size")
    groups = SphereConfig(q.n_sub, q.list_size).group_count(2 * n, k)
    pre = (1 << q.n_sub) * (4 * u + 14) * n * k
    det = groups * q.list_size * (4 * u + 14) * n * td
    return pre, det


def _symbol_class(vectors: np.ndarray, user: int, users: int) -> np.ndarray:
    """4-QAM quadrant class per codeword: 2*[Re < 0] + [Im < 0]."""
    re = vectors[:, user]
    im = vectors[:, users + user]
    return 2 * (re < 0).astype(np.int64) + (im < 0).astype(np.int64)


def compute_llrs(y, candidates, codebook: Codebook, ws: WeightSet, user: int):
    """Per-bit soft outputs for one user from the candidate list (4-QAM).

    The list is split into the four quadrant classes of the user's
    symbol; each bit's LLR is the minimum distance over its zero classes
    minus the minimum over its one classes, so a positive value favors
    bit one (positive real part for the odd bit, positive imaginary part
    for the even bit). A class with no candidates contributes the
    saturation value max(dist) + 2N * mean(w).
    """
    table = codebook.symbols
    if table.constellation.scheme != "qam4":
        raise ValueError("soft outputs are defined for the qam4 constellation only")
    if not 0 <= user < table.users:
        raise ValueError(f"user index {user} out of range")
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("candidate list must not be empty")

    full = _prepared(ws, distance_affine, codebook)
    d = full.base[candidates] - full.coef[candidates] @ np.asarray(y, dtype=np.float64)
    saturation = float(d.max()) + codebook.n_outputs * float(ws.w.mean())

    classes = _symbol_class(table.vectors, user, table.users)[candidates]
    class_min = np.full(4, saturation)
    for i in range(4):
        sel = classes == i
        if np.any(sel):
            class_min[i] = d[sel].min()

    llr_odd = min(class_min[2], class_min[3]) - min(class_min[0], class_min[1])
    llr_even = min(class_min[1], class_min[3]) - min(class_min[0], class_min[2])
    return float(llr_odd), float(llr_even)
