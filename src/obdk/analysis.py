"""Performance analysis: list-miss probability bound, complexity model,
and soft outputs.

The sphere decoder can only lose to the full-search rule when the true
codeword index misses the assembled list. ``sep_bound`` evaluates a
closed-form approximate upper bound on that miss probability for a fixed
channel; ``sep_empirical`` measures it (and the actual loss rate) by
simulation. ``complexity_model`` counts real multiplications for the
three detector families, and ``compute_llrs`` produces per-bit soft
outputs from the candidate list for 4-QAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .channel import RealChannel, quantize_sign
from .codebook import Codebook
from .detectors import Receiver, SphereConfig, SphereTable, _pattern_matrix, distance_affine
from .weights import WeightSet


@dataclass(frozen=True)
class SepBoundInputs:
    """Precomputed cross-codeword terms of the list-miss bound.

    For each group g, ``cross_dist[g][k, j]`` is the weighted Hamming
    distance between sub-codewords k and j measured with j's weights,
    and ``delta[g][k, j, i]`` is the flip sensitivity
    (w_j - wt_j) c_k c_j - (w_k - wt_k) at sub-position i. Together they
    give the distance of any flipped version of codeword k to codeword j
    as cross_dist + e . delta for a 0/1 flip pattern e.
    """

    codebook: Codebook
    weights: WeightSet
    config: SphereConfig
    cross_dist: tuple
    delta: tuple

    @classmethod
    def build(cls, codebook: Codebook, ws: WeightSet, cfg: SphereConfig) -> "SepBoundInputs":
        k_total = codebook.size
        if cfg.list_size > k_total - 1:
            raise ValueError("list size must leave at least one competing codeword")
        g_count = cfg.group_count(codebook.n_outputs)
        cross, delta = [], []
        for g in range(g_count):
            cols = slice(g * cfg.n_sub, (g + 1) * cfg.n_sub)
            c = codebook.codewords[:, cols].astype(np.float64)
            w = ws.w[:, cols]
            wt = ws.w_tilde[:, cols]
            diff = w - wt
            agreement = c[:, None, :] * c[None, :, :]          # (K, K, n_sub)
            mismatch = 0.5 * (1.0 - agreement)
            d = wt.sum(axis=1)[None, :] + np.einsum("ji,kji->kj", diff, mismatch)
            dl = diff[None, :, :] * agreement - diff[:, None, :]
            cross.append(d)
            delta.append(dl)
        return cls(codebook, ws, cfg, tuple(cross), tuple(delta))


def sep_bound(inputs: SepBoundInputs) -> float:
    """Approximate upper bound on the probability that the transmitted
    index misses the assembled list, for a fixed channel.

    Averages over codewords k the product over groups of the summed
    flip-pattern probabilities exp(-e.w - (1-e).wt), where a pattern e
    contributes only if the L-th smallest flipped distance to the
    competitors is still within the all-match distance of codeword k.
    Group sums are accumulated in log space.
    """
    cfg = inputs.config
    ws = inputs.weights
    k_total = inputs.codebook.size
    flips = 0.5 * (1.0 - _pattern_matrix(cfg.n_sub).astype(np.float64))  # (P, n_sub) in {0,1}
    total = 0.0
    for k in range(k_total):
        log_groups = 0.0
        for g in range(len(inputs.cross_dist)):
            cols = slice(g * cfg.n_sub, (g + 1) * cfg.n_sub)
            w = ws.w[k, cols]
            wt = ws.w_tilde[k, cols]
            others = np.arange(k_total) != k
            d = inputs.cross_dist[g][k, others]                 # (K-1,)
            dl = inputs.delta[g][k, others]                     # (K-1, n_sub)
            shifted = d[None, :] + flips @ dl.T                 # (P, K-1)
            d_min = np.partition(shifted, cfg.list_size - 1, axis=1)[:, cfg.list_size - 1]
            included = d_min <= wt.sum()
            if not np.any(included):
                log_groups = -np.inf
                break
            log_terms = -(flips @ w) - ((1.0 - flips) @ wt)
            log_groups += float(logsumexp(log_terms[included]))
        total += float(np.exp(log_groups))
    return total / k_total


def _draw_trials(ch: RealChannel, codebook: Codebook, trials: int, rng: np.random.Generator):
    """Uniform codeword indices and their one-bit observations (float64
    +/-1, the form receivers score); draws the indices first, then the
    noise, from ``rng``."""
    ks = rng.integers(0, codebook.size, size=trials)
    noise = rng.standard_normal((trials, ch.n_outputs)) * ch.noise_std_per_component
    obs = quantize_sign(codebook.symbols.vectors[ks] @ ch.entries.T + noise)
    return ks, obs.astype(np.float64)


def _sphere_counts(ks, obs, full: Receiver, sphere: Receiver) -> tuple[int, int, int]:
    """(list misses, losses, summed list length) of one batch: a miss is a
    true index absent from its list, a loss a trial that the full search
    gets right and the sphere decoder gets wrong."""
    cand = sphere.candidates(obs)
    full_hat, _, _ = full.detect(obs)
    sphere_hat, _, lens = sphere.detect(obs, cand)
    listed = np.any(cand == ks[:, None], axis=1)
    losses = (full_hat == ks) & (sphere_hat != ks)
    return int(np.count_nonzero(~listed)), int(np.count_nonzero(losses)), int(lens.sum())


def sep_empirical(
    ch: RealChannel,
    codebook: Codebook,
    ws: WeightSet,
    table: SphereTable,
    trials: int,
    rng: np.random.Generator,
):
    """Monte-Carlo estimate of (list-miss rate, loss rate vs full search).

    Draws a uniform codeword per trial, transmits it through the noisy
    channel, and counts how often the true index misses the assembled
    list and how often the sphere decoder errs while the full-search
    rule is correct on the same observation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks, obs = _draw_trials(ch, codebook, trials, rng)
    base, coef = distance_affine(codebook, ws)
    misses, losses, _ = _sphere_counts(ks, obs, Receiver(base, coef), Receiver(base, coef, table))
    return misses / trials, losses / trials


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
            raise ValueError(f"unknown detector for complexity model: {self.detector!r}")
        for field in (self.users, self.antennas, self.codebook_size, self.time_slots):
            if field < 1:
                raise ValueError("all complexity parameters must be positive")


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
        raise ValueError("the sphere decoder needs n_sub and list_size")
    if q.n_sub < 1 or q.list_size < 1:
        raise ValueError("n_sub and list_size must be positive")
    if (2 * n) % q.n_sub:
        raise ValueError("n_sub must divide 2N")
    pre = (1 << q.n_sub) * (4 * u + 14) * n * k
    det = (2 * n * q.list_size // q.n_sub) * (4 * u + 14) * n * td
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

    yf = np.asarray(y, dtype=np.float64)
    base, coef = distance_affine(codebook, ws)
    d = base[candidates] - coef[candidates] @ yf
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
