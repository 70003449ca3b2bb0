"""Weighted-Hamming detectors and the sphere-list decoder.

Four detectors share one scoring core:

* maximum-likelihood detection (sum of log Gaussian tails),
* minimum weighted-Hamming-distance detection with exact weights
  (identical decisions to maximum likelihood),
* the same rule with closed-form approximate weights,
* its high-SNR variant that drops the match weights entirely.

The sphere decoder precomputes, for every possible sub-vector pattern of
the observation, the indices of the L nearest sub-codewords; at
detection time the candidate list is the union of the looked-up
sub-lists and the weighted-distance rule runs only on that list.

Whole-codeword distances are affine in the +/-1 observation, d_k(y) =
base_k - coef_k . y, so every detector is one :class:`Receiver`: the
affine form (plus the table for the sphere decoder) prepared once per
coherence block; ties always resolve to the smallest codeword index.
A weight set (or channel) keeps the receivers prepared from it, one per
form, while the codebook stays the same. A weight set holds one
distance form, built by whichever of :func:`build_sphere_table`,
``detect_*`` or ``compute_llrs`` runs first (``SepBoundInputs.build``
builds none); ``detect_osd`` keeps beside it a sphere receiver over that
form, until another codebook or table replaces it. The arrays of those
objects and of sphere tables are read-only, so a kept receiver cannot go stale.
Every sphere search looks its lists up by pattern keys from one float64
product, exact in any summation order (see ``_candidates``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import RealChannel, _check_signs, readonly_copy, reduce_by_fields
from .codebook import Codebook
from .weights import WeightSet, log_q

# Dense sub-list tables hold G * 2^n_sub * L indices; n_sub is capped to
# keep the pattern axis bounded.
MAX_SUBVECTOR_DIM = 20

# Largest block of float64 values that one temporary of sub-codeword
# scoring, a receiver's batch or a trial draw holds at once (4 MB);
# larger work runs in row blocks (see _row_blocks).
BLOCK_VALUES = 1 << 19

_TABLE_MAGIC = b"OSD1"

class ConfigError(ValueError):
    """Invalid configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class SphereConfig:
    """Sub-vector dimension and per-pattern list size of the sphere decoder.

    Checks the sphere rules for every entry point, raising ConfigError:
    n_sub in [1, :data:`MAX_SUBVECTOR_DIM`] on construction; n_sub
    dividing 2N and L in [1, K) in :meth:`group_count`."""

    n_sub: int
    list_size: int

    def __post_init__(self):
        if not 1 <= self.n_sub <= MAX_SUBVECTOR_DIM:
            raise ConfigError(f"--ns must lie in [1, {MAX_SUBVECTOR_DIM}], got {self.n_sub}")

    def group_count(self, n_outputs: int, k_total: int) -> int:
        """G = 2N / n_sub for 2N = ``n_outputs`` and K = ``k_total`` codewords."""
        if n_outputs % self.n_sub:
            raise ConfigError(
                f"--ns {self.n_sub} must divide the observation length 2N = {n_outputs}"
            )
        if not 1 <= self.list_size < k_total:
            raise ConfigError(f"list size {self.list_size} must lie in [1, K) with K = {k_total}")
        return n_outputs // self.n_sub


@dataclass(frozen=True)
class DetectionResult:
    """Winning codeword index, its score, and the searched list length.

    ``distance`` is the achieved weighted Hamming distance (the
    log-likelihood for maximum-likelihood detection); ``list_len`` is K
    for full-search detectors.
    """

    index: int
    distance: float
    list_len: int


@dataclass(frozen=True, eq=False)
class SphereTable:
    """Per-pattern nearest sub-codeword lists ``indices``, shape (G, 2^n_sub, L).

    Entry (g, p) lists the codeword indices (zero-based, ascending
    distance, ties by index) whose g-th sub-codeword is nearest to the
    p-th sub-vector pattern. Patterns are numbered by mapping element i
    of the +/-1 sub-vector to bit i via (1 - y_i) / 2, little-endian.
    ``indices`` is a read-only copy of the array passed in, whose shape,
    integer dtype and entries are checked, so a receiver kept for a table
    (see :func:`_prepared`) cannot go stale.
    """

    indices: np.ndarray
    codebook_size: int

    def __post_init__(self):
        object.__setattr__(self, "indices", readonly_copy(self.indices))
        shape = self.indices.shape
        if (len(shape) != 3 or shape[0] < 1 or shape[1] < 2 or shape[1] & (shape[1] - 1)
                or shape[2] < 1):
            raise ValueError(
                f"sphere-table indices have shape {shape}, expected (G, 2^n_sub, L) "
                "with G >= 1, n_sub >= 1 and L >= 1"
            )
        if not np.issubdtype(self.indices.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError(f"sphere-table indices have dtype {self.indices.dtype}, not integer")
        if np.min(self.indices) < 0 or np.max(self.indices) >= self.codebook_size:
            raise ValueError("table entry out of codebook range")
        # The list of group g's sub-vector y_g is row y_g . weights +
        # offsets[g] of ``rows`` (see _candidates).
        weights = -np.exp2(np.arange(self.n_sub) - 1.0)
        offsets = (shape[1] - 1) / 2 + shape[1] * np.arange(shape[0])
        object.__setattr__(self, "_lookup", (weights, offsets, self.indices.reshape(-1, shape[2])))

    __reduce__ = reduce_by_fields

    @property
    def group_count(self) -> int:
        return self.indices.shape[0]

    @property
    def n_sub(self) -> int:
        return self.indices.shape[1].bit_length() - 1

    @property
    def list_size(self) -> int:
        return self.indices.shape[2]

    @property
    def n_outputs(self) -> int:
        return self.group_count * self.n_sub


def _row_blocks(n_rows: int, width: int):
    """Balanced, in-order slices that cover ``range(n_rows)``, as few as
    keep each within ``max(1, BLOCK_VALUES // width)`` rows of ``width``
    values; an empty batch gives one (empty) block. A row's GEMM score
    may differ in its last bits with its block, its winner does not (see
    :class:`Receiver`)."""
    cap = max(1, BLOCK_VALUES // max(width, 1))
    count = max(1, -(-n_rows // cap))
    size, extra = divmod(n_rows, count)
    start = 0
    for i in range(count):
        stop = start + size + (i < extra)
        yield slice(start, stop)
        start = stop


def weighted_hamming(y, c, w, w_tilde) -> float:
    """Sum of w_i over sign mismatches plus w_tilde_i over sign matches;
    ``y`` and ``c`` must be real +/-1."""
    y = np.asarray(y)
    c = np.asarray(c)
    w = np.asarray(w, dtype=np.float64)
    w_tilde = np.asarray(w_tilde, dtype=np.float64)
    if not (y.shape == c.shape == w.shape == w_tilde.shape):
        raise ValueError("all four vectors must have the same length")
    _check_signs(y, "observation")
    _check_signs(c, "codeword")
    mismatch = y != c
    return float(np.sum(np.where(mismatch, w, w_tilde)))


def pattern_index(signs) -> int:
    """Exact pattern number of a +/-1 vector: bit i = (1 - y_i) / 2, little-endian."""
    signs = np.asarray(signs)
    _check_signs(signs, "observation")
    (negative,) = np.nonzero(signs < 0)  # unpacks for a vector only
    return sum(1 << int(i) for i in negative)


def pattern_signs(p: int, n: int) -> np.ndarray:
    """Inverse of :func:`pattern_index`, for p in [0, 2^n); exact for any n."""
    if not 0 <= p < 1 << n:
        raise ValueError(f"pattern {p} out of range [0, 2^{n})")
    return np.array([1 - 2 * ((p >> i) & 1) for i in range(n)], dtype=np.int8)


def distance_affine(codebook: Codebook, ws: WeightSet):
    """Affine form of the weighted Hamming distance, d_k(y) = base - coef @ y.

    Returns (base, coef) of shapes (K,) and (K, 2N).
    """
    _check_weights(codebook, ws)
    diff = ws.w - ws.w_tilde
    base = ws.w_tilde.sum(axis=1) + 0.5 * diff.sum(axis=1)
    coef = np.multiply(diff, codebook.codewords, out=diff)  # c is +/-1 and scaling by 0.5 is exact
    coef *= 0.5
    return base, coef


def _mismatch_affine(codebook: Codebook, ws: WeightSet):
    _check_weights(codebook, ws)
    base = 0.5 * ws.w.sum(axis=1)
    coef = np.multiply(ws.w, codebook.codewords)
    coef *= 0.5
    return base, coef


def _check_weights(codebook: Codebook, ws: WeightSet) -> None:
    """Reject a weight set made for another codebook shape, which numpy
    would broadcast (one codeword against K weight rows) or refuse."""
    if ws.w.shape != codebook.codewords.shape:
        raise ValueError(
            f"weight set has shape {ws.w.shape}, codebook codewords {codebook.codewords.shape}"
        )


def loglik_affine(codebook: Codebook, ch: RealChannel):
    """Affine form of the exact log-likelihood, llk_k(y) = base + coef @ y."""
    scaled = np.sqrt(2.0 / ch.noise_variance) * ch.noiseless(codebook.symbols.vectors)
    match = log_q(-scaled)
    mismatch = log_q(scaled)
    base = 0.5 * (match + mismatch).sum(axis=1)
    coef = 0.5 * (match - mismatch)
    return base, coef


def _negated_loglik_affine(codebook: Codebook, ch: RealChannel):
    """The negated log-likelihood, -llk_k(y) = -base - coef @ y, as a
    distance to minimise; fl(-a - b) = -fl(a + b), so negating a score
    back is exact."""
    base, coef = loglik_affine(codebook, ch)
    return -base, coef


@dataclass(frozen=True, eq=False)
class Receiver:
    """One detector prepared for one coherence block.

    Scores are affine in the observation, s_k(y) = base_k - coef_k . y;
    the lowest score wins and ties go to the smallest codeword index.
    With a sphere table the search is restricted to the looked-up
    candidates. A batch of T observations gathers and contracts their
    (T, G * L, 2N) coefficients, O(T * G * L * 2N), unless K <= G * L * 2N:
    then it reads the listed scores off one (T, K) GEMM, whose scores
    take no more memory than that gather and whose T * K * 2N
    multiply-adds run in BLAS. Build it once per block and call
    :meth:`detect` on every batch.

    A batch is scored in the row blocks of :func:`_row_blocks`, at most
    :data:`BLOCK_VALUES` values of its largest temporary each
    (:attr:`row_values` per row: K scores for full search, G * L * 2N
    for the sphere search, whose candidates are also looked up block by
    block). Peak memory is then bounded whatever the batch size.
    Screened and gathered scores are per-row products, so they do not
    depend on the batch; a GEMM score can differ in its last bits with
    its row's place in the block. Each score block is laid out along
    its longer side (column-major when it has more rows than columns),
    so the min, tie and argmax passes run across contiguous memory.

    Scores closer than rounding can tell apart tie. Every affine form
    here has sum_i |coef_ki| <= |base_k|, so a score summed in any order
    errs by at most (2N + 1) eps |base_k|, and the gap between two
    compared scores by at most 2 (2N + 1) eps times the larger |base| of
    the rows being compared: all K for full search, the listed
    candidates of each observation for the sphere search. The tolerance
    is twice that bound; codewords that are not compared do not enter
    it. The full-search tolerance is fixed when the receiver is built.

    Full search screens every block in float32 where
    :func:`_screens` holds (K >= 724: full blocks of BLOCK_VALUES // K
    rows are no taller than wide). One float32 GEMM scores [1, y]
    against a float32 [base, -coef], kept from the first screened batch
    on; each row's argmin is masked and its second minimum taken. Each
    of the 2N + 1 stored terms rounds by at most u32 of itself (or half
    the smallest subnormal), and the GEMM sums them with error at most
    gamma_2N of their absolute sum, itself at most 2 |base_k|; so a
    float32 score errs by at most B32 = (2N + 3) (eps32 max|base| +
    smallest subnormal). With e64 = (2N + 1) eps max|base| bounding a
    float64 score, every codeword within the tolerance of the float64
    minimum lies within the slack tol + 2 (B32 + e64) of the float32
    minimum; the slack also covers the float32 rounding of the threshold
    (for 2N below 2^20). A row whose second minimum lies beyond it has
    one codeword in that window, which is therefore the float64 rule's
    only candidate: its winner, ties included. The other rows are
    crowded and decide by the float64 rule on the scores of the crowded
    rows only. A form whose sums may leave the float32 range is not
    screened. Every screened row then takes its score from its own
    gathered product base_k - coef_k . y. The sphere search and narrower
    codebooks (taller blocks, where the screen costs more than it saves)
    never build the float32 copy.
    """

    base: np.ndarray
    coef: np.ndarray
    table: SphereTable | None = None
    # Values per observation of the largest temporary of detect: K scores
    # for full search; for the sphere search the G * L * 2N gathered
    # coefficients, or the K <= G * L * 2N scores read in their place.
    row_values: int = field(init=False, repr=False)
    _rel: float = field(init=False, repr=False)
    _full_tol: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.coef.shape[0] != len(self.base):  # a gathered row would score another codeword
            raise ValueError(
                f"coef has {self.coef.shape[0]} rows, base has {len(self.base)} entries")
        rel = 4 * (self.coef.shape[1] + 1) * np.finfo(np.float64).eps
        object.__setattr__(self, "_rel", rel)
        if self.table is None:  # the sphere search takes its tolerance per observation
            object.__setattr__(self, "_full_tol", rel * np.max(np.abs(self.base), initial=0.0))
            values = len(self.base)
        else:
            table = self.table  # it ranks one codebook: reject one made for another
            if table.codebook_size != len(self.base) or table.n_outputs != self.coef.shape[1]:
                raise ValueError(
                    f"sphere table was built for {table.codebook_size} codewords of length "
                    f"{table.n_outputs}, not {len(self.base)} of length {self.coef.shape[1]}"
                )
            values = table.group_count * table.list_size * self.coef.shape[1]
        object.__setattr__(self, "row_values", values)

    def _batch(self, obs, listed: bool = False) -> np.ndarray:
        if listed and self.table is None:  # only a sphere table makes sorted lists
            raise ValueError("a full-search receiver has no sphere table to list candidates")
        obs = np.asarray(obs)  # converted to float64 block by block
        if obs.ndim != 2 or obs.shape[1] != self.coef.shape[1]:
            raise ValueError(
                f"observations have shape {obs.shape}, expected (T, {self.coef.shape[1]})"
            )
        _check_signs(obs, "observation")
        return obs

    def candidates(self, obs) -> np.ndarray:
        """(T, G*L) looked-up sub-list indices of a (T, 2N) batch, sorted
        per row and laid out along the longer side; an index listed by
        several groups repeats. :meth:`detect`, :func:`assemble_list` and
        :func:`detect_osd` look lists up the same way: one exact float64
        product keys every sub-vector (see :func:`_candidates`)."""
        return _candidates(self.table, self._batch(obs, listed=True))

    def detect(self, obs, cand=None):
        """(winning indices, their scores, searched list lengths) of a
        (T, 2N) batch of +/-1 observations. A sphere receiver takes the
        batch's :meth:`candidates` as ``cand`` when the caller has them."""
        obs = self._batch(obs, listed=cand is not None)
        if len(obs) * self.row_values <= BLOCK_VALUES:  # what _row_blocks makes one block
            return self._decide(obs, cand)
        blocks = [self._decide(obs[rows], None if cand is None else cand[rows])
                  for rows in _row_blocks(len(obs), self.row_values)]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    def _scores(self, obs) -> np.ndarray:
        """(rows, K) scores of a block, one array laid out along its
        longer side."""
        shape = (len(obs), len(self.base))
        scores = np.matmul(obs, self.coef.T, out=np.empty(shape, order=_long_side(*shape)))
        return np.subtract(self.base, scores, out=scores)  # one (rows, K) array, not two

    @cached_property
    def _screen(self):
        """Float32 [base, -coef] (read-only) and the float32 slack of the
        full-search screen, or None for a form whose sums may leave the
        float32 range; see the class docstring."""
        n = self.coef.shape[1]
        top = float(np.max(np.abs(self.base), initial=0.0))
        f32 = np.finfo(np.float32)
        if not 4 * top < float(f32.max):  # sums reach 2 max|base|
            return None
        b32 = (n + 3) * (float(f32.eps) * top + float(f32.smallest_subnormal))
        # tol + 2 e64 = 1.5 tol, 2 B32, and 2 eps32 max|base| for the threshold's rounding
        slack = 1.5 * self._full_tol + 2 * b32 + 2 * float(f32.eps) * top
        form = np.empty((n + 1, len(self.base)), dtype=np.float32)  # (2N + 1, K): faster GEMM
        form[0] = self.base
        np.negative(self.coef.T, out=form[1:])
        form.flags.writeable = False
        return form, np.float32(slack)

    def _decide_screened(self, obs):
        """Full search of a block of float64 rows through the float32
        screen of the class docstring."""
        form, slack = self._screen
        ones_obs = np.empty((len(obs), len(form)), dtype=np.float32)
        ones_obs[:, 0] = 1
        ones_obs[:, 1:] = obs
        scores = ones_obs @ form
        rows = np.arange(len(obs))
        best = scores.argmin(axis=1)
        low = scores[rows, best]
        scores[rows, best] = np.inf
        crowded = np.flatnonzero(~(scores.min(axis=1) > low + slack))  # NaN crowds too
        if len(crowded):
            exact = self._scores(obs[crowded])
            best[crowded] = (exact <= exact.min(axis=1, keepdims=True) + self._full_tol).argmax(1)
        score = self.base[best] - np.einsum("tn,tn->t", self.coef[best], obs)
        return best, score, np.full(len(obs), len(self.base))

    def _decide(self, obs, cand):
        obs = np.asarray(obs, dtype=np.float64)
        if self.table is None and _screens(len(self.base)) and self._screen is not None:
            return self._decide_screened(obs)
        if cand is None and self.table is not None:
            cand = _candidates(self.table, obs)
        # An exact match under the high-SNR rule scores base - coef.y = 0
        # only up to cancellation noise, which GEMM, GEMV and the gathered
        # product round differently; see the class docstring for the bound.
        if cand is None:
            scores, tol = self._scores(obs), self._full_tol
        else:
            listed = self.base[cand]  # laid out as cand
            if len(self.base) <= self.row_values:  # (rows, K) no larger than the gather
                scores = np.take_along_axis(self._scores(obs), cand, axis=1)
            else:
                scores = np.subtract(listed, np.einsum("tcn,tn->tc", self.coef[cand], obs),
                                     out=np.empty_like(listed))
            tol = self._rel * np.abs(listed).max(axis=1, keepdims=True)
        best = (scores <= scores.min(axis=1, keepdims=True) + tol).argmax(axis=1)
        rows = np.arange(len(obs))
        if cand is None:
            return best, scores[rows, best], np.full(len(obs), len(self.base))
        lens = (cand[:, 1:] != cand[:, :-1]).sum(axis=1, dtype=np.intp) + 1
        return cand[rows, best], scores[rows, best], lens


def _screens(k_total: int) -> bool:
    """Whether full search over K = ``k_total`` codewords screens its
    batches in float32 (see :class:`Receiver`): where its full row blocks,
    BLOCK_VALUES // K rows, are no taller than wide."""
    return BLOCK_VALUES // k_total <= k_total


def _long_side(n_rows: int, width: int) -> str:
    """Memory order of an (n_rows, width) block: column-major when it is
    taller than wide. numpy reduces a short last axis row by row, several
    times slower than across the columns of a column-major block."""
    return "F" if n_rows > width else "C"


def _candidates(table: SphereTable, obs: np.ndarray) -> np.ndarray:
    """(T, G*L) sorted sub-list indices of a (T, 2N) +/-1 batch.

    Sub-vector y_g has pattern number sum_i (1 - y_i) 2^(i-1) =
    (2^n_sub - 1) / 2 + y_g . (-2^(i-1)), its list being row g 2^n_sub
    plus that number of the flattened table. Each term and partial sum
    of the product is a multiple of 1/2 below 2^20 in magnitude and the
    offset an integer below the row count, all exact in float64, so the
    key is exact in any summation order or BLAS blocking.
    """
    trials = len(obs)
    g_count, _, list_size = table.indices.shape
    weights, offsets, rows = table._lookup
    keys = (obs.reshape(-1, len(weights)) @ weights).reshape(trials, g_count)
    cand = rows.take((keys + offsets).astype(np.intp), axis=0).reshape(trials, g_count * list_size)
    cand.sort(axis=1)
    return cand.astype(np.int64, order=_long_side(*cand.shape))


def _detect_one(rx: Receiver, y) -> DetectionResult:
    index, score, lens = rx.detect(np.asarray(y)[None])
    return DetectionResult(int(index[0]), float(score[0]), int(lens[0]))


def _prepared(owner, build, codebook: Codebook, table: SphereTable | None = None) -> Receiver:
    """The receiver of ``build(codebook, owner)``: full search, or with
    ``table`` the sphere search over the rows of the kept full-search form.

    ``owner`` (a weight set or a channel) keeps both, one of each per
    ``build``, and hands them out again while ``codebook`` and ``table``
    are the same objects; another codebook or table replaces them, and a
    receiver already handed out stays valid. All hold read-only arrays,
    so a kept receiver equals a fresh one, and it goes when ``owner``
    goes. :func:`build_sphere_table`, the ``detect_*`` functions,
    ``compute_llrs`` and the experiment drivers all take their forms and
    receivers from here, so a weight set's distance form is built once.
    """
    kept = owner.__dict__.setdefault("_receivers", {})
    entry = kept.get((build, table is None))
    if entry is None or entry[0] is not codebook or entry[1] is not table:
        if table is None:
            rx = Receiver(*build(codebook, owner))
        else:
            full = _prepared(owner, build, codebook)
            rx = Receiver(full.base, full.coef, table)
        entry = kept[build, table is None] = (codebook, table, rx)
    return entry[2]


def detect_mld(y, codebook: Codebook, ch: RealChannel) -> DetectionResult:
    """Maximum-likelihood detection; ties break to the smallest index."""
    r = _detect_one(_prepared(ch, _negated_loglik_affine, codebook), y)
    return DetectionResult(r.index, -r.distance, r.list_len)


def detect_mwd(y, codebook: Codebook, ws: WeightSet) -> DetectionResult:
    """Minimum weighted-Hamming-distance detection over the full codebook."""
    return _detect_one(_prepared(ws, distance_affine, codebook), y)


def detect_mwd_high_snr(y, codebook: Codebook, ws: WeightSet) -> DetectionResult:
    """Distance rule with match weights dropped (they vanish at high SNR)."""
    return _detect_one(_prepared(ws, _mismatch_affine, codebook), y)


def _block_bits(rows: slice, n_sub: int) -> np.ndarray:
    """Float64 [bits, 1 - bits] of the patterns in ``rows``; frees its int64 bits on return."""
    bits = (np.arange(rows.start, rows.stop)[:, None] >> np.arange(n_sub)) & 1
    return np.concatenate((bits, 1 - bits), axis=1, dtype=np.float64)


# Bytes that a block of the sub-score sweep holds per codeword and
# position of its groups: the float64 costs A and B and their sign mask.
_SWEEP_COST_BYTES = 17


def _sweep_groups(n_sub: int, k_total: int, g_count: int) -> int:
    """Whole groups in one block of :func:`_sub_scores`: as many as keep
    its 2^n_sub rows of max(K, 2 n_sub) values (a pattern's scores, or
    its bits when those are longer) within :data:`BLOCK_VALUES`, at least
    one and at most ``g_count``."""
    return min(g_count, max(1, BLOCK_VALUES // ((1 << n_sub) * max(k_total, 2 * n_sub))))


def _sub_scores(codebook: Codebook, ws: WeightSet, n_sub: int):
    """Sub-codeword scores d_k^g(p) of every sub-vector pattern p.

    Yields blocks (group slice, pattern slice, (groups, patterns, K)
    scores) in ascending order, at most :data:`BLOCK_VALUES` scores
    each: the whole groups of :func:`_sweep_groups`, or one group in the
    pattern row blocks of :func:`_row_blocks` when a group alone does not
    fit; the block's costs hold :data:`_SWEEP_COST_BYTES` per codeword
    and position. Row p of a group's scores belongs to
    :func:`pattern_signs` (p, n_sub). A
    score sums non-negative costs, [bits, 1 - bits] @ [A; B] for bits
    (1 - y) / 2, A (B) the costs of y_i = -1 (+1): w_tilde on a sign
    match, w on a mismatch. Its block's costs go to BLAS as a (groups,
    2 n_sub, K) view, so a group's scores have the same bits however
    many groups share its block. Blocks are fresh C arrays; no form is built.
    """
    _check_weights(codebook, ws)
    k_total, g_count = codebook.size, codebook.n_outputs // n_sub
    step = _sweep_groups(n_sub, k_total, g_count)
    pattern_blocks = list(_row_blocks(1 << n_sub, max(k_total, 2 * n_sub)))  # one if step > 1
    w, w_tilde, c = (a.reshape(k_total, -1, n_sub) for a in (ws.w, ws.w_tilde, codebook.codewords))
    for start in range(0, g_count, step):
        groups = slice(start, min(start + step, g_count))
        # (K, groups, [A; B], n_sub): right where c = +1, then swapped where c = -1
        cost = np.stack((w[:, groups], w_tilde[:, groups]), axis=2)
        np.copyto(cost[:, :, 0], w_tilde[:, groups], where=c[:, groups] < 0)
        np.copyto(cost[:, :, 1], w[:, groups], where=c[:, groups] < 0)
        cost = cost.reshape(k_total, -1, 2 * n_sub).transpose(1, 2, 0)  # (groups, 2 n_sub, K)
        for rows in pattern_blocks:
            yield groups, rows, np.matmul(_block_bits(rows, n_sub), cost)
        del cost  # before the next block's


def _nearest(scores: np.ndarray, list_size: int) -> np.ndarray:
    """Column indices of the ``list_size`` smallest scores of each row,
    ascending, ties by index: the first ``list_size`` columns of the
    stable argsort. Overwrites ``scores``, which must be finite.

    One argmin pass per list entry: argmin returns the first of tied
    minima, and the picked cell is then set to +inf.
    """
    picks = np.empty((len(scores), list_size), dtype=np.intp)
    rows = np.arange(len(scores))
    for j in range(list_size):
        picks[:, j] = np.argmin(scores, axis=1)
        scores[rows, picks[:, j]] = np.inf
    return picks


def _rank(codebook: Codebook, ws: WeightSet, cfg: SphereConfig, unlisted=None) -> SphereTable:
    """The sphere table of :func:`build_sphere_table`, ranked by the
    non-negative sums of :func:`_sub_scores` block by block. Given the (G, K)
    array ``unlisted``, the same sweep adds the unlisted mass of
    ``SepBoundInputs`` to it: once a block is ranked its listed cells hold
    +inf, so exp(-d) of the block is already its unlisted mass. Each group's
    mass is summed pattern by pattern in ascending order, a block carrying
    on the sum of the group's earlier blocks, so its bits do not depend on
    the blocking."""
    table = np.empty((cfg.group_count(codebook.n_outputs, codebook.size), 1 << cfg.n_sub,
                      cfg.list_size), dtype=np.uint32)
    for groups, rows, d in _sub_scores(codebook, ws, cfg.n_sub):
        picks = _nearest(d.reshape(-1, codebook.size), cfg.list_size)
        table[groups, rows] = picks.reshape(*d.shape[:2], cfg.list_size)
        if unlisted is not None:
            np.exp(np.negative(d, out=d), out=d)
            d[:, 0] += unlisted[groups]  # numpy adds the rows of a middle axis in order
            unlisted[groups] = d.sum(axis=1)
    del d, picks  # the last block goes before the table is copied
    return SphereTable(table, codebook.size)


def build_sphere_table(codebook: Codebook, ws: WeightSet, cfg: SphereConfig) -> SphereTable:
    """Rank every sub-codeword against every sub-vector pattern.

    For group g and pattern p the stored list holds the L codeword
    indices whose g-th sub-codeword has the smallest weighted Hamming
    distance to the pattern, ascending, ties by index. Runs once per
    channel coherence block; detection then only looks lists up.

    Costs L passes over the K scores of each of the G * 2^n_sub patterns,
    O(G 2^n_sub L K), against O(G 2^n_sub K log K) for a full sort: the
    paper's regime is L << K. At K = 4096 the passes beat a stable sort
    up to L of about 200. They run on the blocks of :func:`_sub_scores`,
    several small groups at a time, after the weight set's distance form
    (which the table's sphere receivers search) is prepared. At the end the
    table is held twice: the filled array and the :class:`SphereTable`'s copy.
    """
    _prepared(ws, distance_affine, codebook)
    return _rank(codebook, ws, cfg)


def assemble_list(y, table: SphereTable) -> np.ndarray:
    """Union of the per-group sub-lists addressed by y's sub-patterns.

    Returned sorted ascending; its length lies in [L, G*L].
    """
    return np.unique(_candidates(table, _observation(y, table.n_outputs)[None])[0])


def _observation(y, n_outputs: int) -> np.ndarray:
    """``y`` as an array, checked to be one +/-1 observation of length ``n_outputs``."""
    y = np.asarray(y)
    if y.shape != (n_outputs,):
        raise ValueError(f"observation has shape {y.shape}, expected ({n_outputs},)")
    _check_signs(y, "observation")
    return y


def detect_osd(y, table: SphereTable, codebook: Codebook, ws: WeightSet) -> DetectionResult:
    """Weighted-distance rule restricted to the assembled candidate list.

    ``ws`` keeps the sphere receiver of ``table`` and ``codebook``, which
    searches the listed rows of the weight set's one distance form. A
    table built from ``ws`` has built that form already; otherwise the
    first call builds it, O(K * 2N). Later calls cost O(G * L * 2N),
    until another codebook or table replaces the receiver. Ties go to
    the smallest codeword index.
    """
    return _detect_one(_prepared(ws, distance_affine, codebook, table), y)


def sphere_table_to_bytes(table: SphereTable) -> bytes:
    """Serialize to the flat binary layout.

    Header: magic ``OSD1`` then four little-endian u32 fields G, n_sub,
    L, K. Payload: G * 2^n_sub * L little-endian u32 zero-based codeword
    indices, group-major, then pattern, then list position.
    """
    head = _TABLE_MAGIC + struct.pack(
        "<4I", table.group_count, table.n_sub, table.list_size, table.codebook_size
    )
    return head + table.indices.astype("<u4").tobytes()


def sphere_table_from_bytes(data: bytes) -> SphereTable:
    head = 20  # magic and four u32 fields
    if data[:4] != _TABLE_MAGIC:
        raise ValueError("not a sphere-table blob (bad magic)")
    if len(data) < head:
        raise ValueError(f"sphere-table blob truncated: {len(data)} bytes, header needs {head}")
    if (len(data) - head) % 4:
        raise ValueError(
            f"sphere-table blob truncated: payload of {len(data) - head} bytes "
            "is not a whole number of u32 entries"
        )
    g, n_sub, list_size, k_total = struct.unpack("<4I", data[4:head])
    if n_sub > MAX_SUBVECTOR_DIM:
        raise ValueError(f"sub-vector dimension {n_sub} in blob exceeds {MAX_SUBVECTOR_DIM}")
    if g < 1:
        raise ValueError("sphere-table blob has no groups")
    SphereConfig(n_sub, list_size).group_count(g * n_sub, k_total)
    count = g * (1 << n_sub) * list_size
    payload = np.frombuffer(data, dtype="<u4", offset=head)
    if len(payload) != count:
        raise ValueError(f"expected {count} table entries, found {len(payload)}")
    return SphereTable(payload.reshape(g, 1 << n_sub, list_size), k_total)


def write_sphere_table(table: SphereTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(sphere_table_to_bytes(table))


def read_sphere_table(path) -> SphereTable:
    with open(path, "rb") as fh:
        return sphere_table_from_bytes(fh.read())
