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

All distances are affine in the +/-1 observation: d_k(y) = base_k -
coef_k . y. Every detector is therefore one :class:`Receiver`, the
affine form (plus the table for the sphere decoder) prepared once per
coherence block; ties always resolve to the smallest codeword index.
A weight set (or channel) keeps the receivers prepared from it, one per
form, while the codebook stays the same. A weight set holds one
distance form, built by whichever of :func:`build_sphere_table`,
``SepBoundInputs.build``, ``detect_*`` or ``compute_llrs`` runs first;
``detect_osd`` keeps beside it a sphere receiver over that form, until
another codebook or table replaces it. The arrays of those objects and
of sphere tables are read-only, so a kept receiver cannot go stale.
Every sphere search looks its lists up by pattern keys from one float64
product, exact in any summation order (see ``_candidates``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
    """Balanced, in-order slices that cover ``range(n_rows)``, for work
    that holds ``width`` values per row.

    A block has at most ``BLOCK_VALUES // width`` rows, and never a
    single row when ``n_rows >= 2``: a one-row product goes through
    GEMV instead of GEMM and rounds differently, so a row's result would
    depend on where it sits in the batch. Where the budget allows at
    most two rows, blocks have two, and one has three if ``n_rows`` is
    odd. An empty batch still gives one (empty) block.
    """
    cap = max(2, BLOCK_VALUES // max(width, 1))
    count = max(1, min(-(-n_rows // cap), n_rows // 2))
    size, extra = divmod(n_rows, count)
    start = 0
    for i in range(count):
        stop = start + size + (i < extra)
        yield slice(start, stop)
        start = stop


def weighted_hamming(y, c, w, w_tilde) -> float:
    """Sum of w_i over sign mismatches plus w_tilde_i over sign matches."""
    y = np.asarray(y)
    c = np.asarray(c)
    w = np.asarray(w, dtype=np.float64)
    w_tilde = np.asarray(w_tilde, dtype=np.float64)
    if not (y.shape == c.shape == w.shape == w_tilde.shape):
        raise ValueError("all four vectors must have the same length")
    mismatch = y != c
    return float(np.sum(np.where(mismatch, w, w_tilde)))


def pattern_index(signs) -> int:
    """Pattern number of a +/-1 vector: bit i = (1 - y_i) / 2, little-endian."""
    signs = np.asarray(signs)
    _check_signs(signs, "observation")
    bits = (1 - signs.astype(np.int64)) // 2
    return int(bits @ (1 << np.arange(len(bits), dtype=np.int64)))


def pattern_signs(p: int, n: int) -> np.ndarray:
    """Inverse of :func:`pattern_index`, for p in [0, 2^n)."""
    if not 0 <= p < 1 << n:
        raise ValueError(f"pattern {p} out of range [0, 2^{n})")
    return _block_signs(slice(p, p + 1), n)[0].astype(np.int8)


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
    block). Peak memory is then bounded whatever the batch size, and no
    block has a single row, so every observation gets the same bits
    wherever it sits in the batch. Each score block is laid out along
    its longer side (column-major when it has more rows than columns),
    so the min, tie and argmax passes run across contiguous memory.

    Scores closer than rounding can tell apart tie. Every affine form
    here has sum_i |coef_ki| <= |base_k|, so one computed score errs by
    at most (2N + 1) eps |base_k|, and the gap between two compared
    scores by at most 2 (2N + 1) eps times the larger |base| of the
    rows being compared: all K for full search, the listed candidates
    of each observation for the sphere search. The tolerance is twice
    that bound; codewords that are not compared do not enter it. The
    full-search tolerance is fixed when the receiver is built.
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

    def _batch(self, obs) -> np.ndarray:
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
        return _candidates(self.table, self._batch(obs))

    def detect(self, obs, cand=None):
        """(winning indices, their scores, searched list lengths) of a
        (T, 2N) batch of +/-1 observations. A sphere receiver takes the
        batch's :meth:`candidates` as ``cand`` when the caller has them."""
        obs = self._batch(obs)
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

    def _decide(self, obs, cand):
        obs = np.asarray(obs, dtype=np.float64)
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
    goes. Table builds (through :func:`_sub_scores`), the ``detect_*``
    functions, ``compute_llrs`` and the experiment drivers all take
    their forms and receivers from here, so a weight set's distance form
    is built once.
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


def _block_signs(rows: slice, n_sub: int) -> np.ndarray:
    """(patterns, n_sub) float64 :func:`pattern_signs` of the patterns in
    ``rows``; their int64 bits are freed before the caller's product."""
    return 1.0 - 2.0 * ((np.arange(rows.start, rows.stop)[:, None] >> np.arange(n_sub)) & 1)


def _sub_scores(codebook: Codebook, ws: WeightSet, n_sub: int):
    """Sub-codeword scores d_k^g(p) of every sub-vector pattern p.

    Yields blocks (group slice, pattern slice, (groups, patterns, K)
    scores) in ascending order, at most :data:`BLOCK_VALUES` scores
    each: as many whole groups as fit, or one group in the pattern row
    blocks of :func:`_row_blocks` when a group alone does not fit. Row p
    of a group's scores belongs to the signs :func:`pattern_signs` (p,
    n_sub). The groups of a block come from one broadcast product of the
    pattern signs with each group's coefficients, a strided (n_sub, K)
    view of the ``coef`` that ``ws`` keeps (see :func:`_prepared`) that
    BLAS takes as it is, so a group's scores have the same bits however
    many groups share its block. Each block is a fresh C-ordered array
    that the caller may overwrite.
    """
    coef = _prepared(ws, distance_affine, codebook).coef
    shape = (codebook.size, coef.shape[1] // n_sub, n_sub)
    bases = 0.5 * (ws.w - ws.w_tilde).reshape(shape).sum(axis=-1)
    bases = ws.w_tilde.reshape(shape).sum(axis=-1) + bases  # distance_affine's base per group
    bases = np.ascontiguousarray(bases.T)  # (G, K): a strided row would slow the subtraction
    k_total, g_count = codebook.size, len(bases)
    coef = coef.reshape(shape).transpose(1, 2, 0)  # (G, n_sub, K)
    patterns = 1 << n_sub
    width = max(k_total, n_sub)  # a pattern's scores, or its signs when those are longer
    step = max(1, BLOCK_VALUES // (patterns * width))
    pattern_blocks = list(_row_blocks(patterns, width))  # one block when step > 1
    for start in range(0, g_count, step):
        groups = slice(start, min(start + step, g_count))
        for rows in pattern_blocks:
            scores = np.matmul(_block_signs(rows, n_sub), coef[groups])
            yield groups, rows, np.subtract(bases[groups, None], scores, out=scores)


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
    """The sphere table of :func:`build_sphere_table`, ranked block by
    block of :func:`_sub_scores`. Given the (G, K) array ``unlisted``, the
    same sweep adds the unlisted mass of ``SepBoundInputs`` to it: once a
    block is ranked its listed cells hold +inf, so exp(-d) of the block is
    already its unlisted mass. Each group's mass is summed pattern by
    pattern in ascending order, a block carrying on the sum of the group's
    earlier blocks, so its bits do not depend on how the scores are blocked."""
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
    up to L of about 200. The passes run on the blocks of
    :func:`_sub_scores`, several small groups at a time. At the end the
    table is held twice, the filled array and the :class:`SphereTable`'s
    private copy of it.
    """
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
