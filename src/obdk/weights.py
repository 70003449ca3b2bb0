"""Gaussian tail machinery and per-codeword weight vectors.

Every detector scores a +/-1 observation against codeword k with a
weighted Hamming distance: position i charges ``w[k, i]`` on a sign
mismatch and ``w_tilde[k, i]`` on a match. Two weight flavors are
provided:

* ``exact``    -- negative log tail probabilities; minimizing the
  resulting distance is maximum-likelihood detection.
* ``approx``   -- closed forms from the exponential tail approximation
  Q_hat(x) = exp(-a x^2 - b x) / 2 with a = 0.374, b = 0.777; no tail
  lookups needed at detection time.

Only the exact tail (``log_q``) needs scipy, so ``log_q`` imports
``scipy.special`` on its first call rather than this module at load
time. That import is about 70% of the cost of ``import obdk.cli``
(median 396 of 546 ms over seven ``python -X importtime`` runs on a
2-vCPU x86 host; numpy takes 107 ms), and the paper's sphere decoder,
the list-miss bound and every approximate-weight path never evaluate
the exact tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RealChannel, readonly_copy, reduce_by_fields
from .codebook import SymbolTable

Q_HAT_A = 0.374
Q_HAT_B = 0.777

# log_q saturates beyond this argument; weights are then bounded by
# -log_ndtr(-40) ~= 804.6, keeping distance sums finite at extreme SNR.
LOG_Q_ARG_MAX = 40.0
# Smallest admissible weight; match weights underflow to zero at extreme
# SNR and are floored here to stay strictly positive.
_WEIGHT_FLOOR = np.finfo(np.float64).tiny


def log_q(x):
    """ln Q(x) for the Gaussian tail Q, evaluated without underflow.

    Arguments are clamped to [-40, 40]; beyond that the result saturates
    at ln Q(+/-40).
    """
    from scipy.special import log_ndtr

    a = np.clip(np.asarray(x, dtype=np.float64), -LOG_Q_ARG_MAX, LOG_Q_ARG_MAX)
    return log_ndtr(-a)


def q_hat(x):
    """Closed-form tail approximation exp(-a x^2 - b x) / 2 for x >= 0."""
    a = np.asarray(x, dtype=np.float64)
    if np.any(a < 0.0):
        raise ValueError("q_hat is defined for non-negative arguments only")
    return 0.5 * np.exp(-Q_HAT_A * a * a - Q_HAT_B * a)


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Per-codeword mismatch (w) and match (w_tilde) weights, K x 2N each.

    ``w`` and ``w_tilde`` are read-only copies of the arrays passed in.
    """

    w: np.ndarray
    w_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", readonly_copy(self.w))
        object.__setattr__(self, "w_tilde", readonly_copy(self.w_tilde))
        if self.w.shape != self.w_tilde.shape:
            raise ValueError("weight matrices must have identical shapes")
        if not (np.all(self.w > 0) and np.all(self.w_tilde > 0)):
            raise ValueError("weights must be strictly positive")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.w_tilde))):
            raise ValueError("weights must be finite")

    __reduce__ = reduce_by_fields


def compute_weights_exact(ch: RealChannel, s: SymbolTable) -> WeightSet:
    """Exact negative-log tail weights.

    With s_ki = sqrt(2 / sigma^2) |h_i . x_k|, a mismatch at position i
    has probability Q(s_ki) and a match 1 - Q(s_ki); the weights are the
    negative logs of those two probabilities.
    """
    arg = np.sqrt(2.0 / ch.noise_variance) * np.abs(ch.noiseless(s.vectors))
    w = -log_q(arg)
    w_tilde = np.maximum(-log_q(-arg), _WEIGHT_FLOOR)
    return WeightSet(w, w_tilde)


def compute_weights_approx(ch: RealChannel, s: SymbolTable) -> WeightSet:
    """Closed-form weights from the exponential tail approximation.

    w = (2a / sigma^2) |h.x|^2 + (b sqrt(2) / sigma) |h.x| + ln 2 and
    w_tilde = -ln(1 - exp(-w)), evaluated with log1p to keep tiny match
    weights accurate.
    """
    absp = np.abs(ch.noiseless(s.vectors))
    s2 = ch.noise_variance
    w = (2.0 * Q_HAT_A / s2) * absp * absp + (Q_HAT_B * np.sqrt(2.0 / s2)) * absp + np.log(2.0)
    w_tilde = np.maximum(-np.log1p(-np.exp(-w)), _WEIGHT_FLOOR)
    return WeightSet(w, w_tilde)
