"""Classical reduction of an operator pair and the method of types.

A pair of PSD operators (A, B) maps to a pair of weighted measures on the
finite alphabet of joint-support eigenvalue pairs:

    p(i, j) = a_i Tr P_i Q_j,    q(i, j) = b_j Tr P_i Q_j.

The map preserves the log-moment curve psi and tensorizes, which lets the
classical method of types drive lower bounds for the quantum problem. This
module also provides exact error computations for classical likelihood-ratio
tests by full enumeration of types.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .divergences import ClassicalPair, _logsumexp, build_psi
from .errors import ResourceLimitError, ValidationError
from .linalg import SpectralDecomposition, _check_count, _check_threshold

MAX_TYPES = 2_000_000


def build_classical_pair(a_dec: SpectralDecomposition, b_dec: SpectralDecomposition) -> ClassicalPair:
    """`build_psi` of two PSD operators, with orthogonal supports rejected.

    Alphabet letters are pairs of eigenvalue indices with projector overlap
    above linalg.WEIGHT_CUTOFF; orthogonal supports leave an empty alphabet,
    which raises ValidationError.
    """
    pair = build_psi(a_dec, b_dec)
    if pair.orthogonal_supports:
        raise ValidationError("orthogonal supports: the classical alphabet is empty")
    return pair


@functools.lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(j + 1.0) for j in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0..n by math.lgamma, read-only.

    Sliced from a table kept per power-of-two length, so a sweep over
    n = 1..n_max makes fewer than 4 n_max lgamma calls, not n_max^2 / 2.
    """
    return _log_factorial_table(1 << int(n).bit_length())[: n + 1]


def _type_counts(n: int, k: int) -> np.ndarray:
    """The (T, k) int32 counts of `_type_table`, grown one letter at a time.

    Stars and bars: each partial type with r draws left becomes r + 1 rows,
    giving the next letter 0..r in turn, and the last letter takes what
    remains, so the rows come out in lexicographic order.
    """
    cols: list[np.ndarray] = []
    left = np.full(1, n, dtype=np.int32)
    for _ in range(k - 1):
        reps = left + 1
        first = np.cumsum(reps, dtype=np.int32) - reps
        letter = np.arange(first[-1] + reps[-1], dtype=np.int32)
        letter -= np.repeat(first, reps)
        cols = [np.repeat(col, reps) for col in cols] + [letter]
        left = np.repeat(left, reps)
        left -= letter
    return np.column_stack(cols + [left])


def _type_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All types of n draws from k letters, in lexicographic order.

    Returns int32 counts of shape (T, k), T = C(n+k-1, k-1), and the log
    multinomial coefficients log(n! / prod c_i!) of shape (T,). Raises
    ResourceLimitError when T exceeds MAX_TYPES.
    """
    if k < 1 or n < 0:
        raise ValidationError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    total = math.comb(n + k - 1, k - 1)
    if total > MAX_TYPES:
        raise ResourceLimitError(f"type enumeration size {total} exceeds cap {MAX_TYPES}")
    counts = _type_counts(n, k)
    lg = _log_factorials(n)
    log_coef = np.full(total, lg[n])
    for col in counts.T:
        log_coef -= lg[col]
    return counts, log_coef


def _type_sums(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(counts @ weights).T for a (k, m) weight matrix, accumulated one letter at a time.

    Each product c_i w_i is rounded before it is added, so exact ties such
    as c r - c r = 0 stay exact; a BLAS product may fuse the multiply and
    the add and leave a one-ulp residue. No temporary is larger than one
    float64 column of length T.
    """
    out = np.zeros((weights.shape[1], counts.shape[0]))
    for col, w in zip(counts.T, weights):
        for row, x in zip(out, w):
            row += col * x
    return out


class ClassicalErrors(NamedTuple):
    alpha: float
    beta: float
    mixed: float


def classical_exact_errors_log(p, q, n: int, a: float) -> tuple[float, float, float]:
    """(log alpha, log beta, log mixed) for the classical likelihood-ratio test.

    The acceptance region is {x : (1/n) sum log(p/q) over x >= a}, ties
    included; alpha is the p-mass of the complement, beta the q-mass of the
    region, mixed = exp(-n a) alpha + beta. Exact enumeration over types.
    """
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape or pa.ndim != 1 or pa.size == 0:
        raise ValidationError("p and q must be nonempty vectors of equal length")
    if np.any(pa <= 0.0) or np.any(qa <= 0.0):
        raise ValidationError("p and q must be strictly positive")
    _check_count(n)
    _check_threshold(n, a)
    counts, log_coef = _type_table(n, pa.size)
    log_p = np.log(pa)
    log_q = np.log(qa)
    stat, s_p, s_q = _type_sums(counts, np.column_stack((log_p - log_q, log_p, log_q)))
    na = n * a
    accept = stat >= na
    log_alpha = _logsumexp(log_coef[~accept] + s_p[~accept])
    log_beta = _logsumexp(log_coef[accept] + s_q[accept])
    log_mixed = float(np.logaddexp(-na + log_alpha, log_beta))
    return log_alpha, log_beta, log_mixed


def classical_exact_errors(pair: ClassicalPair, n: int, a: float) -> ClassicalErrors:
    """Exact (alpha, beta, mixed) errors of the classical test at threshold a."""
    la, lb, lm = classical_exact_errors_log(pair.p, pair.q, n, a)
    return ClassicalErrors(alpha=math.exp(la), beta=math.exp(lb), mixed=math.exp(lm))
