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
import threading
from typing import NamedTuple

import numpy as np

from .divergences import ClassicalPair, _logsumexp, build_psi
from .errors import ResourceLimitError, ValidationError
from .linalg import SpectralDecomposition, _check_count, _check_letters, _check_threshold

MAX_TYPES = 2_000_000
TYPE_CACHE_BYTES = 16 << 20  # bytes of type tables kept per process, first come first kept
_TYPE_CHUNK = 16_384  # types per chunk of `_type_sums` and `_type_table`: work columns stay in cache


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
    """The (T, k) counts of `_type_table`, grown one letter at a time in the
    narrowest unsigned dtype that holds n.

    Stars and bars: each partial type with r draws left becomes r + 1 rows,
    giving the next letter 0..r in turn, and the last letter takes what
    remains, so the rows come out in lexicographic order. A letter column is
    the running sum of its steps, +1 within a partial type and -r back to 0
    at the next; the narrow sum wraps, but each partial sum is a letter, at
    most n, so it comes out exact. Repeat counts and row ends are int64, as
    r + 1 and the row totals outgrow the narrow dtype.
    """
    dtype = np.min_scalar_type(n)
    cols: list[np.ndarray] = []
    left = np.full(1, n, dtype=dtype)
    for _ in range(k - 1):
        reps = left.astype(np.int64) + 1
        ends = np.cumsum(reps)
        letter = np.ones(ends[-1], dtype=dtype)
        letter[0] = 0
        letter[ends[:-1]] = -left[:-1]
        np.cumsum(letter, dtype=dtype, out=letter)
        cols = [np.repeat(col, reps) for col in cols] + [letter]
        left = np.repeat(left, reps)
        left -= letter
    return np.column_stack(cols + [left])


# (n, k) -> the read-only (counts, log_coef) of `_type_table`, first come first
# kept while _type_bytes, the bytes of all kept, fits TYPE_CACHE_BYTES; both
# under the lock.
_TYPE_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_TYPE_TABLES_LOCK = threading.Lock()
_type_bytes = 0


def _type_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All types of n draws from k letters, in lexicographic order.

    Returns read-only counts of shape (T, k), T = C(n+k-1, k-1), in the
    narrowest unsigned dtype that holds n, and the log multinomial
    coefficients log(n! / prod c_i!) of shape (T,). Raises
    ResourceLimitError when T exceeds MAX_TYPES.

    The tables do not depend on the state, so each is kept for the process
    if it fits in what the tables kept before it leave of TYPE_CACHE_BYTES;
    nothing is evicted, and a table that does not fit is built on every
    call. Tables are built outside the lock, so threads racing on one key
    may each build it, and all but the first stored copy are dropped.
    """
    global _type_bytes
    total = math.comb(n + k - 1, k - 1)
    if total > MAX_TYPES:
        raise ResourceLimitError(f"type enumeration size {total} exceeds cap {MAX_TYPES}")
    key = (n, k)
    with _TYPE_TABLES_LOCK:
        if key in _TYPE_TABLES:
            return _TYPE_TABLES[key]
    counts = _type_counts(n, k)
    lg = _log_factorials(n)
    log_coef = np.full(total, lg[n])
    for start in range(0, total, _TYPE_CHUNK):  # lg[col] of one chunk at a time
        for col in counts[start : start + _TYPE_CHUNK].T:
            log_coef[start : start + _TYPE_CHUNK] -= lg[col]
    counts.flags.writeable = log_coef.flags.writeable = False
    size = counts.nbytes + log_coef.nbytes
    with _TYPE_TABLES_LOCK:
        if key not in _TYPE_TABLES and _type_bytes + size <= TYPE_CACHE_BYTES:
            _TYPE_TABLES[key] = (counts, log_coef)
            _type_bytes += size
        return _TYPE_TABLES.get(key, (counts, log_coef))


def _type_sums(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(counts @ weights).T for a (k, m) weight matrix, accumulated one letter at a time.

    Each product c_i w_i is rounded before it is added, so exact ties such
    as c r - c r = 0 stay exact; a BLAS product may fuse the multiply and
    the add and leave a one-ulp residue. The types go in chunks of
    _TYPE_CHUNK, and within a chunk each letter's counts are converted to
    float64 once (exactly, as each product would convert them), so the work
    takes two float64 columns of at most _TYPE_CHUNK besides the result.
    """
    out = np.zeros((weights.shape[1], counts.shape[0]))
    buffers = np.empty((2, min(_TYPE_CHUNK, counts.shape[0])))
    for start in range(0, counts.shape[0], _TYPE_CHUNK):
        block = out[:, start : start + _TYPE_CHUNK]
        col, part = buffers[:, : block.shape[1]]
        for letter, w in zip(counts[start : start + _TYPE_CHUNK].T, weights):
            col[...] = letter
            for row, x in zip(block, w):
                row += np.multiply(col, x, out=part)
    return out


def _type_masses(p: np.ndarray, q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(statistic, log p-mass, log q-mass) of every type of n draws from the letters of p and q.

    The statistic, the sum of log p - log q over the draws, is its own
    column of `_type_sums`, so exact ties stay exact. A type that draws a
    letter of zero mass has that mass 0 (log -inf) and the statistic +inf
    where the q-mass is 0, -inf where the p-mass is 0; the indicator columns
    that find them are summed only when some letter has zero mass.
    """
    counts, log_coef = _type_table(n, p.size)
    zero_p, zero_q = p == 0.0, q == 0.0
    log_p = np.log(np.where(zero_p, 1.0, p))
    log_q = np.log(np.where(zero_q, 1.0, q))
    columns = [log_p - log_q, log_p, log_q]
    if zero_p.any() or zero_q.any():
        columns += [zero_p, zero_q]
    stat, log_mp, log_mq, *hits = _type_sums(counts, np.column_stack(columns))
    log_mp += log_coef
    log_mq += log_coef
    if hits:
        hits_p, hits_q = hits[0] > 0.0, hits[1] > 0.0
        log_mp[hits_p], stat[hits_p] = -math.inf, -math.inf
        log_mq[hits_q], stat[hits_q & ~hits_p] = -math.inf, math.inf
    return stat, log_mp, log_mq


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
    pa, qa = _check_letters(p, q)
    if np.any(pa == 0.0) or np.any(qa == 0.0):
        raise ValidationError("p and q must be strictly positive")
    _check_count(n)
    _check_threshold(n, a)
    stat, log_mp, log_mq = _type_masses(pa, qa, n)
    na = n * a
    accept = stat >= na
    log_alpha = _logsumexp(log_mp[~accept])
    log_beta = _logsumexp(log_mq[accept])
    log_mixed = float(np.logaddexp(-na + log_alpha, log_beta))
    return log_alpha, log_beta, log_mixed


def classical_exact_errors(pair: ClassicalPair, n: int, a: float) -> ClassicalErrors:
    """Exact (alpha, beta, mixed) errors of the classical test at threshold a."""
    la, lb, lm = classical_exact_errors_log(pair.p, pair.q, n, a)
    return ClassicalErrors(alpha=math.exp(la), beta=math.exp(lb), mixed=math.exp(lm))
