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
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .divergences import ClassicalPair, _logsumexp, build_psi
from .errors import ResourceLimitError, ValidationError
from .linalg import SpectralDecomposition, _check_count, _check_threshold, _fsum

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


@dataclass(frozen=True)
class TypeVector:
    """Empirical distribution of an n-sample, stored as integer counts."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or any(c < 0 or c != int(c) for c in self.counts):
            raise ValidationError(f"counts must be nonnegative integers, got {self.counts}")
        if sum(self.counts) < 1:
            raise ValidationError("a type needs at least one observation")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def support_size(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64) / self.n


def sequence_type(symbols: Sequence[int], alphabet_size: int) -> TypeVector:
    """TypeVector of a sequence of symbols drawn from range(alphabet_size)."""
    counts = [0] * alphabet_size
    hist = Counter(symbols)
    for sym, c in hist.items():
        if not 0 <= sym < alphabet_size:
            raise ValidationError(f"symbol {sym!r} outside range({alphabet_size})")
        counts[sym] = c
    return TypeVector(tuple(counts))


class TypeClassLogProbability(NamedTuple):
    lower_bound: float
    exact: float


def type_class_log_probability(tv: TypeVector) -> TypeClassLogProbability:
    """Per-copy log-probability of the type class of tv under tv itself.

    ``exact`` is (1/n) log [ multinomial(n; counts) prod (c_i/n)^(c_i) ];
    ``lower_bound`` is the Stirling-based closed form

        -((r-1)/2) log(n)/n + (r/n)(log sqrt(r/(2 pi)) - 1/12) + 1/(n(12n+1))

    with r the support size of tv. The bound never exceeds the exact value.
    """
    n = tv.n
    r = tv.support_size
    log_exact = math.lgamma(n + 1)
    for c in tv.counts:
        if c > 0:
            log_exact += -math.lgamma(c + 1) + c * math.log(c / n)
    bound = (
        -((r - 1) / 2.0) * math.log(n) / n
        + (r / n) * (math.log(math.sqrt(r / (2.0 * math.pi))) - 1.0 / 12.0)
        + 1.0 / (n * (12.0 * n + 1.0))
    )
    return TypeClassLogProbability(lower_bound=bound, exact=log_exact / n)


def halfspace_type_approximation(
    mu, v, c: float, n: int
) -> tuple[TypeVector, TypeVector]:
    """Types close to mu lying strictly on each side of the hyperplane <x, v> = c.

    Requires <mu, v> = c, both open half-spaces to meet the probability
    simplex, and n >= r(r-1) for r the support size of mu. Returns
    (below, above) with each type within l1 distance 2(r-1)/n of mu; the
    rounding is greedy (mass shifted in 1/n steps along coordinates sorted
    by v) and the distance and strictness guarantees are verified before
    returning.
    """
    mu_arr = np.asarray(mu, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    if mu_arr.shape != v_arr.shape or mu_arr.ndim != 1 or mu_arr.size == 0:
        raise ValidationError("mu and v must be nonempty vectors of equal length")
    if np.any(mu_arr < 0.0) or abs(_fsum(mu_arr) - 1.0) > 1e-9:
        raise ValidationError("mu must be a probability vector")
    if abs(_fsum(mu_arr * v_arr) - c) > 1e-9:
        raise ValidationError("mu must satisfy <mu, v> = c within 1e-9")
    if not (float(v_arr.min()) < c < float(v_arr.max())):
        raise ValidationError("both open half-spaces must intersect the simplex")
    r = int(np.count_nonzero(mu_arr > 1e-15))
    if n < r * (r - 1):
        raise ValidationError(f"need n >= r(r-1) = {r * (r - 1)}, got {n}")

    base = np.floor(n * mu_arr).astype(np.int64)
    budget = 2.0 * (r - 1) / n + 1e-12

    def rounded(target_idx: int, want_below: bool) -> TypeVector:
        counts = base.copy()
        counts[target_idx] += n - int(base.sum())
        for _ in range(n + 1):
            inner = _fsum(counts * v_arr) / n
            if (inner < c) if want_below else (inner > c):
                break
            movable = [
                i
                for i in range(counts.size)
                if counts[i] > 0
                and i != target_idx
                and (v_arr[i] > v_arr[target_idx] if want_below else v_arr[i] < v_arr[target_idx])
            ]
            if not movable:
                raise ValidationError("cannot reach the open half-space by unit mass shifts")
            src = max(movable, key=lambda i: v_arr[i]) if want_below else min(
                movable, key=lambda i: v_arr[i]
            )
            counts[src] -= 1
            counts[target_idx] += 1
        else:
            raise ValidationError("cannot reach the open half-space by unit mass shifts")
        dist = _fsum(np.abs(mu_arr - counts / n))
        if dist > budget:
            raise ValidationError(
                f"rounded type at l1 distance {dist!r} exceeds the budget {budget!r}"
            )
        return TypeVector(tuple(int(x) for x in counts))

    below = rounded(int(np.argmin(v_arr)), want_below=True)
    above = rounded(int(np.argmax(v_arr)), want_below=False)
    return below, above


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


def iter_types(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All count vectors of length k summing to n, in lexicographic order.

    These are the rows of the type table, so the MAX_TYPES cap applies.
    """
    yield from map(tuple, _type_table(n, k)[0].tolist())


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
