"""Exact errors and tight two-sided bounds for binary classical discrimination.

For Bernoulli(p) versus Bernoulli(q) the optimal mixed error at threshold a is

    e_n(a) = (1/2) sum over k of C(n,k) min(exp(-n a) p^k (1-p)^(n-k),
                                            q^k (1-q)^(n-k)),

a sum split at the crossover count n*s. Regularized incomplete beta
functions turn the split into closed-form bounds that tighten like O(1/n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import _logsumexp_rows, chernoff_distance, psi_curve_from_probabilities
from .errors import DegeneracyError, ValidationError
from .linalg import _check_count, _check_threshold, _mixed_weight, _sum2_rows
from .ns_mapping import _log_factorials

_ROW_BLOCK = 64  # rows of n per log-domain table of e_n
_WINDOW_NATS = 50.0  # least depth below its peak that a row's window of terms reaches, in nats
_EDGE_MARGIN = 2.0  # factor on a window's edge term that bounds every term left out past it
_WINDOW_MAX_LOG = 2.0**40  # largest n (|a| + max |log p|, |log q|...) + log n! of a windowed row


@dataclass(frozen=True)
class BinaryPair:
    """Bernoulli parameter pair, canonicalized to p <= q by relabeling outcomes."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0 and 0.0 < self.q < 1.0):
            raise ValidationError(f"need 0 < p, q < 1, got p={self.p}, q={self.q}")
        if self.p > self.q:
            object.__setattr__(self, "p", 1.0 - self.p)
            object.__setattr__(self, "q", 1.0 - self.q)


def _peak_counts(bp: BinaryPair, a: float, n: np.ndarray) -> np.ndarray:
    """The count k nearest each row's largest term: the crossover n s, clipped
    to the modes n p <= n q of the two likelihoods (n p where s is undefined).

    Below the crossover the term is the alternative's, which rises up to n q;
    above it the null's, which falls from n p on.
    """
    try:
        peak = np.clip(n * _crossover_s(bp, a), n * bp.p, n * bp.q)
    except DegeneracyError:
        peak = n * bp.p
    return np.rint(peak).astype(np.int64)


def _en_exact_log_range(bp: BinaryPair, a: float, first: int, last: int) -> np.ndarray:
    """log e_n(a) for n = first..last, accumulated in the log domain term by term.

    Row n has the terms t_k = log C(n,k) + min(null, alt), k = 0..n, and
    log e_n is the row maximum m plus the log of the exactly rounded sum of
    exp(t_k - m), as `_logsumexp_rows` takes it. Both log likelihoods are
    concave in k with second difference at most -4/(n+2), so t is too, and
    a term j steps from the peak lies at least 2 j (j - 1) / (n + 2) nats
    below it. So each block of _ROW_BLOCK rows sums every row over one
    window of 2h + 1 counts around its peak (`_peak_counts`), moved inside
    0..n, with h^2 >= _WINDOW_NATS (n + 2) / 2 at the block's largest n:
    O(sqrt n) terms a row, O(n^(3/2)) work for the range.

    The window's terms are the full row's floats, computed operation for
    operation as there. The terms left out past each open edge are each
    bounded by the edge term times _EDGE_MARGIN, and `linalg._sum2_rows`
    takes the bound on their sum as its slack. It certifies a row only if
    each open edge term is below 2^-54 w times the peak, w the window's
    length; the computed terms lie within 0.01 nats of a concave sequence
    (while the row's log scale, n (|a| + the largest |log| of p, 1 - p, q,
    1 - q) + log n!, is at most _WINDOW_MAX_LOG), so the terms fall away
    past the edges, m is the full row's maximum, and the certified sum is
    the full row's. A row whose peak sits on an open edge never certifies.
    A row that does not certify, a row no longer than its window and a row
    above the log scale are summed whole by `_logsumexp_rows`, -inf past
    k = n: the same terms over k = 0..n.
    """
    lp, l1p = math.log(bp.p), math.log1p(-bp.p)
    lq, l1q = math.log(bp.q), math.log1p(-bp.q)
    lg = _log_factorials(last)

    def terms(n, k):
        """t_k for a (counts, rows) table k of counts at most each row's n."""
        nk = n - k
        log_comb = lg[n] - lg[k]
        log_comb -= lg[nk]
        k, nk = k.astype(np.float64), nk.astype(np.float64)  # exactly as int * float converts them
        null = -n * a + log_comb
        null += k * lp
        null += nk * l1p
        alt = log_comb  # in place, as null no longer reads it
        alt += k * lq
        alt += nk * l1q
        return np.minimum(null, alt, out=alt)

    def whole_rows(n):
        k = np.arange(n.max() + 1)[:, None]
        return _logsumexp_rows(np.where(k <= n, terms(n, np.minimum(k, n)), -math.inf).T)

    ns = np.arange(first, last + 1)
    peaks = _peak_counts(bp, a, ns)
    log_scale = ns * (abs(a) + max(-lp, -l1p, -lq, -l1q)) + lg[ns]
    out = np.empty(ns.size)
    for start in range(0, ns.size, _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, ns.size))
        h = math.ceil(math.sqrt(_WINDOW_NATS * (ns[rows[-1]] + 2) / 2.0)) + 1
        width = 2 * h + 1
        windowed = (ns[rows] >= width) & (log_scale[rows] <= _WINDOW_MAX_LOG)
        whole = rows[~windowed]
        if windowed.any():
            rows = rows[windowed]
            n = ns[rows]
            lo = np.clip(peaks[rows] - h, 0, n + 1 - width)
            e = terms(n, lo + np.arange(width)[:, None])
            m = e.max(axis=0)
            e -= m
            np.exp(e, out=e)
            # floored at the least normal float, as a left-out term may round to a larger subnormal
            edges = np.maximum(e[[0, -1]], 2.0**-1022)
            slack = lo * edges[0] + (n + 1 - width - lo) * edges[1]
            sums, ok = _sum2_rows(e.T, _EDGE_MARGIN * slack)
            out[rows[ok]] = m[ok] + [math.log(x) for x in sums[ok].tolist()]
            whole = np.concatenate([whole, rows[~ok]])
        if whole.size:
            out[whole] = whole_rows(ns[whole])
    return out - math.log(2.0)


def en_exact_log(bp: BinaryPair, n: int, a: float) -> float:
    """log e_n(a), accumulated in the log domain term by term."""
    _check_count(n)
    _check_threshold(n, a)
    return float(_en_exact_log_range(bp, a, n, n)[0])


def _crossover_s(bp: BinaryPair, a: float) -> float:
    """Fraction s where the two weighted likelihoods cross:

        s = (log((1-p)/(1-q)) - a) / log(q(1-p) / (p(1-q))).

    May fall outside [0, 1] when a leaves the admissible window; p = q is
    degenerate (constant likelihood ratio).
    """
    if bp.p == bp.q:
        raise DegeneracyError("p = q: the likelihood ratio is constant")
    num = math.log1p(-bp.p) - math.log1p(-bp.q) - a
    den = math.log(bp.q) - math.log(bp.p) + math.log1p(-bp.p) - math.log1p(-bp.q)
    if den == 0.0:
        raise DegeneracyError(f"p = {bp.p!r} and q = {bp.q!r}: the log likelihood ratio per draw rounds to 0")
    return num / den


def inc_beta_reg(z: float, k: float, l: float) -> float:
    """Regularized incomplete beta I_z(k, l) for k, l >= 0 and z in [0, 1].

    Evaluated by scipy.special.betainc, imported here so that importing
    the package does not load scipy.special. Degenerate shapes follow the
    point-mass conventions: k = 0 gives 1 (all mass at 0), l = 0 gives 0 for
    z < 1 (all mass at 1).
    """
    if not 0.0 <= z <= 1.0:
        raise ValidationError(f"need z in [0, 1], got {z}")
    if k < 0.0 or l < 0.0 or (k == 0.0 and l == 0.0):
        raise ValidationError(f"need k, l >= 0 and not both 0, got k={k}, l={l}")
    from scipy.special import betainc

    return float(betainc(k, l, z))


class EnBounds(NamedTuple):
    lower: float
    upper: float


def _en_bounds_range(bp: BinaryPair, a: float, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of `en_bounds` for n = first..last, one betainc call per column.

    The crossover s does not depend on n, so the window is checked once,
    and so is the largest weight exp(-n a), which must be finite.
    """
    s = _crossover_s(bp, a)
    if not 0.0 < s < 1.0:
        raise ValidationError(f"threshold outside the admissible window: s = {s!r}")
    _mixed_weight(last, a)
    from scipy.special import betainc

    n = np.arange(first, last + 1)
    ns = n * s
    nc = n - ns
    # math.exp, not np.exp: the two differ by 1 ulp on some arguments
    w = np.array([math.exp(-m * a) for m in range(first, last + 1)])
    lower = (betainc(nc + 1.0, ns, 1.0 - bp.q) + w * betainc(ns + 1.0, nc, bp.p)) / 2.0
    upper = (betainc(nc, ns + 1.0, 1.0 - bp.q) + w * betainc(ns, nc + 1.0, bp.p)) / 2.0
    return lower, upper


def en_bounds(bp: BinaryPair, n: int, a: float) -> EnBounds:
    """Two-sided closed-form bounds on e_n(a):

        lower = (I_{1-q}(n(1-s)+1, ns) + exp(-n a) I_p(ns+1, n(1-s))) / 2
        upper = (I_{1-q}(n(1-s),  ns+1) + exp(-n a) I_p(ns,  n(1-s)+1)) / 2

    with I the regularized incomplete beta of `inc_beta_reg` and s the
    crossover fraction, which must lie strictly inside (0, 1).
    """
    _check_count(n)
    lower, upper = _en_bounds_range(bp, a, n, n)
    return EnBounds(lower=float(lower[0]), upper=float(upper[0]))


def incbeta_monotonicity_check(z: float, n: float, grid_points: int = 99) -> bool:
    """Check that x -> I_z(n - x, x) is nondecreasing on an interior grid of (0, n)."""
    if grid_points < 2:
        raise ValidationError(f"need at least 2 grid points, got {grid_points}")
    xs = [n * i / (grid_points + 1) for i in range(1, grid_points + 1)]
    vals = [inc_beta_reg(z, n - x, x) for x in xs]
    return all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class RateCurveRow(NamedTuple):
    n: int
    rate_exact: float
    rate_lower: float
    rate_upper: float
    chernoff: float


def _neg_log_rate(x: float, n: int) -> float:
    """-log(x)/n, NaN where an envelope underflowed to 0."""
    return -math.log(x) / n if x > 0.0 else math.nan


def rate_curve(bp: BinaryPair, a: float, n_max: int) -> list[RateCurveRow]:
    """Error-rate table for n = 1..n_max: -log(e_n)/n, its two-sided bounds
    from en_bounds (upper bound on e_n gives the lower rate), and the
    Chernoff constant. Bound columns are NaN when the crossover is outside
    (0, 1) or exp(-n_max a) overflows, and a bound cell is NaN where its
    envelope underflows to 0. n_max must be an integer, and a and -n_max a
    finite."""
    _check_count(n_max, "n_max")
    _check_threshold(n_max, a)
    curve = psi_curve_from_probabilities([bp.p, 1.0 - bp.p], [bp.q, 1.0 - bp.q])
    chern, _ = chernoff_distance(curve)
    ns = range(1, n_max + 1)
    rate_exact = (-_en_exact_log_range(bp, a, 1, n_max) / np.arange(1, n_max + 1)).tolist()
    try:
        lower, upper = _en_bounds_range(bp, a, 1, n_max)
        rate_lower = map(_neg_log_rate, upper.tolist(), ns)
        rate_upper = map(_neg_log_rate, lower.tolist(), ns)
    except (DegeneracyError, ValidationError):
        rate_lower = rate_upper = [math.nan] * n_max
    return [RateCurveRow(*row, chern) for row in zip(ns, rate_exact, rate_lower, rate_upper)]

