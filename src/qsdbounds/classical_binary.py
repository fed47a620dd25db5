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
from .linalg import _check_count, _check_threshold, _mixed_weight
from .ns_mapping import _log_factorials

_ROW_BLOCK = 64  # rows of n per log-domain table of e_n


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


def _en_exact_log_range(bp: BinaryPair, a: float, first: int, last: int) -> np.ndarray:
    """log e_n(a) for n = first..last, accumulated in the log domain term by term.

    The terms log C(n,k) + min(null, alt) fill a table of _ROW_BLOCK rows
    of n at a time, with -inf past k = n, and each row is summed by
    `_logsumexp_rows`.
    """
    lp, l1p = math.log(bp.p), math.log1p(-bp.p)
    lq, l1q = math.log(bp.q), math.log1p(-bp.q)
    lg = _log_factorials(last)
    blocks = []
    for start in range(first, last + 1, _ROW_BLOCK):
        n = np.arange(start, min(start + _ROW_BLOCK, last + 1))[:, None]
        k = np.arange(n[-1, 0] + 1)
        inside = k <= n
        nk = np.where(inside, n - k, 0)
        log_comb = lg[n] - lg[k] - lg[nk]
        null = -n * a + log_comb + k * lp + nk * l1p
        alt = log_comb + k * lq + nk * l1q
        blocks.append(_logsumexp_rows(np.where(inside, np.minimum(null, alt), -math.inf)))
    return np.concatenate(blocks) - math.log(2.0)


def en_exact_log(bp: BinaryPair, n: int, a: float) -> float:
    """log e_n(a), accumulated in the log domain term by term."""
    _check_count(n)
    _check_threshold(n, a)
    return float(_en_exact_log_range(bp, a, n, n)[0])


def en_exact(bp: BinaryPair, n: int, a: float) -> float:
    """Optimal mixed error e_n(a) for the binary pair."""
    return math.exp(en_exact_log(bp, n, a))


def crossover_s(bp: BinaryPair, a: float) -> float:
    """Fraction s where the two weighted likelihoods cross:

        s = (log((1-p)/(1-q)) - a) / log(q(1-p) / (p(1-q))).

    May fall outside [0, 1] when a leaves the admissible window; p = q is
    degenerate (constant likelihood ratio).
    """
    if bp.p == bp.q:
        raise DegeneracyError("p = q: the likelihood ratio is constant")
    num = math.log1p(-bp.p) - math.log1p(-bp.q) - a
    den = math.log(bp.q) - math.log(bp.p) + math.log1p(-bp.p) - math.log1p(-bp.q)
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
    s = crossover_s(bp, a)
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


def _csv_cell(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return format(x, ".17g")


def rate_curve_csv(rows: list[RateCurveRow]) -> str:
    """Serialize rate_curve rows as CSV with 17-significant-digit floats."""
    lines = ["n,rate_exact,rate_lower,rate_upper,chernoff"]
    for row in rows:
        lines.append(
            ",".join(
                [str(row.n)]
                + [_csv_cell(x) for x in (row.rate_exact, row.rate_lower, row.rate_upper, row.chernoff)]
            )
        )
    return "\n".join(lines) + "\n"
