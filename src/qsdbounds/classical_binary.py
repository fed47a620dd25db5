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

from .divergences import _logsumexp, chernoff_distance, psi_curve_from_probabilities
from .errors import DegeneracyError, ValidationError
from .ns_mapping import _log_factorials


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


def en_exact_log(bp: BinaryPair, n: int, a: float) -> float:
    """log e_n(a), accumulated in the log domain term by term."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    k = np.arange(n + 1)
    lg = _log_factorials(n)
    log_comb = lg[n] - lg - lg[::-1]
    null = -n * a + log_comb + k * math.log(bp.p) + (n - k) * math.log1p(-bp.p)
    alt = log_comb + k * math.log(bp.q) + (n - k) * math.log1p(-bp.q)
    return _logsumexp(np.minimum(null, alt)) - math.log(2.0)


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


def en_bounds(bp: BinaryPair, n: int, a: float) -> EnBounds:
    """Two-sided closed-form bounds on e_n(a):

        lower = (I_{1-q}(n(1-s)+1, ns) + exp(-n a) I_p(ns+1, n(1-s))) / 2
        upper = (I_{1-q}(n(1-s),  ns+1) + exp(-n a) I_p(ns,  n(1-s)+1)) / 2

    with s the crossover fraction, which must lie strictly inside (0, 1).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    s = crossover_s(bp, a)
    if not 0.0 < s < 1.0:
        raise ValidationError(f"threshold outside the admissible window: s = {s!r}")
    ns = n * s
    nc = n - ns
    w = math.exp(-n * a)
    lower = (inc_beta_reg(1.0 - bp.q, nc + 1.0, ns) + w * inc_beta_reg(bp.p, ns + 1.0, nc)) / 2.0
    upper = (inc_beta_reg(1.0 - bp.q, nc, ns + 1.0) + w * inc_beta_reg(bp.p, ns, nc + 1.0)) / 2.0
    return EnBounds(lower=lower, upper=upper)


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


def rate_curve(bp: BinaryPair, a: float, n_max: int) -> list[RateCurveRow]:
    """Error-rate table for n = 1..n_max: -log(e_n)/n, its two-sided bounds
    from en_bounds (upper bound on e_n gives the lower rate), and the
    Chernoff constant. Bound columns are NaN when the crossover is outside
    (0, 1)."""
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    curve = psi_curve_from_probabilities([bp.p, 1.0 - bp.p], [bp.q, 1.0 - bp.q])
    chern, _ = chernoff_distance(curve)
    rows = []
    for n in range(1, n_max + 1):
        rate_exact = -en_exact_log(bp, n, a) / n
        try:
            lo, up = en_bounds(bp, n, a)
            rate_lower = -math.log(up) / n
            rate_upper = -math.log(lo) / n
        except (DegeneracyError, ValidationError):
            rate_lower = math.nan
            rate_upper = math.nan
        rows.append(RateCurveRow(n, rate_exact, rate_lower, rate_upper, chern))
    return rows


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
