"""Finite-sample bounds on discrimination error exponents.

Every function returns a BoundReport whose bound_value is a per-copy
log-rate in nats: for a quantity x_n the report bounds (1/n) log x_n from
the stated side. Reports are marked invalid (with a reason) whenever a
precondition of the generating inequality fails; invalid reports carry NaN.

n is an int or, as for the quantum oracles, a 1-D sequence of n (`linalg._counts`),
which gives one report whose n and bound_value are arrays: NaN where the bound
does not hold, `reason` saying why, and `valid` True only if it holds at every n.
Each closed form is evaluated over the array with the bits of one n at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, NamedTuple

import numpy as np

from .divergences import (
    ClassicalPair,
    _check_rate,
    _hoeffding_at,
    _memoized,
    _psi_at,
    _state_pair,
    _t_r_window,
    binary_entropy,
    chernoff_distance,
    eta,
    phi,
    psi,  # bound here for the benchmark's tracing, which wraps finite_bounds.psi
    relative_entropy,
    relative_entropy_variance,
    solve_t_r,
)
from .errors import ValidationError
from .linalg import SUPPORT_CUTOFF, DensityMatrix, _check_eps, _check_threshold, _counts

STEIN_VARIANTS = ("as_derived", "as_printed")
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: value, provenance parameters, and validity (n and bound_value
    are arrays for a sequence of n)."""

    n: int | np.ndarray
    quantity: str
    side: str
    bound_value: float | np.ndarray
    parameters: dict[str, Any] = field(default_factory=dict)
    valid: bool = True
    reason: str = ""

    def __eq__(self, other):
        """As the dataclass compares, but with arrays (n, bound_value and the parameters
        of a sequence of n) equal when their values are, NaN to NaN."""
        return _same(vars(self), vars(other)) if other.__class__ is self.__class__ else NotImplemented


def _same(x, y) -> bool:
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(v, y[k]) for k, v in x.items())
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y, equal_nan=True)
    return x is y or x == y


def _report(n, quantity: str, side: str, params: dict, value=math.nan, reason: str = "",
            n_min: float = 1) -> BoundReport:
    """The report of a bound at n: invalid with `reason` if one is given, else invalid
    where n < n_min, else `value`, a float or an array over the n of a sequence."""
    if isinstance(n, np.ndarray):
        holds = (n >= n_min) & (not reason)
        value, short = np.where(holds, value, math.nan), not holds.all()
    else:
        short = n < n_min
        value = math.nan if reason or short else value
    if short and not reason:
        reason = f"needs n >= {n_min!r}"
    return BoundReport(n, quantity, side, value, params, not reason, reason)


def _largest(n):
    """The largest n of an int or an array of them (0 for an empty array)."""
    return int(n.max(initial=0)) if isinstance(n, np.ndarray) else n


def _sqrt(n):
    """math.sqrt of n, or np.sqrt of an array of n: both round correctly."""
    return np.sqrt(n) if isinstance(n, np.ndarray) else math.sqrt(n)


def _log(n):
    """math.log of n, or of each n of an array: np.log may be an ulp off math.log."""
    return np.array([math.log(k) for k in n.tolist()]) if isinstance(n, np.ndarray) else math.log(n)


def stein_upper_generic(curve: ClassicalPair, n, eps: float, t: float) -> BoundReport:
    """Upper bound on (1/n) log beta_{n, eps} from the Renyi divergence at order t in [0, 1)."""
    n = _counts(n)
    _check_eps(eps)
    if not 0.0 <= t < 1.0:
        raise ValidationError(f"t must lie in [0, 1), got {t}")
    params = {"eps": eps, "t": t}
    if curve.orthogonal_supports:
        return _report(n, "stein_rate", "upper", params, reason="orthogonal supports")
    d_t = _psi_at(curve, t) / (t - 1.0)
    value = -d_t + (t / (1.0 - t)) * math.log(1.0 / eps) / n - binary_entropy(t) / ((1.0 - t) * n)
    params["renyi"] = d_t
    return _report(n, "stein_rate", "upper", params, value)


def _stein_sqrt_coefficient(log_inv: float, log_eta: float, variant: str) -> float:
    if variant == "as_printed":
        return 4.0 * math.sqrt(2.0) * log_inv * log_eta
    if variant == "as_derived":
        return 4.0 * math.sqrt(2.0) * math.sqrt(log_inv) * log_eta
    raise ValidationError(f"unknown variant {variant!r}; expected one of {STEIN_VARIANTS}")


def stein_upper(curve: ClassicalPair, n, eps: float, variant: str = "as_derived") -> BoundReport:
    """Upper bound on (1/n) log beta_{n, eps}: -D + coeff/sqrt(n) - 2 log 2 / n.

    The "as_printed" coefficient is 4 sqrt(2) log(1/eps) log(eta); the
    default "as_derived" coefficient replaces log(1/eps) by its square root.
    """
    n = _counts(n)
    _check_eps(eps)
    et = eta(curve)
    params = {"eps": eps, "variant": variant, "eta": et}
    if math.isinf(et):
        return _report(n, "stein_rate", "upper", params, reason="support containment fails: eta is infinite")
    d = relative_entropy(curve)
    params["relative_entropy"] = d
    coeff = _stein_sqrt_coefficient(math.log(1.0 / eps), math.log(et), variant)
    value = -d + coeff / _sqrt(n) - 2.0 * math.log(2.0) / n
    return _report(n, "stein_rate", "upper", params, value)


def stein_lower(curve: ClassicalPair, n, eps: float, variant: str = "as_derived") -> BoundReport:
    """Lower bound on (1/n) log beta_{n, eps}: -D - coeff/sqrt(n) with log(1/(1-eps))."""
    n = _counts(n)
    _check_eps(eps)
    et = eta(curve)
    params = {"eps": eps, "variant": variant, "eta": et}
    if math.isinf(et):
        return _report(n, "stein_rate", "lower", params, reason="support containment fails: eta is infinite")
    d = relative_entropy(curve)
    params["relative_entropy"] = d
    coeff = _stein_sqrt_coefficient(math.log(1.0 / (1.0 - eps)), math.log(et), variant)
    value = -d - coeff / _sqrt(n)
    return _report(n, "stein_rate", "lower", params, value)


def stein_upper_intermediate(curve: ClassicalPair, n, eps: float, cosh_c: float) -> BoundReport:
    """Sharper Stein upper bound with a free parameter cosh_c > 1:

        -D + 2 sqrt(4 cosh_c (log eta)^2 log(1/eps)) / sqrt(n) - 2 log 2 / n,

    valid once n >= log(1/eps)/(cosh_c (log eta)^2) and n >= log(1/eps)/(c^2 cosh_c)
    with c = arccosh(cosh_c). cosh_c = 2 log(1/eps) recovers the printed form
    and cosh_c = 2 the derived one.
    """
    n = _counts(n)
    _check_eps(eps)
    if cosh_c <= 1.0:
        raise ValidationError(f"cosh_c must exceed 1, got {cosh_c}")
    et = eta(curve)
    params = {"eps": eps, "cosh_c": cosh_c, "eta": et}
    if math.isinf(et):
        return _report(n, "stein_rate", "upper", params, reason="support containment fails: eta is infinite")
    d = relative_entropy(curve)
    log_eta = math.log(et)
    log_inv = math.log(1.0 / eps)
    c = math.acosh(cosh_c)
    n_min = max(log_inv / (cosh_c * log_eta**2), log_inv / (c**2 * cosh_c))
    params.update({"relative_entropy": d, "n_min": n_min})
    value = -d + 2.0 * math.sqrt(4.0 * cosh_c * log_eta**2 * log_inv) / _sqrt(n) - 2.0 * math.log(2.0) / n
    return _report(n, "stein_rate", "upper", params, value, n_min=n_min)


def hoeffding_upper(curve: ClassicalPair, n, r: float) -> BoundReport:
    """Upper bound on (1/n) log beta at type-I budget exp(-n r):

        -H_r - h2(t_r) / ((1 - t_r) n),

    where t_r = 0 once r >= -psi(0) - psi'(0) and otherwise solves
    r = (t-1) psi'(t) - psi(t). Needs a finite r > -psi(1).
    """
    n = _counts(n)
    _check_rate(r)
    params: dict[str, Any] = {"r": r}
    if curve.orthogonal_supports:
        return _report(n, "hoeffding_rate", "upper", params, reason="orthogonal supports")
    lo_end, hi_end = _t_r_window(curve)
    if r <= lo_end:
        return _report(n, "hoeffding_rate", "upper", params, reason=f"needs r > {lo_end!r}")
    t_r = 0.0 if r >= hi_end else solve_t_r(curve, r)
    h_r = _hoeffding_at(curve, r, t_r)
    value = -h_r - binary_entropy(t_r) / ((1.0 - t_r) * n)
    params.update({"t_r": t_r, "hoeffding_distance": h_r})
    return _report(n, "hoeffding_rate", "upper", params, value)


class MixedUpperBounds(NamedTuple):
    mixed: BoundReport
    alpha: BoundReport
    beta: BoundReport


def mixed_upper(curve: ClassicalPair, n, a: float) -> MixedUpperBounds:
    """Upper bounds at threshold a: (1/n) log e_n(a) <= -phi(a), and for the
    halfspace-type test, alpha rate <= -phi_hat(a), beta rate <= -phi(a).
    a and -n a must be finite."""
    n = _counts(n)
    _check_threshold(_largest(n), a)
    params: dict[str, Any] = {"a": a}
    if curve.orthogonal_supports:
        return MixedUpperBounds(*(_report(n, f"{field}_rate", "upper", params, reason="orthogonal supports")
                                  for field in MixedUpperBounds._fields))
    value = phi(curve, a)
    params.update({"phi": value, "phi_hat": value - a})
    return MixedUpperBounds(_report(n, "mixed_rate", "upper", params, -value),
                            _report(n, "alpha_rate", "upper", params, -(value - a)),
                            _report(n, "beta_rate", "upper", params, -value))


class ClassicalLowerBounds(NamedTuple):
    alpha: BoundReport
    beta: BoundReport


@_memoized
def _min_masses(pair: ClassicalPair) -> tuple[float, float]:
    """(min p, min q), the masses the method-of-types penalty reads."""
    return float(np.min(pair.p)), float(np.min(pair.q))


def _types_penalty(n, card: int, *minima: float) -> tuple:
    """Shared method-of-types penalty: the common log-n part, then the additive constant of each minimum mass."""
    common = -1.5 * (card - 1) * _log(n) / n + 1.0 / (n * (12.0 * n + 1.0))
    return (common, *((card - 1) * (1.0 + 2.0 * math.log(1.0 / m)) + 1.3 for m in minima))


def _types_n_min(n, card: int) -> int:
    """card (card - 1), the first n of a method-of-types bound; ValidationError if every n is below it."""
    if _largest(n) < card * (card - 1):
        raise ValidationError(f"needs n >= {card * (card - 1)}")
    return card * (card - 1)


def classical_lower(pair: ClassicalPair, n, r: float) -> ClassicalLowerBounds:
    """Lower bounds on the classical error rates at threshold a_r:

        (1/n) log alpha >= -r   - (3(|X|-1)/2) log(n)/n - c_n/n + 1/(n(12n+1)),
        (1/n) log beta  >= -H_r - (3(|X|-1)/2) log(n)/n - d_n/n + 1/(n(12n+1)),

    with c_n, d_n <= (|X|-1)(1 + 2 log(1/min mass)) + 1.3. Valid for
    -psi(1) < r < -psi(0) - psi'(0) and n >= |X|(|X|-1).
    """
    n = _counts(n)
    card = pair.size
    params: dict[str, Any] = {"r": r, "alphabet": card}
    try:
        n_min = _types_n_min(n, card)
        t_r = solve_t_r(pair, r)
    except ValidationError as exc:
        return ClassicalLowerBounds(*(_report(n, f"{field}_rate", "lower", params, reason=str(exc))
                                      for field in ClassicalLowerBounds._fields))
    h_r = _hoeffding_at(pair, r, t_r)
    p_min, q_min = _min_masses(pair)
    common, c_n, d_n = _types_penalty(n, card, p_min, q_min)
    params.update({"t_r": t_r, "a_r": h_r - r, "hoeffding_distance": h_r,
                   "c_n": c_n, "d_n": d_n, "p_min": p_min, "q_min": q_min})
    return ClassicalLowerBounds(_report(n, "alpha_rate", "lower", params, -r + common - c_n / n, n_min=n_min),
                                _report(n, "beta_rate", "lower", params, -h_r + common - d_n / n, n_min=n_min))


def _union_support_dim(rho: DensityMatrix, sigma: DensityMatrix) -> int:
    w = np.linalg.eigvalsh(rho.array + sigma.array)
    return int(np.count_nonzero(w > SUPPORT_CUTOFF * max(1.0, float(w.max()))))


def _quantum_types_setup(rho: DensityMatrix, sigma: DensityMatrix, n, params: dict) -> tuple[ClassicalPair, int]:
    """(pair, d^2): the induced classical pair of the quantum lower bounds and its alphabet size.

    Records d in params; raises ValidationError with the reason the bound is
    unavailable (orthogonal supports, or every n < d^2 (d^2 - 1)). d, the
    union support dimension, is kept in rho.pair_memo(sigma), next to the
    state pair's one ClassicalPair and the searches memoized on it.
    """
    memo = rho.pair_memo(sigma)
    if "d" not in memo:
        memo["d"] = _union_support_dim(rho, sigma)
    d = memo["d"]
    params["d"] = d
    pair = _state_pair(rho, sigma)
    if pair.orthogonal_supports:
        raise ValidationError("orthogonal supports: the classical alphabet is empty")
    _types_n_min(n, d * d)
    return pair, d * d


def quantum_mixed_lower(rho: DensityMatrix, sigma: DensityMatrix, n, r: float) -> BoundReport:
    """Lower bound on (1/n) log e_n(a_r):

        -H_r - (3(d^2-1)/2) log(n)/n - c/n + 1/(n(12n+1)),

    with d the dimension of the joint support of the two states and
    c <= (d^2-1)(1 - 2 log min(p_min, q_min)) + 1.3 over the induced
    classical pair. Valid for -psi(1) < r < -psi(0) - psi'(0) and
    n >= d^2 (d^2 - 1).
    """
    n = _counts(n)
    params: dict[str, Any] = {"r": r}
    try:
        pair, card = _quantum_types_setup(rho, sigma, n, params)
        t_r = solve_t_r(pair, r)
    except ValidationError as exc:
        return _report(n, "mixed_rate", "lower", params, reason=str(exc))
    h_r = _hoeffding_at(pair, r, t_r)
    p_min, q_min = _min_masses(pair)
    common, c = _types_penalty(n, card, min(p_min, q_min))
    params.update({"t_r": t_r, "a_r": h_r - r, "hoeffding_distance": h_r, "c": c, "p_min": p_min, "q_min": q_min})
    return _report(n, "mixed_rate", "lower", params, -h_r + common - c / n, n_min=card * (card - 1))


def quantum_chernoff_lower(rho: DensityMatrix, sigma: DensityMatrix, n) -> BoundReport:
    """Symmetric specialization of quantum_mixed_lower at threshold a = 0.

    Requires psi' to have a root in (0, 1); the corresponding rate is the
    Chernoff distance and the bound reads -C - penalties.
    """
    n = _counts(n)
    params: dict[str, Any] = {}
    try:
        pair, card = _quantum_types_setup(rho, sigma, n, params)
    except ValidationError as exc:
        return _report(n, "mixed_rate", "lower", params, reason=str(exc))
    chern, t_0 = chernoff_distance(pair)
    if not 0.0 < t_0 < 1.0:
        return _report(n, "mixed_rate", "lower", params, reason="psi' has no root in (0, 1)")
    p_min, q_min = _min_masses(pair)
    common, c = _types_penalty(n, card, min(p_min, q_min))
    params.update({"t_0": t_0, "chernoff": chern, "c": c, "p_min": p_min, "q_min": q_min})
    return _report(n, "mixed_rate", "lower", params, -chern + common - c / n, n_min=card * (card - 1))


def second_order_reference(curve: ClassicalPair, n, eps: float) -> BoundReport:
    """Asymptotic reference line -D + sqrt(V) q(eps) / sqrt(n), not a proven bound.

    q is the standard normal quantile (cumulative distribution from -inf),
    so the correction is negative for eps < 1/2.
    """
    n = _counts(n)
    _check_eps(eps)
    params: dict[str, Any] = {"eps": eps, "asymptotic_reference": True}
    if not curve.a_support_contained:
        return _report(n, "stein_rate", "reference", params, reason="support containment fails")
    d = relative_entropy(curve)
    v = relative_entropy_variance(curve)
    params.update({"relative_entropy": d, "variance": v})
    value = -d + math.sqrt(v) * _STANDARD_NORMAL.inv_cdf(eps) / _sqrt(n)
    return _report(n, "stein_rate", "reference", params, value)
