"""Finite-sample bounds on discrimination error exponents.

Every function returns a BoundReport whose bound_value is a per-copy
log-rate in nats: for a quantity x_n the report bounds (1/n) log x_n from
the stated side. Reports are marked invalid (with a reason) whenever a
precondition of the generating inequality fails; invalid reports carry NaN.
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
from .linalg import SUPPORT_CUTOFF, DensityMatrix, _check_count, _check_eps, _check_threshold

STEIN_VARIANTS = ("as_derived", "as_printed")
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: value, provenance parameters, and validity."""

    n: int
    quantity: str
    side: str
    bound_value: float
    parameters: dict[str, Any] = field(default_factory=dict)
    valid: bool = True
    reason: str = ""


def _invalid(n: int, quantity: str, side: str, parameters: dict, reason: str) -> BoundReport:
    return BoundReport(
        n=n,
        quantity=quantity,
        side=side,
        bound_value=math.nan,
        parameters=parameters,
        valid=False,
        reason=reason,
    )


def stein_upper_generic(curve: ClassicalPair, n: int, eps: float, t: float) -> BoundReport:
    """Upper bound on (1/n) log beta_{n, eps} from the Renyi divergence at order t in [0, 1)."""
    _check_count(n)
    _check_eps(eps)
    if not 0.0 <= t < 1.0:
        raise ValidationError(f"t must lie in [0, 1), got {t}")
    params = {"eps": eps, "t": t}
    if curve.orthogonal_supports:
        return _invalid(n, "stein_rate", "upper", params, "orthogonal supports")
    d_t = _psi_at(curve, t) / (t - 1.0)
    value = (
        -d_t
        + (t / (1.0 - t)) * math.log(1.0 / eps) / n
        - binary_entropy(t) / ((1.0 - t) * n)
    )
    params["renyi"] = d_t
    return BoundReport(n=n, quantity="stein_rate", side="upper", bound_value=value, parameters=params)


def _stein_sqrt_coefficient(log_inv: float, log_eta: float, variant: str) -> float:
    if variant == "as_printed":
        return 4.0 * math.sqrt(2.0) * log_inv * log_eta
    if variant == "as_derived":
        return 4.0 * math.sqrt(2.0) * math.sqrt(log_inv) * log_eta
    raise ValidationError(f"unknown variant {variant!r}; expected one of {STEIN_VARIANTS}")


def stein_upper(curve: ClassicalPair, n: int, eps: float, variant: str = "as_derived") -> BoundReport:
    """Upper bound on (1/n) log beta_{n, eps}: -D + coeff/sqrt(n) - 2 log 2 / n.

    The "as_printed" coefficient is 4 sqrt(2) log(1/eps) log(eta); the
    default "as_derived" coefficient replaces log(1/eps) by its square root.
    """
    _check_count(n)
    _check_eps(eps)
    et = eta(curve)
    params = {"eps": eps, "variant": variant, "eta": et}
    if math.isinf(et):
        return _invalid(n, "stein_rate", "upper", params, "support containment fails: eta is infinite")
    d = relative_entropy(curve)
    params["relative_entropy"] = d
    coeff = _stein_sqrt_coefficient(math.log(1.0 / eps), math.log(et), variant)
    value = -d + coeff / math.sqrt(n) - 2.0 * math.log(2.0) / n
    return BoundReport(n=n, quantity="stein_rate", side="upper", bound_value=value, parameters=params)


def stein_lower(curve: ClassicalPair, n: int, eps: float, variant: str = "as_derived") -> BoundReport:
    """Lower bound on (1/n) log beta_{n, eps}: -D - coeff/sqrt(n) with log(1/(1-eps))."""
    _check_count(n)
    _check_eps(eps)
    et = eta(curve)
    params = {"eps": eps, "variant": variant, "eta": et}
    if math.isinf(et):
        return _invalid(n, "stein_rate", "lower", params, "support containment fails: eta is infinite")
    d = relative_entropy(curve)
    params["relative_entropy"] = d
    coeff = _stein_sqrt_coefficient(math.log(1.0 / (1.0 - eps)), math.log(et), variant)
    value = -d - coeff / math.sqrt(n)
    return BoundReport(n=n, quantity="stein_rate", side="lower", bound_value=value, parameters=params)


def stein_upper_intermediate(curve: ClassicalPair, n: int, eps: float, cosh_c: float) -> BoundReport:
    """Sharper Stein upper bound with a free parameter cosh_c > 1:

        -D + 2 sqrt(4 cosh_c (log eta)^2 log(1/eps)) / sqrt(n) - 2 log 2 / n,

    valid once n >= log(1/eps)/(cosh_c (log eta)^2) and n >= log(1/eps)/(c^2 cosh_c)
    with c = arccosh(cosh_c). cosh_c = 2 log(1/eps) recovers the printed form
    and cosh_c = 2 the derived one.
    """
    _check_count(n)
    _check_eps(eps)
    if cosh_c <= 1.0:
        raise ValidationError(f"cosh_c must exceed 1, got {cosh_c}")
    et = eta(curve)
    params = {"eps": eps, "cosh_c": cosh_c, "eta": et}
    if math.isinf(et):
        return _invalid(n, "stein_rate", "upper", params, "support containment fails: eta is infinite")
    d = relative_entropy(curve)
    log_eta = math.log(et)
    log_inv = math.log(1.0 / eps)
    c = math.acosh(cosh_c)
    n_min = max(log_inv / (cosh_c * log_eta**2), log_inv / (c**2 * cosh_c))
    params.update({"relative_entropy": d, "n_min": n_min})
    if n < n_min:
        return _invalid(n, "stein_rate", "upper", params, f"needs n >= {n_min!r}")
    value = (
        -d
        + 2.0 * math.sqrt(4.0 * cosh_c * log_eta**2 * log_inv) / math.sqrt(n)
        - 2.0 * math.log(2.0) / n
    )
    return BoundReport(n=n, quantity="stein_rate", side="upper", bound_value=value, parameters=params)


def hoeffding_upper(curve: ClassicalPair, n: int, r: float) -> BoundReport:
    """Upper bound on (1/n) log beta at type-I budget exp(-n r):

        -H_r - h2(t_r) / ((1 - t_r) n),

    where t_r = 0 once r >= -psi(0) - psi'(0) and otherwise solves
    r = (t-1) psi'(t) - psi(t). Needs a finite r > -psi(1).
    """
    _check_count(n)
    _check_rate(r)
    params: dict[str, Any] = {"r": r}
    if curve.orthogonal_supports:
        return _invalid(n, "hoeffding_rate", "upper", params, "orthogonal supports")
    lo_end, hi_end = _t_r_window(curve)
    if r <= lo_end:
        return _invalid(n, "hoeffding_rate", "upper", params, f"needs r > {lo_end!r}")
    if r >= hi_end:
        t_r = 0.0
    else:
        t_r = solve_t_r(curve, r)
    h_r = _hoeffding_at(curve, r, t_r)
    value = -h_r - binary_entropy(t_r) / ((1.0 - t_r) * n)
    params.update({"t_r": t_r, "hoeffding_distance": h_r})
    return BoundReport(n=n, quantity="hoeffding_rate", side="upper", bound_value=value, parameters=params)


class MixedUpperBounds(NamedTuple):
    mixed: BoundReport
    alpha: BoundReport
    beta: BoundReport


def mixed_upper(curve: ClassicalPair, n: int, a: float) -> MixedUpperBounds:
    """Upper bounds at threshold a: (1/n) log e_n(a) <= -phi(a), and for the
    halfspace-type test, alpha rate <= -phi_hat(a), beta rate <= -phi(a).
    a and -n a must be finite."""
    _check_count(n)
    _check_threshold(n, a)
    params: dict[str, Any] = {"a": a}
    if curve.orthogonal_supports:
        reason = "orthogonal supports"
        return MixedUpperBounds(
            _invalid(n, "mixed_rate", "upper", params, reason),
            _invalid(n, "alpha_rate", "upper", params, reason),
            _invalid(n, "beta_rate", "upper", params, reason),
        )
    value = phi(curve, a)
    params.update({"phi": value, "phi_hat": value - a})
    return MixedUpperBounds(
        mixed=BoundReport(n=n, quantity="mixed_rate", side="upper", bound_value=-value, parameters=params),
        alpha=BoundReport(n=n, quantity="alpha_rate", side="upper", bound_value=-(value - a), parameters=params),
        beta=BoundReport(n=n, quantity="beta_rate", side="upper", bound_value=-value, parameters=params),
    )


class ClassicalLowerBounds(NamedTuple):
    alpha: BoundReport
    beta: BoundReport


@_memoized
def _min_masses(pair: ClassicalPair) -> tuple[float, float]:
    """(min p, min q), the masses the method-of-types penalty reads."""
    return float(np.min(pair.p)), float(np.min(pair.q))


def _types_penalty(n: int, card: int, minimum: float) -> tuple[float, float]:
    """Shared method-of-types penalty: (common log-n part, additive constant)."""
    common = -1.5 * (card - 1) * math.log(n) / n + 1.0 / (n * (12.0 * n + 1.0))
    constant = (card - 1) * (1.0 + 2.0 * math.log(1.0 / minimum)) + 1.3
    return common, constant


def classical_lower(pair: ClassicalPair, n: int, r: float) -> ClassicalLowerBounds:
    """Lower bounds on the classical error rates at threshold a_r:

        (1/n) log alpha >= -r   - (3(|X|-1)/2) log(n)/n - c_n/n + 1/(n(12n+1)),
        (1/n) log beta  >= -H_r - (3(|X|-1)/2) log(n)/n - d_n/n + 1/(n(12n+1)),

    with c_n, d_n <= (|X|-1)(1 + 2 log(1/min mass)) + 1.3. Valid for
    -psi(1) < r < -psi(0) - psi'(0) and n >= |X|(|X|-1).
    """
    _check_count(n)
    card = pair.size
    params: dict[str, Any] = {"r": r, "alphabet": card}

    def pair_invalid(reason: str) -> ClassicalLowerBounds:
        return ClassicalLowerBounds(
            _invalid(n, "alpha_rate", "lower", params, reason),
            _invalid(n, "beta_rate", "lower", params, reason),
        )

    if n < card * (card - 1):
        return pair_invalid(f"needs n >= {card * (card - 1)}")
    try:
        t_r = solve_t_r(pair, r)
    except ValidationError as exc:
        return pair_invalid(str(exc))
    h_r = _hoeffding_at(pair, r, t_r)
    p_min, q_min = _min_masses(pair)
    common, c_n = _types_penalty(n, card, p_min)
    _, d_n = _types_penalty(n, card, q_min)
    params.update({"t_r": t_r, "a_r": h_r - r, "hoeffding_distance": h_r,
                   "c_n": c_n, "d_n": d_n, "p_min": p_min, "q_min": q_min})
    return ClassicalLowerBounds(
        alpha=BoundReport(n=n, quantity="alpha_rate", side="lower",
                          bound_value=-r + common - c_n / n, parameters=params),
        beta=BoundReport(n=n, quantity="beta_rate", side="lower",
                         bound_value=-h_r + common - d_n / n, parameters=params),
    )


def _union_support_dim(rho: DensityMatrix, sigma: DensityMatrix) -> int:
    w = np.linalg.eigvalsh(rho.array + sigma.array)
    return int(np.count_nonzero(w > SUPPORT_CUTOFF * max(1.0, float(w.max()))))


class _TypesSetup(NamedTuple):
    pair: ClassicalPair
    common: float
    c: float
    p_min: float
    q_min: float


def _quantum_types_setup(rho: DensityMatrix, sigma: DensityMatrix, n: int, params: dict) -> _TypesSetup:
    """Induced classical pair and method-of-types penalty shared by the quantum lower bounds.

    Records d in params; raises ValidationError with the reason the bound is
    unavailable (orthogonal supports, or n < d^2 (d^2 - 1)). The union
    support dimension d does not depend on n and is kept in
    rho.pair_memo(sigma), next to the state pair's one ClassicalPair, so
    that a sweep over n reuses one pair and the searches memoized on it.
    """
    memo = rho.pair_memo(sigma)
    if "d" not in memo:
        memo["d"] = _union_support_dim(rho, sigma)
    d = memo["d"]
    card = d * d
    params["d"] = d
    pair = _state_pair(rho, sigma)
    if pair.orthogonal_supports:
        raise ValidationError("orthogonal supports: the classical alphabet is empty")
    if n < card * (card - 1):
        raise ValidationError(f"needs n >= {card * (card - 1)}")
    p_min, q_min = _min_masses(pair)
    common, c = _types_penalty(n, card, min(p_min, q_min))
    return _TypesSetup(pair, common, c, p_min, q_min)


def quantum_mixed_lower(rho: DensityMatrix, sigma: DensityMatrix, n: int, r: float) -> BoundReport:
    """Lower bound on (1/n) log e_n(a_r):

        -H_r - (3(d^2-1)/2) log(n)/n - c/n + 1/(n(12n+1)),

    with d the dimension of the joint support of the two states and
    c <= (d^2-1)(1 - 2 log min(p_min, q_min)) + 1.3 over the induced
    classical pair. Valid for -psi(1) < r < -psi(0) - psi'(0) and
    n >= d^2 (d^2 - 1).
    """
    _check_count(n)
    params: dict[str, Any] = {"r": r}
    try:
        setup = _quantum_types_setup(rho, sigma, n, params)
        t_r = solve_t_r(setup.pair, r)
    except ValidationError as exc:
        return _invalid(n, "mixed_rate", "lower", params, str(exc))
    h_r = _hoeffding_at(setup.pair, r, t_r)
    params.update({"t_r": t_r, "a_r": h_r - r, "hoeffding_distance": h_r,
                   "c": setup.c, "p_min": setup.p_min, "q_min": setup.q_min})
    return BoundReport(n=n, quantity="mixed_rate", side="lower",
                       bound_value=-h_r + setup.common - setup.c / n, parameters=params)


def quantum_chernoff_lower(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> BoundReport:
    """Symmetric specialization of quantum_mixed_lower at threshold a = 0.

    Requires psi' to have a root in (0, 1); the corresponding rate is the
    Chernoff distance and the bound reads -C - penalties.
    """
    _check_count(n)
    params: dict[str, Any] = {}
    try:
        setup = _quantum_types_setup(rho, sigma, n, params)
    except ValidationError as exc:
        return _invalid(n, "mixed_rate", "lower", params, str(exc))
    chern, t_0 = chernoff_distance(setup.pair)
    if not 0.0 < t_0 < 1.0:
        return _invalid(n, "mixed_rate", "lower", params, "psi' has no root in (0, 1)")
    params.update({"t_0": t_0, "chernoff": chern, "c": setup.c,
                   "p_min": setup.p_min, "q_min": setup.q_min})
    return BoundReport(n=n, quantity="mixed_rate", side="lower",
                       bound_value=-chern + setup.common - setup.c / n, parameters=params)


def second_order_reference(curve: ClassicalPair, n: int, eps: float) -> BoundReport:
    """Asymptotic reference line -D + sqrt(V) q(eps) / sqrt(n), not a proven bound.

    q is the standard normal quantile (cumulative distribution from -inf),
    so the correction is negative for eps < 1/2.
    """
    _check_count(n)
    _check_eps(eps)
    params: dict[str, Any] = {"eps": eps, "asymptotic_reference": True}
    if not curve.a_support_contained:
        return _invalid(n, "stein_rate", "reference", params, "support containment fails")
    d = relative_entropy(curve)
    v = relative_entropy_variance(curve)
    params.update({"relative_entropy": d, "variance": v})
    value = -d + math.sqrt(v) * _STANDARD_NORMAL.inv_cdf(eps) / math.sqrt(n)
    return BoundReport(n=n, quantity="stein_rate", side="reference",
                       bound_value=value, parameters=params)
