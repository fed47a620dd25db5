"""Divergence-type quantities for a pair of positive semidefinite operators (A, B).

Everything is driven by the log-moment curve

    psi(t) = log Tr A^t B^(1-t),

evaluated through the joint-support representation: psi equals the classical
log-moment curve of the pair of weighted measures p(i,j) = a_i Tr P_i Q_j,
q(i,j) = b_j Tr P_i Q_j built from the spectral decompositions. Derived
quantities: Renyi divergences, relative entropy and its variance, Chernoff
and Hoeffding distances, the Legendre-type transforms phi / phi_hat, and the
cutoff parameter solving r = (t-1) psi'(t) - psi(t).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._search import bisect_decreasing
from .errors import DegeneracyError, ValidationError
from .linalg import DensityMatrix, SpectralDecomposition, _fsum, _fsum_rows, support_overlap_table

_CONTAINMENT_TOL = 1e-10
_BOUNDARY_TOL = 1e-13
_BOUNDARY_ULPS = 4
_GRID_BLOCK = 1 << 14  # most tilted weights in one table of `_psi_moments_rows`


@dataclass(frozen=True, eq=False)
class ClassicalPair:
    """Weighted measure pair (p, q) on a joint-support alphabet, defining psi(t).

    For an operator pair, letter k = labels[k] = (i, j) is a pair of
    eigenvalue indices with p[k] = a_i Tr P_i Q_j and q[k] = b_j Tr P_i Q_j
    (see `build_psi`). Masses are strictly positive; an empty alphabet means
    orthogonal supports (psi = -inf everywhere). a_support_contained is
    False when part of A lies outside the support of B.

    p, q and the derived log_p, log_q and log_ratios = log_p - log_q are
    read-only copies made at construction, so every quantity derived from
    the pair is fixed for its life: `_memo` keeps the roots of the searches
    (t_r per r, the conjugate point per a), psi at the points the finite-n
    bounds read (t_r, the conjugate points, a Renyi order), the window of
    t_r, and D, V and eta once computed, so a sweep over n pays each search
    and each psi evaluation once. Calls that raise are not memoized. Equality
    is identity: numpy arrays have no single truth value.
    """

    labels: tuple[tuple[int, int], ...]
    p: np.ndarray
    q: np.ndarray
    a_support_contained: bool = True
    log_p: np.ndarray = field(init=False, repr=False)
    log_q: np.ndarray = field(init=False, repr=False)
    log_ratios: np.ndarray = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        p, q = np.array(self.p, dtype=np.float64), np.array(self.q, dtype=np.float64)
        if p.ndim != 1 or p.shape != q.shape or p.size != len(self.labels):
            raise ValidationError("labels, p and q must be vectors of equal length")
        if not (np.all(p > 0.0) and np.all(q > 0.0)):
            raise ValidationError("p and q must be strictly positive (shared support)")
        log_p, log_q = np.log(p), np.log(q)
        for name, arr in (("p", p), ("q", q), ("log_p", log_p), ("log_q", log_q),
                          ("log_ratios", log_p - log_q)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.p.size)

    @property
    def orthogonal_supports(self) -> bool:
        return self.size == 0


_MISSING = object()


def _memoized(fn):
    """Keep fn(pair, *args) in pair._memo, keyed by fn and the exact args.

    A call that raises stores nothing, so it raises again on every call.
    Threads making the first call at once may each compute the value; as it
    depends only on the read-only arrays, they store the same float.
    """

    @functools.wraps(fn)
    def wrapper(pair: ClassicalPair, *args):
        key = (fn.__name__, *args)
        value = pair._memo.get(key, _MISSING)
        if value is _MISSING:
            value = pair._memo[key] = fn(pair, *args)
        return value

    return wrapper


def build_psi(a_dec: SpectralDecomposition, b_dec: SpectralDecomposition) -> ClassicalPair:
    """Nussbaum-Szkola pair of two PSD operators given by spectral decompositions.

    Letters are the rows (i, j, a_i, b_j, Tr P_i Q_j) of the joint-support
    table, with p = a_i Tr P_i Q_j and q = b_j Tr P_i Q_j; its psi is
    log Tr A^t B^(1-t).
    """
    rows = support_overlap_table(a_dec, b_dec)
    trace_a = math.fsum(v * r for v, r in zip(a_dec.eigenvalues, a_dec.ranks()))
    p = [a * w for (_, _, a, _, w) in rows]
    return ClassicalPair(
        labels=tuple((i, j) for (i, j, _, _, _) in rows),
        p=p,
        q=[b * w for (_, _, _, b, w) in rows],
        a_support_contained=math.fsum(p) >= trace_a - _CONTAINMENT_TOL * max(1.0, trace_a),
    )


def _state_pair(rho: DensityMatrix, sigma: DensityMatrix) -> ClassicalPair:
    """`build_psi` of two states, kept in rho.pair_memo(sigma): every caller,
    each thread included, gets the one pair stored first and its memo."""
    memo = rho.pair_memo(sigma)
    pair = memo.get("pair")
    if pair is None:
        pair = memo.setdefault("pair", build_psi(rho.spectral(), sigma.spectral()))
    return pair


def psi_curve_from_probabilities(p, q) -> ClassicalPair:
    """ClassicalPair of two positive weight vectors on a shared alphabet, letter k labelled (k, k)."""
    pa = np.asarray(p, dtype=np.float64)
    if pa.ndim != 1 or pa.size == 0:
        raise ValidationError("p and q must be nonempty vectors of equal length")
    return ClassicalPair(labels=tuple((k, k) for k in range(pa.size)), p=pa, q=q)


def _logsumexp_rows(values: np.ndarray) -> np.ndarray:
    """log sum exp over each row of a 2-D array by a shifted exact sum; -inf for empty rows.

    Each row is shifted by its maximum m and exponentiated, and all rows
    are summed at once by `linalg._fsum_rows`, which returns math.fsum of
    each row, the exactly rounded sum, without a Python loop or list. Each
    row's log is math.log, which np.log can miss by 1 ulp. A row whose
    maximum is not finite gives that maximum.
    """
    if values.shape[1] == 0:
        return np.full(values.shape[0], -math.inf)
    out = values.max(axis=1)
    finite = np.isfinite(out)
    with np.errstate(invalid="ignore"):  # inf - inf where the maximum is not finite
        terms = values - out[:, None]
    sums = _fsum_rows(np.exp(terms, out=terms))
    out[finite] += [math.log(x) for x in sums[finite].tolist()]
    return out


def _logsumexp(values: np.ndarray) -> float:
    """log sum exp(values) of a 1-D array: the one-row case of `_logsumexp_rows`."""
    return float(_logsumexp_rows(values.reshape(1, -1))[0])


def _require_joint_support(curve: ClassicalPair) -> None:
    if curve.orthogonal_supports:
        raise ValidationError("orthogonal supports: psi is -inf everywhere")


def _shifted_weights(curve: ClassicalPair, t: float) -> tuple[float, np.ndarray]:
    """(m, exp(log_q + t log_ratios - m)) with m the largest exponent, in one fresh array."""
    logw = curve.log_ratios * t
    logw += curve.log_q
    m = float(logw.max())
    logw -= m
    return m, np.exp(logw, out=logw)


def psi(curve: ClassicalPair, t: float) -> float:
    """psi(t) = log sum p^t q^(1-t); -inf for orthogonal supports."""
    if curve.orthogonal_supports:
        return -math.inf
    # summed unsorted: these terms span few decades, so sorting gains little
    # (771 -> 640 us on the 16,384 letters of a d = 128 pair) and on a small
    # alphabet costs more than the sum (0.3 -> 2.4 us at 4 letters)
    m, w = _shifted_weights(curve, t)
    return m + math.log(_fsum(w))


def _tilted(curve: ClassicalPair, t: float) -> tuple[float, np.ndarray]:
    """(psi(t), tilted measure at t) from one exponential pass; psi(t) is bit-identical to `psi`."""
    m, w = _shifted_weights(curve, t)
    total = _fsum(w)
    w /= total
    return m + math.log(total), w


def psi_moments(curve: ClassicalPair, t: float) -> tuple[float, float, float]:
    """(psi(t), psi'(t), psi''(t)) from one tilted pass, each bit-identical to
    `psi`, `psi_prime` and `psi_second`."""
    _require_joint_support(curve)
    value, mu = _tilted(curve, t)
    mean = _fsum(mu * curve.log_ratios)
    dev = curve.log_ratios - mean
    return value, mean, _fsum(mu * dev * dev)


def _psi_moments_rows(curve: ClassicalPair, ts: np.ndarray) -> np.ndarray:
    """`psi_moments` at each t of ts, as the rows of a (len(ts), 3) array, bit for bit.

    Each block of up to max(1, _GRID_BLOCK // curve.size) points is one
    table of tilted weights, its rows summed at once by `linalg._fsum_rows`,
    which gives math.fsum of each row, as `_fsum` does; the arithmetic of
    each entry is that of `_tilted` and `psi_moments`. For the 101 points of
    CLI `divergences` this took 0.27 ms against 0.94 ms at 4 letters, and
    68 ms against 86 ms at 16,384 (d = 128); one 101 x 16,384 table took
    149 ms (2-core Xeon).
    """
    _require_joint_support(curve)
    lr = curve.log_ratios
    out = np.empty((len(ts), 3))
    step = max(1, _GRID_BLOCK // curve.size)
    for start in range(0, len(ts), step):
        logw = lr * ts[start : start + step, None]
        logw += curve.log_q
        m = logw.max(axis=1)
        logw -= m[:, None]
        mu = np.exp(logw, out=logw)
        total = _fsum_rows(mu)
        mu /= total[:, None]
        rows = out[start : start + step]
        rows[:, 0] = m + [math.log(x) for x in total.tolist()]
        rows[:, 1] = mean = _fsum_rows(mu * lr)
        dev = lr - mean[:, None]
        mu *= dev
        mu *= dev
        rows[:, 2] = _fsum_rows(mu)
    return out


def psi_prime(curve: ClassicalPair, t: float) -> float:
    """psi'(t): mean of the log-ratio statistic under the tilted measure at t."""
    _require_joint_support(curve)
    mu = _tilted(curve, t)[1]
    mu *= curve.log_ratios
    return _fsum(mu)


@_memoized
def _psi_at(curve: ClassicalPair, t: float) -> float:
    """`psi` kept in the pair's memo, for the n-independent points a finite-n bound reads."""
    return psi(curve, t)


@_memoized
def _t_r_window(curve: ClassicalPair) -> tuple[float, float]:
    """(-psi(1), -psi(0) - psi'(0)), the open interval of r where t_r is defined."""
    return -psi(curve, 1.0), -psi(curve, 0.0) - psi_prime(curve, 0.0)


def psi_second(curve: ClassicalPair, t: float) -> float:
    """psi''(t): variance of the log-ratio statistic under the tilted measure at t."""
    return psi_moments(curve, t)[2]


def _is_degenerate(curve: ClassicalPair) -> bool:
    # q proportional to p: the log-ratio statistic is constant and psi is affine
    return curve.size > 0 and float(np.ptp(curve.log_ratios)) <= 1e-12


def renyi(curve: ClassicalPair, t: float) -> float:
    """Renyi divergence D_t = psi(t) / (t - 1) for t >= 0, t != 1.

    +inf when the supports are orthogonal and t is in [0, 1), and when the
    support of A is not contained in the support of B and t > 1.
    """
    if t < 0.0:
        raise ValidationError(f"renyi order must be >= 0, got {t}")
    if t == 1.0:
        raise ValidationError("renyi order t = 1 is the relative entropy; use relative_entropy")
    if t > 1.0 and not curve.a_support_contained:
        return math.inf
    if curve.orthogonal_supports:
        return math.inf
    return psi(curve, t) / (t - 1.0)


@_memoized
def relative_entropy(curve: ClassicalPair) -> float:
    """D(A||B) = sum p (log p - log q) over the joint support; +inf without support containment."""
    if not curve.a_support_contained:
        return math.inf
    return _fsum(np.exp(curve.log_p) * curve.log_ratios)


@_memoized
def relative_entropy_variance(curve: ClassicalPair) -> float:
    """Second-order coefficient V = psi''(1); requires support containment."""
    if not curve.a_support_contained:
        raise ValidationError("variance needs the support of A contained in the support of B")
    return psi_second(curve, 1.0)


@_memoized
def _conjugate_point(curve: ClassicalPair, a: float) -> float:
    """Leftmost maximizer over [0, 1] of a t - psi(t).

    psi is convex, so psi' is nondecreasing: the maximizer is 0 when
    psi'(0) >= a, 1 when psi'(1) <= a, and otherwise the root of psi'(t) = a.
    """
    if psi_prime(curve, 0.0) >= a:
        return 0.0
    if psi_prime(curve, 1.0) <= a:
        return 1.0
    return bisect_decreasing(lambda t: -psi_prime(curve, t), 0.0, 1.0, -a)


def chernoff_distance(curve: ClassicalPair) -> tuple[float, float]:
    """(-min over [0,1] of psi, leftmost argmin). Orthogonal supports give +inf."""
    if curve.orthogonal_supports:
        return math.inf, 0.0
    t_star = _conjugate_point(curve, 0.0)
    return -_psi_at(curve, t_star), t_star


def _hoeffding_at(curve: ClassicalPair, r: float, t: float) -> float:
    """Hoeffding objective (-t r - psi(t)) / (1 - t); equals H_r at t = t_r."""
    return (-t * r - _psi_at(curve, t)) / (1.0 - t)


def _check_rate(r: float) -> None:
    """Require a type-I exponent r that is finite and >= 0."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValidationError(f"rate r must be finite and >= 0, got {r!r}")


def hoeffding_distance(curve: ClassicalPair, r: float) -> float:
    """H_r = sup over 0 <= t < 1 of (-t r - psi(t)) / (1 - t) for r >= 0.

    The objective is concave in s = t / (1 - t) and stationary exactly where
    (t - 1) psi'(t) - psi(t) = r, so inside the window it is evaluated at
    t_r = solve_t_r(curve, r). Equals -psi(0) once r >= -psi(0) - psi'(0);
    +inf below -psi(1).
    """
    _check_rate(r)
    if curve.orthogonal_supports:
        return math.inf
    psi0 = psi(curve, 0.0)
    psi1 = psi(curve, 1.0)
    if r < -psi1 - _BOUNDARY_TOL:
        return math.inf
    if r <= -psi1 + _BOUNDARY_ULPS * math.ulp(max(1.0, abs(psi1))):
        # boundary value: the supremum is approached as t -> 1. Just above
        # -psi(1), t_r is accurate once r clears the rounding of psi(1) = m + log S,
        # which is about ulp(1) even when psi(1) is tiny; just below, H_r is +inf,
        # but psi(1) = 0 of nested supports holds only to the rounding of the
        # spectral data, so r within _BOUNDARY_TOL counts as on the boundary.
        return r + psi_prime(curve, 1.0)
    if r >= -psi0 - psi_prime(curve, 0.0):
        return -psi0
    return _hoeffding_at(curve, r, solve_t_r(curve, r))


def phi(curve: ClassicalPair, a: float) -> float:
    """phi(a) = max over t in [0,1] of (a t - psi(t)); concave conjugate on the unit interval."""
    _require_joint_support(curve)
    t = _conjugate_point(curve, a)
    return a * t - _psi_at(curve, t)


def phi_hat(curve: ClassicalPair, a: float) -> float:
    """phi_hat(a) = phi(a) - a."""
    return phi(curve, a) - a


@_memoized
def solve_t_r(curve: ClassicalPair, r: float) -> float:
    """Unique t in (0, 1) with (t - 1) psi'(t) - psi(t) = r.

    Defined for -psi(1) < r < -psi(0) - psi'(0); the left side is strictly
    decreasing in t (its derivative is (t - 1) psi''(t)), so bisection applies.
    Proportional measures are rejected as degenerate.
    """
    _require_joint_support(curve)
    if _is_degenerate(curve):
        raise DegeneracyError("measures are proportional: psi is affine and t_r is undefined")
    lo_end = -psi(curve, 1.0)
    hi_end = -psi(curve, 0.0) - psi_prime(curve, 0.0)
    if not (lo_end < r < hi_end):
        raise ValidationError(
            f"r = {r!r} outside the open interval ({lo_end!r}, {hi_end!r})"
        )

    def g(t: float) -> float:
        value, mu = _tilted(curve, t)
        mu *= curve.log_ratios
        return (t - 1.0) * _fsum(mu) - value

    return bisect_decreasing(g, 0.0, 1.0, r)


def a_r(curve: ClassicalPair, r: float) -> float:
    """Threshold a_r = H_r - r; satisfies phi(a_r) = H_r and phi_hat(a_r) = r."""
    _check_rate(r)
    if r <= -psi(curve, 1.0):
        raise ValidationError(f"a_r needs r > {-psi(curve, 1.0)!r}")
    return hoeffding_distance(curve, r) - r


@_memoized
def eta(curve: ClassicalPair) -> float:
    """eta = 1 + exp(D_{3/2} / 2) + exp(-D_{1/2} / 2); +inf without support containment."""
    d32 = renyi(curve, 1.5)
    if math.isinf(d32):
        return math.inf
    d12 = renyi(curve, 0.5)
    return 1.0 + math.exp(0.5 * d32) + math.exp(-0.5 * d12)


def binary_entropy(x: float) -> float:
    """h2(x) = -x log x - (1-x) log(1-x) on [0, 1], with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument must lie in [0, 1], got {x}")
    acc = 0.0
    if x > 0.0:
        acc -= x * math.log(x)
    if x < 1.0:
        acc -= (1.0 - x) * math.log(1.0 - x)
    return acc


@dataclass(frozen=True)
class DivergenceProfile:
    """Summary divergences for one state pair, all in nats."""

    relative_entropy: float
    chernoff: float
    chernoff_argmin_t: float
    eta: float
    variance: float


def profile_from_curve(curve: ClassicalPair) -> DivergenceProfile:
    """DivergenceProfile computed from an already-built ClassicalPair."""
    chern, t_star = chernoff_distance(curve)
    variance = (
        relative_entropy_variance(curve) if curve.a_support_contained else math.inf
    )
    return DivergenceProfile(
        relative_entropy=relative_entropy(curve),
        chernoff=chern,
        chernoff_argmin_t=t_star,
        eta=eta(curve),
        variance=variance,
    )

