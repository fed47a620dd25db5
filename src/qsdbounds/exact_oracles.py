"""Exact small-n error computations serving as ground truth for every bound.

All quantities here are computed without asymptotics: trace norms of the
weighted difference operator, spectral projections of likelihood-ratio type
tests, the dual form of the minimal type-II error at fixed type-I budget,
and the randomized classical Neyman-Pearson value via type enumeration.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._search import golden_max
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .linalg import (
    DIM_CAP,
    DensityMatrix,
    HermitianMatrix,
    matrix_power_support,
    positive_part_trace,
    tensor_power,
    trace_norm,
)
from .ns_mapping import MAX_TYPES, _type_sums, _type_table

_KERNEL_TOL = 1e-12


def _tensor_pair(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, dim_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if rho.dim**n > dim_cap:
        raise ResourceLimitError(f"product dimension {rho.dim}^{n} exceeds cap {dim_cap}")
    return tensor_power(rho.matrix, n, dim_cap).array, tensor_power(sigma.matrix, n, dim_cap).array


def quantum_mixed_error_exact(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float, dim_cap: int = DIM_CAP
) -> float:
    """Optimal mixed error e_n(a) = (1 + exp(-n a))/2 - ||exp(-n a) rho_n - sigma_n||_1 / 2."""
    rn, sn = _tensor_pair(rho, sigma, n, dim_cap)
    kappa = math.exp(-n * a)
    diff = HermitianMatrix(kappa * rn - sn)
    return (kappa + 1.0) / 2.0 - trace_norm(diff) / 2.0


class NPTestErrors(NamedTuple):
    alpha: float
    beta: float
    degenerate_kernel: bool


def np_test_errors(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float, dim_cap: int = DIM_CAP
) -> NPTestErrors:
    """Errors of the projector test onto the strictly positive part of exp(-n a) rho_n - sigma_n.

    alpha = Tr rho_n (I - T), beta = Tr sigma_n T. Eigenvalues within 1e-12 of
    zero are excluded from T and flagged, since any split of the kernel is
    optimal and the reported pair is then one choice among several.
    """
    rn, sn = _tensor_pair(rho, sigma, n, dim_cap)
    kappa = math.exp(-n * a)
    diff = HermitianMatrix(kappa * rn - sn)
    w, v = np.linalg.eigh(diff.array)
    pos = w > _KERNEL_TOL
    degenerate = bool(np.any(np.abs(w) <= _KERNEL_TOL))
    cols = v[:, pos]
    alpha = 1.0 - math.fsum(np.einsum("ij,jk,ki->i", cols.conj().T, rn, cols).real)
    beta = math.fsum(np.einsum("ij,jk,ki->i", cols.conj().T, sn, cols).real)
    alpha = min(max(alpha, 0.0), 1.0)
    beta = min(max(beta, 0.0), 1.0)
    return NPTestErrors(alpha=alpha, beta=beta, degenerate_kernel=degenerate)


def beta_eps_exact(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, eps: float, dim_cap: int = DIM_CAP
) -> float:
    """Minimal type-II error at type-I budget eps over all operator tests.

    beta is exactly 0 when (Tr rho Pi)^n <= eps for Pi the support projector
    of sigma: the test I - Pi^(tensor n) then meets the budget, and no test
    with zero type-II error does better. Otherwise it is computed through
    the dual

        beta = sup over lam >= 0 of (1 - eps) lam - Tr(lam rho_n - sigma_n)_+ ,

    whose objective is concave in lam (piecewise linear only when rho and
    sigma commute), maximized by bracketing doubling plus golden-section
    refinement. The result is clamped to [0, 1].
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    rn, sn = _tensor_pair(rho, sigma, n, dim_cap)
    support = matrix_power_support(sigma.spectral(), 0.0).array
    if float(np.einsum("ij,ji->", rho.array, support).real) ** n <= eps:
        return 0.0

    def objective(lam: float) -> float:
        return (1.0 - eps) * lam - positive_part_trace(HermitianMatrix(lam * rn - sn))

    lam_hi = 1.0
    for _ in range(200):
        if objective(2.0 * lam_hi) <= objective(lam_hi):
            break
        lam_hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the dual maximizer")
    lam_hi *= 2.0
    _, value = golden_max(objective, 0.0, lam_hi, 1e-10 * max(1.0, lam_hi))
    return min(max(value, 0.0), 1.0)


def classical_beta_eps_exact(
    p, q, n: int, eps: float, max_types: int = MAX_TYPES
) -> float:
    """Randomized Neyman-Pearson type-II error for classical distributions.

    Outcome types are sorted by likelihood ratio descending and accepted
    greedily until the retained p-mass reaches 1 - eps exactly, randomizing
    the boundary type; returns the q-mass of the acceptance region.
    """
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape or pa.ndim != 1 or pa.size == 0:
        raise ValidationError("p and q must be nonempty vectors of equal length")
    if np.any(pa < 0.0) or np.any(qa < 0.0) or np.any((pa == 0.0) & (qa == 0.0)):
        raise ValidationError("p and q must be nonnegative with p + q > 0 per letter")
    if abs(math.fsum(pa) - 1.0) > 1e-9 or abs(math.fsum(qa) - 1.0) > 1e-9:
        raise ValidationError("p and q must each sum to 1 within 1e-9")
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    counts, log_coef = _type_table(n, pa.size, max_types)
    zero_p = pa == 0.0
    zero_q = qa == 0.0
    weights = np.column_stack(
        (np.log(np.where(zero_p, 1.0, pa)), np.log(np.where(zero_q, 1.0, qa)), zero_p, zero_q)
    )
    s_p, s_q, hits_p, hits_q = _type_sums(counts, weights)
    # a type that draws a zero-mass letter has zero mass
    mass_p = np.where(hits_p > 0.0, 0.0, np.exp(log_coef + s_p))
    mass_q = np.where(hits_q > 0.0, 0.0, np.exp(log_coef + s_q))
    keep = mass_p > 0.0
    key = np.where(mass_q == 0.0, math.inf, s_p - s_q)[keep]
    order = np.argsort(-key, kind="stable")
    mass_p = mass_p[keep][order]
    mass_q = mass_q[keep][order]
    # p-budget left before each type, subtracted in the acceptance order
    remaining = np.subtract.accumulate(np.concatenate(([1.0 - eps], mass_p)))[:-1]
    fits = (remaining > 1e-15) & (mass_p <= remaining)
    stop = int(np.argmin(fits)) if not fits.all() else fits.size
    beta = math.fsum(mass_q[:stop])
    if stop < fits.size and remaining[stop] > 1e-15:
        beta += (remaining[stop] / mass_p[stop]) * mass_q[stop]
    return min(max(beta, 0.0), 1.0)
