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
    _eigvalsh,
    _fsum,
    matrix_power_support,
    positive_part_trace,
    tensor_power,
    trace_norm,
)
from .ns_mapping import MAX_TYPES, _type_sums, _type_table

_KERNEL_TOL = 1e-12


def _sym_isometry(m: int) -> np.ndarray:
    """V_m: the symmetric basis of Sym^m(C^2) inside Sym^(m-1)(C^2) (x) C^2.

    Column j is the symmetric state with j excitations,
    sqrt((m-j)/m) |j>|0> + sqrt(j/m) |j-1>|1>, a real (2m) x (m+1) isometry.
    """
    v = np.zeros((2 * m, m + 1))
    j = np.arange(m)
    v[2 * j, j] = np.sqrt((m - j) / m)
    v[2 * j + 1, j + 1] = np.sqrt((j + 1) / m)
    return v


def _schur_weyl_blocks(state: DensityMatrix, n: int) -> list[np.ndarray]:
    """det(A)^k Sym^(n-2k)(A) for k = 0..n//2, the blocks of A^(tensor n) for a qubit A.

    Sym^m is built by the Clebsch-Gordan recursion
    Sym^m(A) = V_m^T (Sym^(m-1)(A) (x) A) V_m. det is the product of the
    eigenvalues clamped at 0, so rounding cannot make det^k of a pure state
    negative for odd k. Each Sym^m is symmetrized once, so every block
    and every real combination of blocks is exactly Hermitian.
    """
    a = state.array
    det = max(float(np.prod(_eigvalsh(a))), 0.0)
    sym = [np.ones((1, 1), dtype=np.complex128)]
    for m in range(1, n + 1):
        v = _sym_isometry(m)
        s = v.T @ np.kron(sym[-1], a) @ v
        sym.append((s + s.conj().T) / 2.0)
    return [det**k * sym[n - 2 * k] for k in range(n // 2 + 1)]


def _block_pair(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, dim_cap: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """rho^(tensor n) and sigma^(tensor n) as blocks (multiplicity, R_k, S_k) of one basis.

    For qubits, Schur-Weyl duality splits (C^2)^(tensor n) into blocks
    k = 0..n//2 that do not depend on the state: A^(tensor n) acts on block k
    as det(A)^k Sym^(n-2k)(A), repeated C(n,k) - C(n,k-1) times. Every other
    dimension gives the single block (1, rho^(tensor n), sigma^(tensor n)).
    The cap d^n <= dim_cap applies to both.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if rho.dim**n > dim_cap:
        raise ResourceLimitError(f"product dimension {rho.dim}^{n} exceeds cap {dim_cap}")
    if rho.dim != 2:
        return [(1, tensor_power(rho.array, n, dim_cap), tensor_power(sigma.array, n, dim_cap))]
    mults = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
    return list(zip(mults, _schur_weyl_blocks(rho, n), _schur_weyl_blocks(sigma, n)))


def quantum_mixed_error_exact(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float, dim_cap: int = DIM_CAP
) -> float:
    """Optimal mixed error e_n(a) = (1 + exp(-n a))/2 - ||exp(-n a) rho_n - sigma_n||_1 / 2.

    The trace norm is the multiplicity-weighted sum over the blocks of
    `_block_pair`: for qubits n//2 + 1 eigenproblems of size <= n + 1.
    """
    blocks = _block_pair(rho, sigma, n, dim_cap)
    kappa = math.exp(-n * a)
    norm = math.fsum([m * trace_norm(kappa * r - s) for m, r, s in blocks])
    return (kappa + 1.0) / 2.0 - norm / 2.0


class NPTestErrors(NamedTuple):
    alpha: float
    beta: float
    degenerate_kernel: bool


def np_test_errors(
    rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float, dim_cap: int = DIM_CAP
) -> NPTestErrors:
    """Errors of the projector test onto the strictly positive part of exp(-n a) rho_n - sigma_n.

    alpha = Tr rho_n (I - T), beta = Tr sigma_n T, summed over the blocks of
    `_block_pair` with their multiplicities. Eigenvalues of a block within
    1e-12 of zero are excluded from T and flagged, since any split of the
    kernel is optimal and the reported pair is then one choice among several.
    """
    blocks = _block_pair(rho, sigma, n, dim_cap)
    kappa = math.exp(-n * a)
    accepted_r: list[float] = []
    accepted_s: list[float] = []
    degenerate = False
    for m, r, s in blocks:
        w, v = np.linalg.eigh(kappa * r - s)
        degenerate = degenerate or bool(np.any(np.abs(w) <= _KERNEL_TOL))
        cols = v[:, w > _KERNEL_TOL]
        accepted_r += (m * np.einsum("ij,ij->j", cols.conj(), r @ cols).real).tolist()
        accepted_s += (m * np.einsum("ij,ij->j", cols.conj(), s @ cols).real).tolist()
    alpha = min(max(1.0 - math.fsum(accepted_r), 0.0), 1.0)
    beta = min(max(math.fsum(accepted_s), 0.0), 1.0)
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
    refinement. The positive-part trace is the multiplicity-weighted sum
    over the blocks of `_block_pair`. The result is clamped to [0, 1].
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    blocks = _block_pair(rho, sigma, n, dim_cap)
    support = matrix_power_support(sigma.spectral(), 0.0)
    if float(np.einsum("ij,ji->", rho.array, support).real) ** n <= eps:
        return 0.0

    def objective(lam: float) -> float:
        positive = math.fsum([m * positive_part_trace(lam * r - s) for m, r, s in blocks])
        return (1.0 - eps) * lam - positive

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
    if abs(_fsum(pa) - 1.0) > 1e-9 or abs(_fsum(qa) - 1.0) > 1e-9:
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
    beta = _fsum(mass_q[:stop])
    if stop < fits.size and remaining[stop] > 1e-15:
        beta += (remaining[stop] / mass_p[stop]) * mass_q[stop]
    return min(max(beta, 0.0), 1.0)
