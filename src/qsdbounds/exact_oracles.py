"""Exact small-n error computations serving as ground truth for every bound.

All quantities here are computed without asymptotics: trace norms of the
weighted difference operator, spectral projections of likelihood-ratio type
tests, the dual form of the minimal type-II error at fixed type-I budget,
and the randomized classical Neyman-Pearson value via type enumeration.

The quantum oracles never build the d^n x d^n tensor powers. By Schur-Weyl
duality rho^(tensor n) and sigma^(tensor n) split into the same
state-independent blocks, one per Young diagram of n boxes with at most d
rows, each of size at most the dimension of the matching GL(d) irrep; the
trace functionals are multiplicity-weighted sums over the blocks.
"""
from __future__ import annotations

import math
import threading
from typing import Callable, NamedTuple

import numpy as np

from ._search import golden_max
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .linalg import (
    DIM_CAP,
    DensityMatrix,
    _fsum,
    matrix_power_support,
    positive_part_trace,
    trace_norm,
)
from .ns_mapping import _type_sums, _type_table

_KERNEL_TOL = 1e-12

Partition = tuple[int, ...]

# State-independent irrep data keyed by (kind, d, partition), built on first
# use and kept for the life of the process. Entries are built under the lock,
# so each is built once and every thread reads the same basis: the CLI's
# thread pool must give the same output bytes as one thread.
_IRREPS: dict[tuple[str, int, Partition], object] = {}
_IRREPS_LOCK = threading.RLock()


def _cached(kind: str, d: int, lam: Partition, build: Callable[[int, Partition], object]):
    key = (kind, d, lam)
    try:
        return _IRREPS[key]
    except KeyError:
        pass
    with _IRREPS_LOCK:
        if key not in _IRREPS:
            _IRREPS[key] = build(d, lam)
        return _IRREPS[key]


def _partitions(n: int, rows: int) -> list[Partition]:
    """Partitions of n into at most `rows` parts, in descending lexicographic order."""

    def extend(rest: int, cap: int, left: int):
        if rest == 0:
            yield ()
        elif left:
            for first in range(min(rest, cap), 0, -1):
                for tail in extend(rest - first, first, left - 1):
                    yield (first, *tail)

    return list(extend(n, n, rows))


def _tableaux(lam: Partition) -> int:
    """f^lambda, the number of standard Young tableaux of shape lambda (hook-length formula)."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    hooks = math.prod(r - j + cols[j] - i - 1 for i, r in enumerate(lam) for j in range(r))
    return math.factorial(sum(lam)) // hooks


def _parent(lam: Partition) -> tuple[Partition, int]:
    """(mu, c): lam minus the last box of its lowest row, and that box's content column - row."""
    last = lam[-1]
    return lam[:-1] + ((last - 1,) if last > 1 else ()), last - len(lam)


def _basis(d: int, lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(W_lam, weights): the basis of V_lam; weights[c] counts each index of C^d in column c."""
    if lam == (1,):  # V_(1) = C^d in its standard basis
        return np.eye(d), np.eye(d, dtype=np.int64)
    return _cached("basis", d, lam, _build_basis)


def _generators(d: int, lam: Partition) -> np.ndarray:
    """dpi_lam(E_ij) for every i, j: a real (d, d, f, f) array in the basis of V_lam."""
    if lam == (1,):
        return np.eye(d * d).reshape(d, d, d, d)
    return _cached("generators", d, lam, _build_generators)


def _build_basis(d: int, lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """W_lam, a real orthonormal basis of V_lam inside V_mu (x) C^d, and its torus weights.

    By Pieri's rule V_lam occurs once in V_mu (x) C^d. It is the eigenspace of
    X_mu = sum_ij dpi_mu(E_ij) (x) E_ji whose eigenvalue is the content c of
    the added box; the other addable boxes of mu have contents at least 2
    away. X_mu commutes with the torus, so it is diagonalized one weight
    space of V_mu (x) C^d at a time, and each column of W_lam lies in one.
    """
    mu, content = _parent(lam)
    g = _generators(d, mu)
    k = g.shape[2]
    product_weights = (_basis(d, mu)[1][:, None, :] + np.eye(d, dtype=np.int64)).reshape(k * d, d)
    keys, group = np.unique(product_weights, axis=0, return_inverse=True)
    group = group.reshape(-1)
    order = np.argsort(group, kind="stable")
    columns, weights = [], []
    for key, idx in zip(keys, np.split(order, np.cumsum(np.bincount(group))[:-1])):
        a, j = np.divmod(idx, d)
        # X_mu[(a, j), (b, i)] = dpi_mu(E_ij)[a, b]
        w, v = np.linalg.eigh(g[j[None, :], j[:, None], a[:, None], a[None, :]])
        v = v[:, np.abs(w - content) < 0.5]
        columns.append((idx, v))
        weights += [key] * v.shape[1]
    basis = np.zeros((k * d, len(weights)))
    start = 0
    for idx, v in columns:
        basis[idx, start : start + v.shape[1]] = v
        start += v.shape[1]
    basis.flags.writeable = False
    return basis, np.array(weights)


def _build_generators(d: int, lam: Partition) -> np.ndarray:
    """dpi_lam(E_ij) = W^T (dpi_mu(E_ij) (x) I + I (x) E_ij) W for W = W_lam."""
    mu, _ = _parent(lam)
    g = _generators(d, mu)
    k = g.shape[2]
    w = _basis(d, lam)[0]
    f = w.shape[1]
    w3 = w.reshape(k, d, f)
    left = (g.reshape(d * d * k, k) @ w3.reshape(k, d * f)).reshape(d * d, k * d, f)
    out = (w.T @ left).reshape(d, d, f, f)
    out += np.tensordot(w3, w3, axes=(0, 0)).transpose(0, 2, 1, 3)
    return out


def _irrep_images(a: np.ndarray, lams: list[Partition]) -> list[np.ndarray]:
    """pi_lam(a) for each lam: the action of a^(tensor n) on each Schur-Weyl block.

    A diagram with d rows sheds its full columns: pi_lam(a) =
    det(a)^(lam_d) pi_(lam - lam_d)(a). Otherwise pi_lam(a) =
    W_lam^T (pi_mu(a) (x) a) W_lam, symmetrized so that every block is
    exactly Hermitian. det is the product of the eigenvalues clamped at 0, so
    rounding cannot make det^k of a rank-deficient state negative.
    """
    d = a.shape[0]
    det = max(float(np.prod(np.linalg.eigvalsh(a))), 0.0)
    images: dict[Partition, np.ndarray] = {(): np.ones((1, 1), dtype=np.complex128), (1,): a}

    def image(lam: Partition) -> np.ndarray:
        if lam not in images:
            if len(lam) == d:
                full = lam[-1]
                images[lam] = det**full * image(tuple(r - full for r in lam if r > full))
            else:
                w = _basis(d, lam)[0]
                rep_mu = image(_parent(lam)[0])
                k, f = rep_mu.shape[0], w.shape[1]
                # (pi_mu(a) (x) a) W without forming the Kronecker product
                s = w.T @ (rep_mu @ (a @ w.reshape(k, d, f)).reshape(k, d * f)).reshape(k * d, f)
                images[lam] = (s + s.conj().T) / 2.0
        return images[lam]

    return [image(lam) for lam in lams]


def _block_pair(
    rho: DensityMatrix, sigma: DensityMatrix, n: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """rho^(tensor n) and sigma^(tensor n) as blocks (multiplicity, R_lam, S_lam) of one basis.

    Schur-Weyl duality splits (C^d)^(tensor n) into blocks, one for each
    partition lam of n with at most d rows, that do not depend on the state:
    A^(tensor n) acts on block lam as the GL(d) irrep pi_lam(A), repeated
    f^lam times (the number of standard Young tableaux of shape lam). For
    qubits the blocks are det(A)^k Sym^(n-2k)(A), k = 0..n//2. The cap
    d^n <= DIM_CAP bounds n for every d.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if rho.dim**n > DIM_CAP:
        raise ResourceLimitError(f"product dimension {rho.dim}^{n} exceeds cap {DIM_CAP}")
    lams = _partitions(n, rho.dim)
    mults = [_tableaux(lam) for lam in lams]
    return list(zip(mults, _irrep_images(rho.array, lams), _irrep_images(sigma.array, lams)))


def quantum_mixed_error_exact(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> float:
    """Optimal mixed error e_n(a) = (1 + exp(-n a))/2 - ||exp(-n a) rho_n - sigma_n||_1 / 2.

    The trace norm is the multiplicity-weighted sum over the blocks of
    `_block_pair`: one eigenproblem per block, of size <= n + 1 for qubits
    and <= 48 for qutrits at n = 7.
    """
    blocks = _block_pair(rho, sigma, n)
    kappa = math.exp(-n * a)
    norm = math.fsum([m * trace_norm(kappa * r - s) for m, r, s in blocks])
    return (kappa + 1.0) / 2.0 - norm / 2.0


class NPTestErrors(NamedTuple):
    alpha: float
    beta: float
    degenerate_kernel: bool


def np_test_errors(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> NPTestErrors:
    """Errors of the projector test onto the strictly positive part of exp(-n a) rho_n - sigma_n.

    alpha = Tr rho_n (I - T), beta = Tr sigma_n T, summed over the blocks of
    `_block_pair` with their multiplicities. Eigenvalues of a block within
    1e-12 of zero are excluded from T and flagged, since any split of the
    kernel is optimal and the reported pair is then one choice among several.
    """
    blocks = _block_pair(rho, sigma, n)
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


def beta_eps_exact(rho: DensityMatrix, sigma: DensityMatrix, n: int, eps: float) -> float:
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
    blocks = _block_pair(rho, sigma, n)
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


def classical_beta_eps_exact(p, q, n: int, eps: float) -> float:
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
    counts, log_coef = _type_table(n, pa.size)
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
