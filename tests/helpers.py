"""Shared fixtures-as-functions: seeded random states and independent oracles."""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from qsdbounds import DensityMatrix, ResourceLimitError, exact_oracles
from qsdbounds.linalg import DIM_CAP, _check_count


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """The dense n-fold tensor power, n >= 1, up to d^n <= DIM_CAP: the reference
    that the Schur-Weyl blocks of the exact oracles are checked against."""
    a = np.asarray(a)
    _check_count(n)
    if a.shape[0] ** n > DIM_CAP:
        raise ResourceLimitError(f"tensor power dimension {a.shape[0]}^{n} exceeds cap {DIM_CAP}")
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def block_pair(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """rho^(tensor n) and sigma^(tensor n) as blocks (multiplicity, R_lam, S_lam) of one basis,
    one for each partition lam of n with at most d rows, in the order of `_block_shapes`.

    Schur-Weyl duality: A^(tensor n) acts on block lam as the GL(d) irrep
    pi_lam(A), repeated f^lam times. A diagram with k full columns is
    det^k times the base image of lam less them, as `_sweep_stacks` builds
    it; for qubits the blocks are det(A)^k Sym^(n-2k)(A), k = 0..n//2. The
    reference the gathered stacks of the oracles are checked against.
    """
    d = rho.dim
    blocks = []
    for lam, m in zip(*exact_oracles._block_shapes(n, d)):
        k = lam[-1] if len(lam) == d else 0
        base = tuple(r - k for r in lam if r > k)
        dets, images = exact_oracles._pair_images(rho, sigma, (base,))
        image = images[base]
        blocks.append((m, *(image[i] * dets[i] ** k if k else image[i] for i in range(2))))
    return blocks


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_full_rank_state(rng: np.random.Generator, d: int, min_eval: float = 0.02) -> DensityMatrix:
    evals = rng.dirichlet(np.ones(d) * 4.0)
    evals = (1.0 - d * min_eval) * evals + min_eval
    u = random_unitary(rng, d)
    return DensityMatrix((u * evals) @ u.conj().T)


def random_full_rank_qubit(rng: np.random.Generator) -> DensityMatrix:
    return random_full_rank_state(rng, 2)


def qubit_pairs(seed: int, count: int) -> list[tuple[DensityMatrix, DensityMatrix]]:
    rng = np.random.default_rng(seed)
    return [(random_full_rank_qubit(rng), random_full_rank_qubit(rng)) for _ in range(count)]


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-10, depth: int = 40) -> float:
    """Adaptive Simpson quadrature, used as an integration oracle."""

    def simpson(a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
        m = (a + b) / 2.0
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, d):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, d - 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, d - 1
        )

    fa, fb = f(lo), f(hi)
    m, fm, whole = simpson(lo, fa, hi, fb)
    return recurse(lo, fa, hi, fb, m, fm, whole, tol, depth)


def inc_beta_quadrature(z: float, k: float, l: float, tol: float = 1e-11) -> float:
    """I_z(k, l) by direct numerical integration of the beta density."""
    if z <= 0.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    log_norm = math.lgamma(k + l) - math.lgamma(k) - math.lgamma(l)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (k - 1.0) * math.log(x) + (l - 1.0) * math.log1p(-x))

    def tail(lo: float, hi: float) -> float:
        # split at breakpoints bracketing the density peak so it is not
        # stepped over by the first coarse Simpson samples
        cuts = {lo, hi}
        if k > 1.0 and l > 1.0:
            mode = (k - 1.0) / (k + l - 2.0)
            spread = math.sqrt(k * l / ((k + l) ** 2 * (k + l + 1.0)))
            for x in (mode - 3.0 * spread, mode, mode + 3.0 * spread):
                if lo < x < hi:
                    cuts.add(x)
        grid = sorted(cuts)
        return math.fsum(
            adaptive_simpson(density, a, b, tol / len(grid)) for a, b in zip(grid, grid[1:])
        )

    # integrate the smaller tail; when its endpoint shape parameter is below 1
    # the density is singular there, so substitute u = x^k (resp. (1-x)^l) to
    # flatten the singularity before quadrature
    if z <= 0.5:
        if k < 1.0:
            g = lambda u: (1.0 - u ** (1.0 / k)) ** (l - 1.0) if 0.0 < u < 1.0 else 1.0
            return math.exp(log_norm) / k * adaptive_simpson(g, 0.0, z**k, tol)
        return tail(0.0, z)
    if l < 1.0:
        g = lambda u: (1.0 - u ** (1.0 / l)) ** (k - 1.0) if 0.0 < u < 1.0 else 1.0
        return 1.0 - math.exp(log_norm) / l * adaptive_simpson(g, 0.0, (1.0 - z) ** l, tol)
    return 1.0 - tail(z, 1.0)


def brute_force_classical_errors(
    p: np.ndarray, q: np.ndarray, n: int, a: float
) -> tuple[float, float, float]:
    """alpha, beta, mixed by enumerating all k^n product outcomes directly."""
    k = len(p)
    log_ratio = np.log(p) - np.log(q)
    alpha_terms, beta_terms = [], []
    for seq in product(range(k), repeat=n):
        stat = math.fsum(log_ratio[i] for i in seq)
        p_mass = math.prod(p[i] for i in seq)
        q_mass = math.prod(q[i] for i in seq)
        if stat >= n * a:
            beta_terms.append(q_mass)
        else:
            alpha_terms.append(p_mass)
    alpha = math.fsum(alpha_terms)
    beta = math.fsum(beta_terms)
    return alpha, beta, math.exp(-n * a) * alpha + beta


def state_to_json_dict(state: DensityMatrix) -> dict:
    mat = state.array
    return {
        "dim": state.dim,
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in mat],
    }
