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

import functools
import math
import threading
from typing import Callable, NamedTuple

import numpy as np

from ._search import _MAX_ITER
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .linalg import (
    DIM_CAP,
    DensityMatrix,
    _check_count,
    _check_eps,
    _check_letters,
    _fsum,
    _mixed_weight,
    matrix_power_support,
    trace_norm,
)
from .linalg import positive_part_trace  # noqa: F401  (bench/test_bench.py traces this binding)
from .ns_mapping import _type_masses

_KERNEL_TOL = 1e-12
_GAP_RTOL = 1e-12  # beta_eps_exact stops once primal - dual is at most this times primal
_PAD_MAX = 16  # blocks of at most this many rows share one zero-padded eigh stack

Partition = tuple[int, ...]

# State-independent irrep data keyed by (kind, d, partition), built on first
# use and kept for the life of the process. Entries are built under the lock,
# so each is built once and every thread of a library caller reads the same
# basis, and so gets the same bytes as one thread.
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


def _partitions(n: int, rows: int) -> tuple[Partition, ...]:
    """Partitions of n into at most `rows` parts, in descending lexicographic order."""

    def extend(rest: int, cap: int, left: int):
        if rest == 0:
            yield ()
        elif left:
            for first in range(min(rest, cap), 0, -1):
                for tail in extend(rest - first, first, left - 1):
                    yield (first, *tail)

    return tuple(extend(n, n, rows))


def _tableaux(lam: Partition) -> int:
    """f^lambda, the number of standard Young tableaux of shape lambda (hook-length formula)."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    hooks = math.prod(r - j + cols[j] - i - 1 for i, r in enumerate(lam) for j in range(r))
    return math.factorial(sum(lam)) // hooks


@functools.cache
def _block_shapes(n: int, d: int) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The partitions of n with at most d rows and their multiplicities f^lam."""
    lams = _partitions(n, d)
    return lams, tuple(_tableaux(lam) for lam in lams)


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


def _pair_stack(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """rho and sigma as one (2, d, d) stack, real in a common basis for a qubit pair.

    A qubit pair moves to an eigenbasis of sigma, unless a state is diagonal
    already, whose exact zeros the input basis keeps; then the second basis
    vector takes the phase that makes the off-diagonal entry of rho + sigma
    real, and so both states real (two Bloch vectors span a plane). Pairs of
    any other d stay complex and unrotated.
    """
    pair = np.stack((rho.array, sigma.array))
    if rho.dim != 2:
        return pair
    if rho.array[0, 1] and sigma.array[0, 1]:
        v = np.linalg.eigh(sigma.array)[1]
        pair = v.conj().T @ pair @ v
    b = pair[0, 0, 1] + pair[1, 0, 1]
    if b:
        pair[:, 0, 1] *= b.conjugate() / abs(b)
        pair[:, 1, 0] *= b / abs(b)
    return (pair.real + pair.real.swapaxes(1, 2)) / 2.0


def _pair_images(
    rho: DensityMatrix, sigma: DensityMatrix, lams: tuple[Partition, ...]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pi_lam(rho), pi_lam(sigma)) for each lam: the action of each n-th tensor power on each block.

    Both states go through every step as one (2, f, f) stack in the basis of
    `_pair_stack`. A diagram with d rows sheds its full columns: pi_lam(a) =
    det(a)^(lam_d) pi_(lam - lam_d)(a). Otherwise pi_lam(a) =
    W_lam^T (pi_mu(a) (x) a) W_lam, symmetrized so that every block is
    exactly Hermitian. det is the product of the eigenvalues clamped at 0, so
    rounding cannot make det^k of a rank-deficient state negative.

    The stack, both dets and every image built, the parents included, stay
    in rho.pair_memo(sigma) with their per-state views, so an n-sweep builds
    each image once. They are built and read under _IRREPS_LOCK: threads
    get the same read-only arrays, whatever order they ask for n in.
    """
    d = rho.dim
    with _IRREPS_LOCK:
        memo = rho.pair_memo(sigma)
        if "irreps" not in memo:
            pair = _pair_stack(rho, sigma)
            dets = [max(float(np.prod(np.linalg.eigvalsh(x.array))), 0.0) for x in (rho, sigma)]
            memo["irreps"] = (dets, {(): np.ones((2, 1, 1), pair.dtype), (1,): pair}, {})
        dets, stacks, views = memo["irreps"]
        pair = stacks[(1,)]

        def image(lam: Partition) -> np.ndarray:
            if lam not in stacks:
                if len(lam) == d:
                    full = lam[-1]
                    scale = np.array([det**full for det in dets])[:, None, None]
                    rep = scale * image(tuple(r - full for r in lam if r > full))
                else:
                    w = _basis(d, lam)[0]
                    rep_mu = image(_parent(lam)[0])
                    k, f = rep_mu.shape[1], w.shape[1]
                    # (pi_mu(a) (x) a) W without forming the Kronecker product
                    s = (pair[:, None] @ w.reshape(k, d, f)).reshape(2, k, d * f)
                    s = w.T @ (rep_mu @ s).reshape(2, k * d, f)
                    rep = (s + s.conj().swapaxes(1, 2)) / 2.0
                stacks[lam] = rep
            return stacks[lam]

        for lam in lams:
            if lam not in views:
                rep = image(lam)
                rep.flags.writeable = False
                views[lam] = (rep[0], rep[1])
        return [views[lam] for lam in lams]


def _within_cap(d: int, n: int) -> bool:
    """Whether the exact quantum oracles take n copies of a d-level pair: d^n <= DIM_CAP."""
    return d**n <= DIM_CAP


def _block_pair(
    rho: DensityMatrix, sigma: DensityMatrix, n: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """rho^(tensor n) and sigma^(tensor n) as blocks (multiplicity, R_lam, S_lam) of one basis.

    Schur-Weyl duality splits (C^d)^(tensor n) into blocks, one for each
    partition lam of n with at most d rows, that do not depend on the state:
    A^(tensor n) acts on block lam as the GL(d) irrep pi_lam(A), repeated
    f^lam times (the number of standard Young tableaux of shape lam). For
    qubits the blocks are det(A)^k Sym^(n-2k)(A), k = 0..n//2. The cap
    d^n <= DIM_CAP bounds n for every d. The blocks are read-only arrays
    kept on the pair, real for every qubit pair (see `_pair_images`).
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    _check_count(n)
    if not _within_cap(rho.dim, n):
        raise ResourceLimitError(f"product dimension {rho.dim}^{n} exceeds cap {DIM_CAP}")
    lams, mults = _block_shapes(n, rho.dim)
    return [(m, r, s) for m, (r, s) in zip(mults, _pair_images(rho, sigma, lams))]


def quantum_mixed_error_exact(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> float:
    """Optimal mixed error e_n(a) = (1 + exp(-n a))/2 - ||exp(-n a) rho_n - sigma_n||_1 / 2.

    The trace norm is the multiplicity-weighted sum over the blocks of
    `_block_pair`: one eigenproblem per block, of size <= n + 1 for qubits
    and <= 48 for qutrits at n = 7.
    """
    blocks = _block_pair(rho, sigma, n)
    kappa = _mixed_weight(n, a)
    norm = math.fsum([m * trace_norm(kappa * r - s) for m, r, s in blocks])
    return (kappa + 1.0) / 2.0 - norm / 2.0


class NPTestErrors(NamedTuple):
    alpha: float
    beta: float
    degenerate_kernel: bool


def _stacks(blocks_by_n: list[list[tuple[int, np.ndarray, np.ndarray]]]) -> list[tuple[np.ndarray, ...]]:
    """The blocks of every n as stacks (owner, weight, R, S) of one batched eigh each.

    owner[k] is the index of block k's n, and weight[k] holds its
    multiplicity in that column. Blocks of at most _PAD_MAX rows share one
    stack, padded to the largest of them with R = 0 and S = I: lam R - S is
    -1 there, which no test accepts, and R puts no weight on it. Every larger
    size has its own stack, since a stacked eigh costs about the cube of the
    padded size. A group of one block keeps the stored image, without a copy.
    """
    groups: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for i, blocks in enumerate(blocks_by_n):
        for m, r, s in blocks:
            groups.setdefault(0 if r.shape[0] <= _PAD_MAX else r.shape[0], []).append((i, m, r, s))
    stacks = []
    for group in groups.values():
        owner, mult, rs, ss = zip(*group)
        weight = np.zeros((len(group), len(blocks_by_n)))
        weight[range(len(group)), owner] = mult
        if len(group) == 1:
            stacks.append((np.array(owner), weight, rs[0][None], ss[0][None]))
            continue
        rows = max(r.shape[0] for r in rs)
        r_stack = np.zeros((len(group), rows, rows), dtype=rs[0].dtype)
        s_stack = np.zeros_like(r_stack)
        s_stack[:, range(rows), range(rows)] = 1.0
        for j, (r, s) in enumerate(zip(rs, ss)):
            r_stack[j, : r.shape[0], : r.shape[0]] = r
            s_stack[j, : s.shape[0], : s.shape[0]] = s
        stacks.append((np.array(owner), weight, r_stack, s_stack))
    return stacks


def _np_round(
    stacks: list[tuple[np.ndarray, ...]], lam: np.ndarray, open_: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """((alpha, beta), degenerate) per n of the projector test onto lam_n R - S above tol.

    One batched eigh per stack, over the blocks of every n with open_ set.
    alpha = Tr rho_n (I - T) sums the rejected eigenvectors and beta =
    Tr sigma_n T the accepted ones, each weighted by its block's
    multiplicity; degenerate flags an eigenvalue within tol of zero. The
    entries of n not open are 0.
    """
    errors, flags = np.zeros((2, lam.size)), np.zeros(lam.size)
    for owner, weight, r, s in stacks:
        keep = open_[owner]
        if not keep.all():
            if not keep.any():
                continue
            owner, weight, r, s = owner[keep], weight[keep], r[keep], s[keep]
        w, v = np.linalg.eigh(lam[owner, None, None] * r - s)
        accept = w > tol
        alpha = np.where(accept, 0.0, np.einsum("kij,kij->kj", v.conj(), r @ v).real)
        beta = np.where(accept, np.einsum("kij,kij->kj", v.conj(), s @ v).real, 0.0)
        errors += np.stack((alpha.sum(axis=1), beta.sum(axis=1))) @ weight
        flags += np.any(np.abs(w) <= tol, axis=1) @ weight
    return np.clip(errors, 0.0, 1.0), flags > 0.0


def np_test_errors(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> NPTestErrors:
    """Errors of the projector test onto the strictly positive part of exp(-n a) rho_n - sigma_n.

    alpha = Tr rho_n (I - T), beta = Tr sigma_n T, summed over the blocks of
    `_block_pair` by `_np_round`, the kernel of `beta_eps_exact`'s rounds.
    Eigenvalues of a block within 1e-12 of zero are excluded from T and
    flagged, since any split of the kernel is optimal and the reported pair
    is then one choice among several.
    """
    stacks = _stacks([_block_pair(rho, sigma, n)])
    (alpha, beta), flag = _np_round(stacks, np.array([_mixed_weight(n, a)]), np.ones(1, bool), _KERNEL_TOL)
    return NPTestErrors(alpha=float(alpha[0]), beta=float(beta[0]), degenerate_kernel=bool(flag[0]))


def _beta_eps_sweep(
    rho: DensityMatrix, sigma: DensityMatrix, ns: list[int], eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(dual, primal) per n of ns: lower and upper bounds on beta_{n,eps}, each the value of a test pair.

    The dual h(lam) = (1 - eps) lam - Tr(lam rho_n - sigma_n)_+ is concave,
    and beta_{n,eps} is its maximum over lam >= 0. A test T with errors
    (alpha, beta) gives the line beta + lam (alpha - eps), which lies above
    h everywhere and touches it where T = {lam rho_n - sigma_n > 0}. Each
    n's search keeps a bracket of two such tests, lo with alpha > eps and
    hi with alpha <= eps, starting from reject-all (1, 0) and accept-all
    (0, 1). Each round goes to the crossing lam of their lines, where the
    line value is the beta of the randomized mix of the two tests with
    alpha = eps (the primal bound), evaluates h there by the projector test
    (the dual bound), and replaces the bracket end on the same side. An n
    stops when primal - dual is at most _GAP_RTOL of primal, or when a
    round no longer shrinks that gap (the rounding floor). The searches run
    in lockstep, a round being one `_np_round` over every n still open. The
    test keeps every eigenvalue w > 0, with no absolute kernel tolerance:
    the maximizer lam* of a tiny beta is itself tiny.
    """
    _check_eps(eps)
    stacks = _stacks([_block_pair(rho, sigma, n) for n in ns])
    support = matrix_power_support(sigma.spectral(), 0.0)
    overlap = float(np.einsum("ij,ji->", rho.array, support).real)
    open_ = np.array([overlap**n > eps for n in ns], dtype=bool)  # else beta = 0
    lo, hi = np.zeros((2, 2, len(ns)))  # rows alpha, beta
    lo[0] = hi[1] = 1.0  # reject-all and accept-all
    dual, primal = np.where(open_, -math.inf, 0.0), np.where(open_, math.inf, 0.0)
    gap = np.full(len(ns), math.inf)
    for _ in range(_MAX_ITER):
        if not open_.any():
            break
        # a closed n keeps its bracket, so its primal stays put
        lam = (hi[1] - lo[1]) / (lo[0] - hi[0])
        primal = np.minimum(primal, lo[1] + lam * (lo[0] - eps))
        test, _ = _np_round(stacks, lam, open_, 0.0)
        dual = np.where(open_, np.maximum(dual, test[1] + lam * (test[0] - eps)), dual)
        open_ &= (primal - dual > _GAP_RTOL * primal) & (primal - dual < gap)
        gap = primal - dual
        lo = np.where(open_ & (test[0] > eps), test, lo)
        hi = np.where(open_ & (test[0] <= eps), test, hi)
    if open_.any():
        raise ConvergenceError("the Neyman-Pearson test search did not close its gap")
    return dual, primal


def beta_eps_exact(rho: DensityMatrix, sigma: DensityMatrix, n, eps: float):
    """Minimal type-II error at type-I budget eps over all operator tests.

    n is an int, giving a float, or a 1-D sequence of n, giving a float64
    array of beta_{n,eps} for each; an int is a sweep of one n. beta is
    exactly 0 when (Tr rho Pi)^n <= eps for Pi the support projector of
    sigma: the test I - Pi^(tensor n) then meets the budget, and no test
    with zero type-II error does better. Otherwise it is the maximum of the
    dual

        h(lam) = (1 - eps) lam - Tr(lam rho_n - sigma_n)_+ ,  lam >= 0,

    found by a cutting-plane search over Neyman-Pearson projector tests on
    the blocks of `_block_pair`, for all n at once (see `_beta_eps_sweep`).
    Returns the dual value, the largest h found, clamped to [0, 1]. An n
    beyond the cap raises ResourceLimitError before any search starts.
    """
    if np.ndim(n) > 1:
        raise ValidationError(f"n must be an int or a 1-D sequence, got shape {np.shape(n)}")
    dual, _ = _beta_eps_sweep(rho, sigma, np.atleast_1d(n).tolist(), eps)
    beta = np.clip(dual, 0.0, 1.0)
    return float(beta[0]) if np.ndim(n) == 0 else beta


def classical_beta_eps_exact(p, q, n: int, eps: float) -> float:
    """Randomized Neyman-Pearson type-II error for classical distributions, exact for eps in [0, 1].

    Types of zero p-mass or q-mass are left out: rejected free, even at
    eps = 0, or adding nothing. The others are rejected whole, by ascending
    likelihood ratio, while their p-mass, measured relative to eps, fits the
    budget, and the next in the share (eps - rejected mass) / its p-mass, the
    rejected mass summed exactly rounded. Returns the accepted q-mass.
    """
    pa, qa = _check_letters(p, q)
    if np.any((pa == 0.0) & (qa == 0.0)):
        raise ValidationError("p and q must have p + q > 0 per letter")
    if abs(_fsum(pa) - 1.0) > 1e-9 or abs(_fsum(qa) - 1.0) > 1e-9:
        raise ValidationError("p and q must each sum to 1 within 1e-9")
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    _check_count(n)
    stat, log_mp, log_mq = _type_masses(pa, qa, n)
    keep = (log_mp > -math.inf) & (log_mq > -math.inf)
    order = np.argsort(-stat[keep], kind="stable")
    log_mp, log_mq = log_mp[keep][order], log_mq[keep][order]
    with np.errstate(divide="ignore", over="ignore"):
        cost = np.exp(log_mp - np.log(eps))  # +inf at eps = 0
    boundary = cost.size - int(np.searchsorted(np.cumsum(cost[::-1]), 1.0, side="right")) - 1
    if boundary < 0:
        return 0.0
    rejected = min(max(1.0 - _fsum(cost[boundary + 1 :]), 0.0) / cost[boundary], 1.0)
    beta = _fsum(np.exp(log_mq[:boundary])) + (1.0 - rejected) * math.exp(log_mq[boundary])
    return min(max(beta, 0.0), 1.0)
