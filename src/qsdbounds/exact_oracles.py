"""Exact small-n error computations serving as ground truth for every bound.

All quantities here are computed without asymptotics: positive parts of
the weighted difference operator, spectral projections of likelihood-ratio
type tests, the dual form of the minimal type-II error at fixed type-I
budget, and the randomized classical Neyman-Pearson value via type
enumeration.

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
    _counts,
    _fsum,
    _mixed_weight,
    matrix_power_support,
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
# basis, and so gets the same bytes as one thread. The lock guards these
# alone: a pair's block images are built per call by `_pair_images`.
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
        v = sigma.eigh[1]
        pair = v.conj().T @ pair @ v
    b = pair[0, 0, 1] + pair[1, 0, 1]
    if b:
        pair[:, 0, 1] *= b.conjugate() / abs(b)
        pair[:, 1, 0] *= b / abs(b)
    return (pair.real + pair.real.swapaxes(1, 2)) / 2.0


def _pair_images(
    rho: DensityMatrix, sigma: DensityMatrix, lams: tuple[Partition, ...]
) -> tuple[list[float], dict[Partition, np.ndarray]]:
    """(dets, images): det rho, det sigma and the stack (pi_lam(rho), pi_lam(sigma)) for each
    lam of fewer than d rows, the action of each n-th tensor power on each block.

    Both states go through every step as one (2, f, f) stack in the basis of
    `_pair_stack`: pi_lam(a) = W_lam^T (pi_mu(a) (x) a) W_lam, symmetrized so
    that every block is exactly Hermitian. A diagram with d rows is det^k
    times one of these (see `_layout`). det is the product of the state's
    eigh eigenvalues clamped at 0, so rounding cannot make det^k of a
    rank-deficient state negative.

    images is keyed by diagram and holds every lam asked for and the parents
    they need, each built once, parents first. Nothing is kept past the call.
    """
    d = rho.dim
    pair = _pair_stack(rho, sigma)
    dets = [max(float(np.prod(x.eigh[0])), 0.0) for x in (rho, sigma)]
    images = {(): np.ones((2, 1, 1), pair.dtype), (1,): pair}
    chain = set()
    for lam in lams:
        while lam not in images and lam not in chain:
            chain.add(lam)
            lam = _parent(lam)[0]
    for lam in sorted(chain, key=sum):  # a parent has one box fewer
        w = _basis(d, lam)[0]
        rep_mu = images[_parent(lam)[0]]
        k, f = rep_mu.shape[1], w.shape[1]
        # (pi_mu(a) (x) a) W without forming the Kronecker product
        s = (pair[:, None] @ w.reshape(k, d, f)).reshape(2, k, d * f)
        s = w.T @ (rep_mu @ s).reshape(2, k * d, f)
        images[lam] = (s + s.conj().swapaxes(1, 2)) / 2.0
    return dets, images


@functools.cache
def _max_copies(d: int) -> int:
    """The largest n the quantum oracles take for a d-level pair: max(d, 2)^n <= DIM_CAP. A
    one-level pair is capped like a qubit pair, as a sweep still pays a block per n."""
    n = 0
    while max(d, 2) ** (n + 1) <= DIM_CAP:
        n += 1
    return n


@functools.lru_cache(maxsize=32)
def _layout(d: int, ns: tuple[int, ...]) -> tuple[tuple, ...]:
    """The stacks (owner, weight, bases, powers, index, pad) of the blocks of every n in ns.

    Block b counts in column owner[b] of weight with its multiplicity and is
    det^powers[b] times the image of its diagram less its full columns, one
    of `bases`. Blocks of at most _PAD_MAX rows share one stack, padded with
    R = 0 and S = I (lam R - S = -1 there: no test accepts it, R weighs 0);
    each larger size has its own, as a stacked eigh costs about the cube of
    the padded size. index[b] places block b in the base images laid end to
    end, padding on the 0 after them; pad is S's padded diagonal.
    """
    groups: dict[int, list[tuple[int, int, Partition, int, int]]] = {}
    for i, n in enumerate(ns):
        for lam, m in zip(*_block_shapes(n, d)):
            k = lam[-1] if len(lam) == d else 0
            base = tuple(r - k for r in lam if r > k)
            f = _basis(d, base)[0].shape[1] if base else 1
            groups.setdefault(0 if f <= _PAD_MAX else f, []).append((i, m, base, k, f))
    stacks = []
    for group in groups.values():
        owner, mult, bases, powers, sizes = zip(*group)
        weight = np.zeros((len(group), len(ns)))
        weight[range(len(group)), owner] = mult
        size = dict(zip(bases, sizes))
        bases = tuple(size)
        offsets = np.cumsum([0] + [size[base] ** 2 for base in bases]).tolist()
        start, rows = dict(zip(bases, offsets)), max(sizes)
        index = np.full((len(group), rows, rows), offsets[-1])
        for b, (_, _, base, _, f) in enumerate(group):
            index[b, :f, :f] = np.arange(start[base], start[base] + f * f).reshape(f, f)
        pad = np.nonzero(index[:, range(rows), range(rows)] == offsets[-1])
        owner, powers = np.array(owner), np.array(powers)
        for array in (owner, weight, powers, index, *pad):
            array.flags.writeable = False  # shared by every caller of the cache
        stacks.append((owner, weight, bases, powers, index, pad))
    return tuple(stacks)


def _sweep_stacks(
    rho: DensityMatrix, sigma: DensityMatrix, n
) -> tuple[list[int], list[tuple[np.ndarray, ...]]]:
    """(ns, stacks): n as a list of counts, an int being a sweep of one, and the stacks
    (owner, weight, pair) of `_layout`, pair the (2, B, f, f) stack of R and S, one
    gather from the base images that one `_pair_images` call builds for every stack,
    times det^k (a Python float power, as there). Every n is checked by `_counts`,
    and against `_max_copies`, before any block is built."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    counts = _counts(n)
    ns = counts.tolist() if isinstance(counts, np.ndarray) else [int(counts)]
    if ns and max(ns) > _max_copies(rho.dim):
        raise ResourceLimitError(f"product dimension {max(rho.dim, 2)}^{max(ns)} exceeds cap {DIM_CAP}")
    layout = _layout(rho.dim, tuple(ns))
    dets, images = _pair_images(rho, sigma, tuple(base for _, _, bases, *_ in layout for base in bases))
    stacks = []
    for owner, weight, bases, powers, index, pad in layout:
        flat = [images[base].reshape(2, -1) for base in bases]
        pair = np.take(np.concatenate([*flat, np.zeros((2, 1), flat[0].dtype)], axis=1), index, axis=1)
        if powers.any():
            scale = np.array([[det**k for k in range(powers.max() + 1)] for det in dets])
            pair *= scale[:, powers, None, None]
        pair[1, pad[0], pad[1], pad[1]] = 1.0
        stacks.append((owner, weight, pair))
    return ns, stacks


def quantum_mixed_error_exact(rho: DensityMatrix, sigma: DensityMatrix, n, a: float):
    """Optimal mixed error e_n(a) = kappa - Tr(kappa rho_n - sigma_n)_+, kappa = exp(-n a).

    It is the dual h of `_beta_eps_sweep` at eps = 0 and lam = kappa. n is
    an int, giving a float, or a 1-D sequence, giving a float64 array,
    checked and capped as in `beta_eps_exact`. The eigenvalues come from one
    batched eigvalsh per stack of `_sweep_stacks`, where a padded row's is -1. The
    difference cancels: its rounding error is about 1e-16 kappa, absolute, and
    it is clipped at 0.
    """
    ns, stacks = _sweep_stacks(rho, sigma, n)
    kappa = np.array([_mixed_weight(k, a) for k in ns])
    positive = np.zeros(len(ns))
    for owner, weight, pair in stacks:
        w = np.linalg.eigvalsh(kappa[owner, None, None] * pair[0] - pair[1])
        positive += np.where(w > 0.0, w, 0.0).sum(axis=1) @ weight
    e_n = np.maximum(kappa - positive, 0.0)
    return float(e_n[0]) if np.ndim(n) == 0 else e_n


class NPTestErrors(NamedTuple):
    alpha: float
    beta: float
    degenerate_kernel: bool


def _np_round(
    stacks: list[tuple[np.ndarray, ...]], lam: np.ndarray, open_: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """((alpha, beta), degenerate, positive) per n of the projector test onto lam_n R - S
    above tol, positive being Tr(lam_n rho_n - sigma_n)_+, the sum of the eigenvalues above 0.

    One batched eigh and one batched product pair @ v per stack, over the
    blocks of every n with open_ set. alpha = Tr rho_n (I - T) sums the
    rejected eigenvectors and beta = Tr sigma_n T the accepted ones, each
    weighted by its block's multiplicity; degenerate flags an eigenvalue
    within tol of zero. The entries of n not open are 0.
    """
    errors, flags = np.zeros((3, lam.size)), np.zeros(lam.size)
    for owner, weight, pair in stacks:
        keep = open_[owner]
        if not keep.all():
            if not keep.any():
                continue
            owner, weight, pair = owner[keep], weight[keep], pair[:, keep]
        w, v = np.linalg.eigh(lam[owner, None, None] * pair[0] - pair[1])
        accept = w > tol
        diagonals = np.einsum("kij,xkij->xkj", v.conj(), pair @ v).real
        tests = np.where(np.stack((~accept, accept)), diagonals, 0.0).sum(axis=2)
        errors += np.vstack((tests, np.where(w > 0.0, w, 0.0).sum(axis=1))) @ weight
        flags += np.any(np.abs(w) <= tol, axis=1) @ weight
    return np.clip(errors[:2], 0.0, 1.0), flags > 0.0, errors[2]


def _oracle_errors(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> tuple[float, NPTestErrors]:
    """(e_n(a), `np_test_errors`) at one n, from the one eigh per stack of one `_np_round`:
    e_n = kappa - positive there clipped at 0, the value of `quantum_mixed_error_exact`."""
    _check_count(n)
    _, stacks = _sweep_stacks(rho, sigma, n)
    kappa = _mixed_weight(n, a)
    (alpha, beta), flag, positive = _np_round(stacks, np.array([kappa]), np.ones(1, bool), _KERNEL_TOL)
    return max(kappa - float(positive[0]), 0.0), NPTestErrors(float(alpha[0]), float(beta[0]), bool(flag[0]))


def np_test_errors(rho: DensityMatrix, sigma: DensityMatrix, n: int, a: float) -> NPTestErrors:
    """Errors of the projector test onto the strictly positive part of exp(-n a) rho_n - sigma_n.

    alpha = Tr rho_n (I - T), beta = Tr sigma_n T, summed over the blocks of
    `_sweep_stacks` by `_np_round`, the kernel of `beta_eps_exact`'s rounds.
    Eigenvalues of a block within 1e-12 of zero are excluded from T and
    flagged, since any split of the kernel is optimal and the reported pair
    is then one choice among several.
    """
    return _oracle_errors(rho, sigma, n, a)[1]


def _beta_eps_sweep(
    rho: DensityMatrix, sigma: DensityMatrix, n, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(dual, primal) per n of `_sweep_stacks(rho, sigma, n)`: lower and upper bounds on beta_{n,eps}, each the value of a test pair.

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
    ns, stacks = _sweep_stacks(rho, sigma, n)
    support = matrix_power_support(sigma.spectral(), 0.0)
    overlap = float(np.einsum("ij,ji->", rho.array, support).real)
    open_ = np.array([overlap**k > eps for k in ns], dtype=bool)  # else beta = 0
    ends = np.zeros((2, 2, len(ns)))  # lo and hi, rows alpha, beta
    ends[0, 0] = ends[1, 1] = 1.0  # reject-all and accept-all
    dual, primal = np.where(open_, -math.inf, 0.0), np.where(open_, math.inf, 0.0)
    gap = np.full(len(ns), math.inf)
    for _ in range(_MAX_ITER):
        if not open_.any():
            break
        # a closed n keeps its bracket, so its primal stays put
        lo, hi = ends
        lam = (hi[1] - lo[1]) / (lo[0] - hi[0])
        primal = np.minimum(primal, lo[1] + lam * (lo[0] - eps))
        test, _, _ = _np_round(stacks, lam, open_, 0.0)
        dual = np.where(open_, np.maximum(dual, test[1] + lam * (test[0] - eps)), dual)
        open_ &= (primal - dual > _GAP_RTOL * primal) & (primal - dual < gap)
        gap = primal - dual
        ends = np.where((open_ & np.stack((test[0] > eps, test[0] <= eps)))[:, None], test, ends)
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
    the stacked blocks of `_sweep_stacks`, for all n at once (see `_beta_eps_sweep`).
    Returns the dual value, the largest h found, clamped to [0, 1]. An n
    beyond the cap raises ResourceLimitError before any search starts.
    """
    dual, _ = _beta_eps_sweep(rho, sigma, n, eps)
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
