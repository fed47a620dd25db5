"""Dense Hermitian linear algebra underlying the discrimination bounds.

Works on plain complex or real ndarrays: eigendecomposition with
eigenvalue grouping into distinct clusters, each kept as an orthonormal
block of eigenvectors, operator powers restricted to the support, tensor
products with a hard dimension cap, and trace functionals (trace norm,
trace of the positive part). DensityMatrix is the one place where outside
input is validated and symmetrized; the functions here read the Hermitian
arrays they are given without copying them. Each tolerance and cap is one
module constant below, not a per-call option.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ResourceLimitError, ValidationError

DIM_CAP = 4096  # largest d^n of a tensor power or an exact oracle
DEFAULT_GROUP_TOL = 1e-8  # eigenvalue gap, relative to max(1, ||H||), that splits clusters
SUPPORT_CUTOFF = 1e-12  # eigenvalues at most this times the largest count as zero
WEIGHT_CUTOFF = 1e-12  # overlaps Tr P_i Q_j at most this leave the joint support
_FSUM_TREE_MIN = 4096  # shortest 1-D array that `_fsum` sums by `_fsum_rows`, not math.fsum


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D float array, bit for bit, without Python floats.

    Each row is summed by a pairwise TwoSum cascade, vectorised over the
    rows: a level adds the first half of the columns to the second and
    keeps the rounding error of every addition exactly, so a row's exact
    sum S is hi + (its n - 1 error terms). numpy sums those into lo in an
    unspecified order, and a sum of m terms in any order is off by at most
    gamma_(m-1) times the sum of their magnitudes (Higham, ch. 4; the Sum2
    bound of Ogita, Rump and Oishi 2005). From the computed magnitude sum
    that gives E >= |lo - their sum|, with room for the rounding and
    underflow of E itself. With r = fl(hi + lo) and t = hi + lo - r
    exactly, |S - r| <= |t| + E. A row with |t| + E below half the gap
    between r and its neighbour towards 0 has S strictly nearer r than any
    other float: r is the exactly rounded sum, which is what fsum returns.
    Every other row falls back to math.fsum,
    which also gives its inf, nan or exception: a row near a rounding
    boundary, summing to 0 or to a subnormal, or with an entry not in
    [-2^1022 / n, 2^1022 / n] (non-finite, or large enough that fsum may
    overflow an intermediate sum).

    On the 64 x 601 log-domain terms of e_n (1 down to 1e-300) it takes
    0.35 ms, against 2.2 ms for sorting each row and calling fsum, with no
    fallback (2-core Xeon).
    """
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    out = np.zeros(rows)
    if rows == 0 or n == 0:
        return out
    # columns as contiguous blocks, summed in place: level by level, the
    # partial sums stay at the front and each level's errors take the
    # places of the addends they replace, so s ends as [hi, errors...]
    s = np.array(a.T, order="C")
    tmp = np.empty((2, n // 2, rows))
    width = n
    with np.errstate(over="ignore", invalid="ignore"):
        while width > 1:
            h = width // 2
            x, y = s[:h], s[width - h : width]  # an odd middle column carries over
            t, z = tmp[0, :h], tmp[1, :h]
            np.add(x, y, out=t)
            np.subtract(t, x, out=z)
            np.subtract(y, z, out=y)
            np.subtract(t, z, out=z)
            np.subtract(x, z, out=z)
            y += z  # (x - (t - z)) + (y - z) with z = t - x: the error of t
            x[...] = t
            width -= h
        hi, errors = s[0], s[1:]
        lo = errors.sum(axis=0)
        bound = np.abs(errors, out=errors).sum(axis=0)
        bound *= n * 2.0**-52  # 2 n u >= gamma_(n-2) / (1 - gamma_(n-2))
        bound += 5e-324
        r = hi + lo
        z = r - hi
        bound += np.abs((hi - (r - z)) + (lo - z))
        mag = np.abs(r)
        big = 2.0**1022 / n  # below it no partial sum of fsum or of the cascade overflows
        ok = bound < (mag - np.nextafter(mag, 0.0)) * 0.5
        ok &= (a.max(axis=1) <= big) & (a.min(axis=1) >= -big)
    out[ok] = r[ok]
    for i in np.flatnonzero(~ok).tolist():
        out[i] = math.fsum(a[i].tolist())
    return out


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a 1-D float array: fed to it as Python floats, or by
    `_fsum_rows` from _FSUM_TREE_MIN entries on, with the same result.

    fsum over an ndarray converts one numpy scalar at a time; converting
    with tolist() first is 2.5x faster at 4 entries. `_fsum_rows` has a
    fixed cost of about 0.1 ms (120 us at 1,024 entries) and wins from
    about 4,096: 176 vs 149 us there on uniform entries and 261 vs 151 us
    on psi-like weights spanning 13 decades, 2.3 vs 0.8 ms at 65,536
    (2-core Xeon). It holds two float64 copies of the array, not a list of
    Python floats (62 MB at 2M entries).
    """
    if values.size < _FSUM_TREE_MIN:
        return math.fsum(values.tolist())
    return float(_fsum_rows(values.reshape(1, -1))[0])


def _check_count(n, name: str = "n") -> None:
    """Require a copy count n >= 1 given as a Python or numpy integer; a bool is not a count."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"need {name} >= 1, got {n}")


def _check_letters(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as float64 vectors, required nonempty, of equal length, finite and nonnegative."""
    pa, qa = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape or pa.ndim != 1 or pa.size == 0:
        raise ValidationError("p and q must be nonempty vectors of equal length")
    if not (np.all((pa >= 0.0) & (pa < math.inf)) and np.all((qa >= 0.0) & (qa < math.inf))):
        raise ValidationError("p and q must be finite and nonnegative")
    return pa, qa


def _check_eps(eps: float) -> None:
    """Require a type-I budget eps in the open interval (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")


def _check_threshold(n: int, a: float) -> None:
    """Require a mixed-error threshold a with a and -n a finite at n copies."""
    if not (math.isfinite(a) and math.isfinite(n * a)):
        raise ValidationError(f"threshold a and -n a must be finite, got a={a!r} at n={n}")


def _mixed_weight(n: int, a: float) -> float:
    """exp(-n a), the weight of the type-I error in the mixed error at threshold a.

    Raises ValidationError unless a, -n a and exp(-n a) are all finite.
    """
    _check_threshold(n, a)
    try:
        return math.exp(-n * a)
    except OverflowError:
        raise ValidationError(f"exp(-n a) overflows at n={n}, a={a!r}") from None


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues in descending order, each with an orthonormal eigenvector block.

    vectors[i] is a read-only d x r_i matrix whose columns span the
    eigenspace of eigenvalues[i]; together the blocks form a unitary.
    Equality is identity: numpy arrays have no single truth value.
    """

    eigenvalues: tuple[float, ...]
    vectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    def ranks(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.vectors)

    def reconstruct(self) -> np.ndarray:
        cols = np.hstack(self.vectors)
        return (cols * np.repeat(self.eigenvalues, self.ranks())) @ cols.conj().T


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    # exact-diagonal fast path: diagonal states, and the Schur-Weyl blocks of a
    # diagonal pair whose weight spaces are one-dimensional (every qubit block)
    if np.count_nonzero(arr) == np.count_nonzero(arr.diagonal()):
        return np.sort(arr.diagonal().real)
    return np.linalg.eigvalsh(arr)


def eigh(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian array with eigenvalues grouped into distinct clusters.

    Only the lower triangle of h is read. Raw eigenvalues whose consecutive
    gap is at most DEFAULT_GROUP_TOL * max(1, ||H||) are merged into one
    cluster; the cluster eigenvalue is their mean and its block holds the
    corresponding eigenvectors.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    v.flags.writeable = False
    tol = DEFAULT_GROUP_TOL * max(1.0, float(np.max(np.abs(w))))
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1).tolist(), w.size]
    clusters = list(zip(edges[:-1], edges[1:]))[::-1]
    return SpectralDecomposition(
        eigenvalues=tuple(float(np.mean(w[lo:hi])) for lo, hi in clusters),
        vectors=tuple(v[:, lo:hi] for lo, hi in clusters),
    )


def _support_size(dec: SpectralDecomposition) -> int:
    """Number of leading clusters with a positive eigenvalue above SUPPORT_CUTOFF times the largest."""
    cutoff = SUPPORT_CUTOFF * max(dec.eigenvalues[0], 0.0)
    return sum(1 for v in dec.eigenvalues if v > cutoff and v > 0.0)


def matrix_power_support(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """X^t computed on the support of X: sum of lam^t V V^H over eigenvalues above cutoff.

    Eigenvalues below SUPPORT_CUTOFF relative to the largest are treated as
    zero, so t = 0 yields the support projection. Negative eigenvalues beyond
    the same tolerance are rejected.
    """
    lam = np.asarray(dec.eigenvalues, dtype=np.float64)
    neg_tol = SUPPORT_CUTOFF * max(1.0, abs(float(lam[0])))
    if float(lam[-1]) < -neg_tol:
        raise ValidationError(
            f"matrix_power_support needs a positive semidefinite input; "
            f"smallest eigenvalue {float(lam[-1])!r}"
        )
    k = _support_size(dec)
    if k == 0:
        return np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    cols = np.hstack(dec.vectors[:k])
    return (cols * np.repeat(lam[:k] ** t, dec.ranks()[:k])) @ cols.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with a hard output-dimension cap."""
    a, b = np.asarray(a), np.asarray(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > DIM_CAP:
        raise ResourceLimitError(f"tensor product dimension {out_dim} exceeds cap {DIM_CAP}")
    return np.kron(a, b)


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power, n >= 1, subject to the dimension cap."""
    a = np.asarray(a)
    _check_count(n)
    if a.shape[0] ** n > DIM_CAP:
        raise ResourceLimitError(f"tensor power dimension {a.shape[0]}^{n} exceeds cap {DIM_CAP}")
    out = a
    for _ in range(n - 1):
        out = kron(out, a)
    return out


def trace_norm(h: np.ndarray) -> float:
    """Trace norm ||H||_1 of a Hermitian array: the sum of |eigenvalues|."""
    return _fsum(np.abs(_eigvalsh(h)))


def positive_part_trace(h: np.ndarray) -> float:
    """Tr (H)_+ of a Hermitian array: the sum of its positive eigenvalues."""
    w = _eigvalsh(h)
    return _fsum(w[w > 0.0])


def support_overlap_table(
    a_dec: SpectralDecomposition, b_dec: SpectralDecomposition
) -> list[tuple[int, int, float, float, float]]:
    """Joint-support table of two PSD decompositions.

    Rows (i, j, a_i, b_j, Tr P_i Q_j) run over pairs of positive eigenvalues
    whose projector overlap exceeds WEIGHT_CUTOFF, i ascending, then j.
    Tr P_i Q_j = ||V_i^H W_j||_F^2 is a block sum of the one product |V^H W|^2
    of the stacked support eigenvectors.
    """
    if a_dec.dim != b_dec.dim:
        raise ValidationError(f"dimension mismatch: {a_dec.dim} vs {b_dec.dim}")
    ka, kb = _support_size(a_dec), _support_size(b_dec)
    if ka == 0 or kb == 0:
        return []
    overlap = np.hstack(a_dec.vectors[:ka]).conj().T @ np.hstack(b_dec.vectors[:kb])
    squares = overlap.real**2 + overlap.imag**2
    starts_a = np.cumsum((0,) + a_dec.ranks()[: ka - 1])
    starts_b = np.cumsum((0,) + b_dec.ranks()[: kb - 1])
    weights = np.add.reduceat(np.add.reduceat(squares, starts_a, axis=0), starts_b, axis=1)
    rows_i, rows_j = np.nonzero(weights > WEIGHT_CUTOFF)
    return [
        (i, j, a_dec.eigenvalues[i], b_dec.eigenvalues[j], float(weights[i, j]))
        for i, j in zip(rows_i.tolist(), rows_j.tolist())
    ]


class DensityMatrix:
    """State: Hermitian, positive semidefinite within 1e-12, unit trace within 1e-10.

    The one place where outside input is validated: entries must be finite
    and form a square matrix, which is stored symmetrized, (M + M^H) / 2, as
    a read-only complex128 array, so array[j, k] == conj(array[k, j]) holds
    exactly afterwards. Since the array never changes, the state keeps its
    spectral decomposition once computed, and `pair_memo` gives each partner
    state a dict for results of the ordered pair that do not depend on n
    (`exact_oracles` keeps the pair's Schur-Weyl block images there).
    """

    __slots__ = ("array", "_spectral", "_pair_memos")

    array: np.ndarray

    def __init__(self, matrix) -> None:
        a = np.array(matrix, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("state has a non-finite entry")
        h = (a + a.conj().T) / 2.0
        tr = _fsum(h.diagonal().real)
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"state trace must be 1 within 1e-10, got {tr!r}")
        w = _eigvalsh(h)
        if float(w.min()) < -1e-12 * max(1.0, float(w.max())):
            raise ValidationError(f"state has a negative eigenvalue: {float(w.min())!r}")
        h.flags.writeable = False
        self.array = h
        self._spectral = None
        self._pair_memos = {}

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def spectral(self) -> SpectralDecomposition:
        if self._spectral is None:
            self._spectral = eigh(self.array)
        return self._spectral

    def pair_memo(self, other: "DensityMatrix") -> dict:
        """Memo of the ordered pair (self, other), kept on self and keyed by
        the identity of other, which it keeps alive as long as self."""
        return self._pair_memos.setdefault(other, {})

    @staticmethod
    def pure(amplitudes: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValidationError("pure state needs a nonzero amplitude vector")
        v = v / norm
        return DensityMatrix(np.outer(v, v.conj()))

