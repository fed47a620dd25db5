"""Dense Hermitian linear algebra underlying the discrimination bounds.

Provides an immutable Hermitian matrix type, eigendecomposition with
eigenvalue grouping into distinct clusters, operator powers restricted to
the support, tensor products with a hard dimension cap, and trace
functionals (trace norm, trace of the positive part).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, ResourceLimitError, ValidationError

DIM_CAP = 4096
DEFAULT_GROUP_TOL = 1e-8
SUPPORT_CUTOFF = 1e-12
_FSUM_CHUNK = 1 << 16


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a 1-D float array, fed to it as Python floats.

    fsum over an ndarray converts one numpy scalar at a time; converting
    with tolist() first is 2.5x faster at 4 entries and 1.2x at 2M. Long
    arrays go over in chunks, so that at most one chunk's Python floats
    exist at a time (a whole 2M-entry array would need 62 MB of them).
    """
    if values.size <= _FSUM_CHUNK:
        return math.fsum(values.tolist())
    chunks = (values[i : i + _FSUM_CHUNK].tolist() for i in range(0, values.size, _FSUM_CHUNK))
    return math.fsum(chain.from_iterable(chunks))


class HermitianMatrix:
    """Immutable dense Hermitian matrix.

    Entries are stored as complex128 and symmetrized at construction, so
    entries[j][k] == conj(entries[k][j]) holds exactly afterwards.
    """

    __slots__ = ("array",)

    array: np.ndarray

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        h = (a + a.conj().T) / 2.0
        h.flags.writeable = False
        self.array = h

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def trace(self) -> float:
        return _fsum(self.array.diagonal().real)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.array + other.array)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.array - other.array)

    def __mul__(self, scalar) -> "HermitianMatrix":
        if not isinstance(scalar, Real):
            return NotImplemented
        return HermitianMatrix(self.array * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self.array)

    @staticmethod
    def zero(dim: int) -> "HermitianMatrix":
        return HermitianMatrix(np.zeros((dim, dim), dtype=np.complex128))

    @staticmethod
    def identity(dim: int) -> "HermitianMatrix":
        return HermitianMatrix(np.eye(dim, dtype=np.complex128))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues in descending order with orthogonal spectral projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[HermitianMatrix, ...]
    dim: int

    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(p.trace())) for p in self.projectors)

    def reconstruct(self) -> HermitianMatrix:
        acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            acc += lam * proj.array
        return HermitianMatrix(acc)


def _as_hermitian(h) -> HermitianMatrix:
    if isinstance(h, HermitianMatrix):
        return h
    inner = getattr(h, "matrix", None)
    if isinstance(inner, HermitianMatrix):
        return inner
    return HermitianMatrix(h)


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    # exact-diagonal fast path: tensor powers of diagonal matrices stay diagonal
    if not np.any(arr - np.diag(arr.diagonal())):
        return np.sort(arr.diagonal().real)
    return np.linalg.eigvalsh(arr)


def eigh(h, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues grouped into distinct clusters.

    Raw eigenvalues whose consecutive gap is at most group_tol * max(1, ||H||)
    are merged into one cluster; the cluster eigenvalue is their mean and the
    cluster projector spans the corresponding eigenvectors. The projectors
    form a partition of the identity.
    """
    m = _as_hermitian(h)
    try:
        w, v = np.linalg.eigh(m.array)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(w))))
    tol = group_tol * scale
    groups: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    eigenvalues = []
    projectors = []
    for g in reversed(groups):
        cols = v[:, g]
        proj = cols @ cols.conj().T
        eigenvalues.append(float(np.mean(w[g])))
        projectors.append(HermitianMatrix(proj))
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors), m.dim)


def matrix_power_support(
    dec: SpectralDecomposition, t: float, support_cutoff: float = SUPPORT_CUTOFF
) -> HermitianMatrix:
    """X^t computed on the support of X: sum of lam^t P over eigenvalues above cutoff.

    Eigenvalues below support_cutoff relative to the largest are treated as
    zero, so t = 0 yields the support projection. Negative eigenvalues beyond
    the same tolerance are rejected.
    """
    lam = np.asarray(dec.eigenvalues, dtype=np.float64)
    lam_max = float(lam.max())
    neg_tol = support_cutoff * max(1.0, abs(lam_max))
    if float(lam.min()) < -neg_tol:
        raise ValidationError(
            f"matrix_power_support needs a positive semidefinite input; "
            f"smallest eigenvalue {float(lam.min())!r}"
        )
    cutoff = support_cutoff * max(lam_max, 0.0)
    acc = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for value, proj in zip(dec.eigenvalues, dec.projectors):
        if value > cutoff and value > 0.0:
            acc += value**t * proj.array
    return HermitianMatrix(acc)


def kron(a, b, dim_cap: int = DIM_CAP) -> HermitianMatrix:
    """Tensor product with a hard output-dimension cap."""
    ah, bh = _as_hermitian(a), _as_hermitian(b)
    out_dim = ah.dim * bh.dim
    if out_dim > dim_cap:
        raise ResourceLimitError(f"tensor product dimension {out_dim} exceeds cap {dim_cap}")
    return HermitianMatrix(np.kron(ah.array, bh.array))


def tensor_power(a, n: int, dim_cap: int = DIM_CAP) -> HermitianMatrix:
    """n-fold tensor power, n >= 1, subject to the dimension cap."""
    ah = _as_hermitian(a)
    if n < 1:
        raise ValidationError(f"tensor power needs n >= 1, got {n}")
    if ah.dim**n > dim_cap:
        raise ResourceLimitError(f"tensor power dimension {ah.dim}^{n} exceeds cap {dim_cap}")
    out = ah
    for _ in range(n - 1):
        out = kron(out, ah, dim_cap)
    return out


def trace_norm(h) -> float:
    """Trace norm ||H||_1; for Hermitian H this is the sum of |eigenvalues|."""
    w = _eigvalsh(_as_hermitian(h).array)
    return _fsum(np.abs(w))


def positive_part_trace(h) -> float:
    """Tr (H)_+ , the sum of positive eigenvalues."""
    w = _eigvalsh(_as_hermitian(h).array)
    return _fsum(w[w > 0.0])


def support_overlap_table(
    a_dec: SpectralDecomposition,
    b_dec: SpectralDecomposition,
    weight_cutoff: float = 1e-12,
    support_cutoff: float = SUPPORT_CUTOFF,
) -> list[tuple[int, int, float, float, float]]:
    """Joint-support table of two PSD decompositions.

    Rows (i, j, a_i, b_j, Tr P_i Q_j) run over pairs of positive eigenvalues
    whose projector overlap exceeds weight_cutoff.
    """
    if a_dec.dim != b_dec.dim:
        raise ValidationError(f"dimension mismatch: {a_dec.dim} vs {b_dec.dim}")

    def positive_indices(dec: SpectralDecomposition) -> list[int]:
        lam_max = max(dec.eigenvalues)
        cutoff = support_cutoff * max(lam_max, 0.0)
        return [i for i, v in enumerate(dec.eigenvalues) if v > cutoff and v > 0.0]

    rows = []
    for i in positive_indices(a_dec):
        p_i = a_dec.projectors[i].array
        for j in positive_indices(b_dec):
            q_j = b_dec.projectors[j].array
            w = float(np.einsum("jk,kj->", p_i, q_j).real)
            if w > weight_cutoff:
                rows.append((i, j, a_dec.eigenvalues[i], b_dec.eigenvalues[j], w))
    return rows


class DensityMatrix:
    """State: Hermitian, positive semidefinite within 1e-12, unit trace within 1e-10."""

    __slots__ = ("matrix",)

    matrix: HermitianMatrix

    def __init__(self, matrix) -> None:
        m = _as_hermitian(matrix)
        tr = m.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"state trace must be 1 within 1e-10, got {tr!r}")
        w = _eigvalsh(m.array)
        if float(w.min()) < -1e-12 * max(1.0, float(w.max())):
            raise ValidationError(f"state has a negative eigenvalue: {float(w.min())!r}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    def spectral(self, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
        return eigh(self.matrix, group_tol)

    @staticmethod
    def pure(amplitudes: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValidationError("pure state needs a nonzero amplitude vector")
        v = v / norm
        return DensityMatrix(np.outer(v, v.conj()))

    @staticmethod
    def diagonal(probabilities: Iterable[float]) -> "DensityMatrix":
        p = np.asarray(list(probabilities), dtype=np.float64)
        return DensityMatrix(np.diag(p).astype(np.complex128))
