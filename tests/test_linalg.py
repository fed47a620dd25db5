import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdbounds import DensityMatrix, ResourceLimitError, ValidationError
from qsdbounds.linalg import (
    _counts,
    _fsum_rows,
    _sum2_rows,
    eigh,
    matrix_power_support,
    support_overlap_table,
)

from helpers import random_full_rank_state, random_unitary, tensor_power

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
ZERO = np.array([[1.0, 0.0], [0.0, 0.0]])


def test_hermitian_symmetrizes_and_is_immutable():
    state = DensityMatrix(np.array([[0.4, 0.1 + 1e-13j], [0.1 - 2e-13j, 0.6]]))
    assert np.array_equal(state.array, state.array.conj().T)
    with pytest.raises(ValueError):
        state.array[0, 0] = 5.0


def test_hermitian_symmetrizes_asymmetric_input():
    state = DensityMatrix(np.array([[0.5, 0.2], [0.0, 0.5]]))
    assert np.allclose(state.array, np.array([[0.5, 0.1], [0.1, 0.5]]))


def test_density_matrix_rejects_non_square_and_empty_input():
    for bad in (np.full((2, 3), 1.0 / 3.0), np.ones(2) / 2.0, np.zeros((0, 0))):
        with pytest.raises(ValidationError):
            DensityMatrix(bad)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, complex(0.0, math.nan)))
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix([[bad, 0.0], [0.0, bad]])
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix([[0.5, bad], [0.0, 0.5]])


def test_eigh_groups_degenerate_eigenvalues():
    dec = eigh((np.diag([3.0, 1.0, 1.0])))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    assert dec.ranks() == (1, 2)


def test_eigh_identity_single_group():
    dec = eigh((np.eye(4)))
    assert list(dec.eigenvalues) == [1.0]
    assert dec.ranks() == (4,)
    assert np.allclose(dec.vectors[0] @ dec.vectors[0].conj().T, np.eye(4))


def test_eigh_reconstruction_and_orthogonality():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (z + z.conj().T) / 2.0
    dec = eigh(h)
    assert np.max(np.abs(dec.reconstruct() - h)) < 1e-10
    proj = [v @ v.conj().T for v in dec.vectors]
    assert np.max(np.abs(sum(proj) - np.eye(6))) < 1e-10
    for j, pj in enumerate(proj):
        for k, pk in enumerate(proj):
            if j != k:
                assert np.max(np.abs(pj @ pk)) < 1e-10


def test_eigh_descending_order():
    dec = eigh((np.diag([-1.0, 5.0, 2.0])))
    assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)


def test_matrix_power_support_diagonal_sqrt():
    dec = eigh((np.diag([4.0, 0.0])))
    out = matrix_power_support(dec, 0.5)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_matrix_power_support_zero_power_is_support_projection():
    dec = eigh((np.diag([0.5, 0.5])))
    assert np.allclose(matrix_power_support(dec, 0.0), np.eye(2), atol=1e-12)
    rank1 = eigh((np.diag([0.7, 0.0])))
    assert np.allclose(matrix_power_support(rank1, 0.0), np.diag([1.0, 0.0]), atol=1e-12)


def test_matrix_power_support_projector_idempotent():
    dec = eigh((PLUS))
    assert np.max(np.abs(matrix_power_support(dec, 3.0) - PLUS)) < 1e-12


def test_matrix_power_support_rejects_negative():
    dec = eigh((np.diag([1.0, -0.5])))
    with pytest.raises(ValidationError):
        matrix_power_support(dec, 0.5)


def test_matrix_power_one_restricts_to_support():
    rng = np.random.default_rng(11)
    state = random_full_rank_state(rng, 3)
    dec = state.spectral()
    assert np.max(np.abs(matrix_power_support(dec, 1.0) - state.array)) < 1e-10


def test_tensor_power_dim_and_trace():
    rng = np.random.default_rng(3)
    state = random_full_rank_state(rng, 2)
    cubed = tensor_power(state.array, 3)
    assert cubed.shape == (8, 8)
    assert np.trace(cubed).real == pytest.approx(1.0, abs=1e-12)


def test_tensor_power_cap():
    with pytest.raises(ResourceLimitError):
        tensor_power(np.eye(2), 13)  # 2^13 = 8192 > 4096
    for n in (0, 2.5, 2.0, True):
        with pytest.raises(ValidationError):
            tensor_power(np.eye(2), n)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))
    state = DensityMatrix(np.diag([0.5, 0.5]))
    assert state.dim == 2


def test_density_matrix_constructors():
    pure = DensityMatrix.pure([1.0, 1.0])
    assert np.allclose(pure.array, PLUS, atol=1e-12)
    with pytest.raises(ValidationError):
        DensityMatrix.pure([0.0, 0.0])


def test_support_overlap_table_commuting():
    # indices follow the descending spectral order, not matrix positions
    a = eigh((np.diag([0.9, 0.1])))
    b = eigh((np.diag([0.4, 0.6])))
    rows = support_overlap_table(a, b)
    masses = sorted((ai, bj) for _, _, ai, bj, w in rows if w > 0.5)
    assert len(rows) == 2
    assert masses == [(0.1, 0.6), (0.9, 0.4)]
    assert all(w == pytest.approx(1.0, abs=1e-12) for _, _, _, _, w in rows)


def test_support_overlap_table_pure_states():
    a = eigh((ZERO))
    b = eigh((PLUS))
    rows = support_overlap_table(a, b)
    assert len(rows) == 1
    i, j, ai, bj, w = rows[0]
    assert ai == pytest.approx(1.0, abs=1e-12)
    assert bj == pytest.approx(1.0, abs=1e-12)
    assert w == pytest.approx(0.5, abs=1e-12)


def test_eigh_agrees_between_diagonal_and_rotated_paths():
    rng = np.random.default_rng(13)
    evals = np.array([0.5, 0.3, 0.2])
    u = random_unitary(rng, 3)
    rotated = eigh(((u * evals) @ u.conj().T))
    plain = eigh((np.diag(evals)))
    assert np.allclose(rotated.eigenvalues, plain.eigenvalues, atol=1e-12)


_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), math.inf, -math.inf, math.nan]


@st.composite
def _fsum_row(draw):
    """One row of a kind that stresses an exactly rounded sum."""
    kind = draw(st.sampled_from(("cancel", "tie", "tiny", "edge", "any")))
    if kind == "cancel":
        # huge terms that cancel exactly, leaving small ones
        big = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30))
        small = draw(st.lists(st.floats(-1e-3, 1e-3), max_size=4))
        row = big + [-x for x in big] + small
    elif kind == "tie":
        # b plus exactly half an ulp of b, nudged by at most a tiny term, under cancelling noise
        b = draw(st.floats(2.0**-900, 2.0**900))
        nudge = draw(st.sampled_from((0.0, 1.0, -1.0))) * math.ulp(b) * 2.0**-40
        noise = draw(st.lists(st.floats(-1e10, 1e10), max_size=6))
        row = [b, math.ulp(b) / 2.0, nudge] + noise + [-x for x in noise]
    elif kind == "tiny":
        row = draw(st.lists(st.floats(-1e-300, 1e-300) | st.sampled_from(_EDGE[:6]), min_size=1, max_size=30))
    elif kind == "edge":
        row = draw(st.lists(st.floats(-1e5, 1e5) | st.sampled_from(_EDGE), min_size=1, max_size=30))
    else:
        row = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    return draw(st.permutations(row))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_fsum_row(), min_size=1, max_size=6))
def test_fsum_rows_is_math_fsum_of_each_row(rows):
    # ragged rows, padded with 0; a row that makes fsum raise makes the whole call raise
    width = max(map(len, rows))
    table = np.array([row + [0.0] * (width - len(row)) for row in rows])
    want = []
    for row in table.tolist():
        try:
            want.append(repr(math.fsum(row)))
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _fsum_rows(table)
            return
    assert [repr(x) for x in _fsum_rows(table).tolist()] == want


def test_fsum_rows_sums_all_zero_rows_to_positive_zero():
    out = _fsum_rows(np.array([np.zeros(600_000), np.full(600_000, -0.0)]))
    assert [math.copysign(1.0, x) for x in out.tolist()] == [1.0, 1.0]
    assert out.tolist() == [0.0, 0.0]


def test_sum2_rows_certifies_a_row_only_while_its_slack_is_under_half_the_gap():
    # the row sums are 1 + 2^-60 + 2^-70 and 3 + 2^-55 + 2^-75, rounding to 1 and 3;
    # the sums never change, only whether the slack still fits the certificate
    table = np.array([[2.0**-70, 1.0, 2.0**-60], [2.0**-75, 2.0**-55, 3.0]])
    want = [math.fsum(row) for row in table.tolist()]
    half_gap = np.array([2.0**-54, 2.0**-52])  # to the next float towards 0
    sums, ok = _sum2_rows(table)
    assert sums.tolist() == want and ok.tolist() == [True, True]
    for slack, certified in ((half_gap / 4.0, [True, True]), (half_gap, [False, False]),
                             (np.array([0.0, 2.0 * half_gap[1]]), [True, False]), (1.0, [False, False])):
        sums, ok = _sum2_rows(table, slack)
        assert sums.tolist() == want and ok.tolist() == certified, slack


@pytest.mark.parametrize("n,message", [
    ([1, True, 3], "n must be an integer, got True"),
    ([1, np.True_], f"n must be an integer, got {np.True_!r}"),
    ([2.0, 1], "n must be an integer, got 2.0"),
    ([1, [2]], "n must be an integer, got [2]"),
    ([[1, 2], [3, 4]], "n must be an integer or a 1-D sequence of integers, got shape (2, 2)"),
    ([3, 0, -1], "need n >= 1, got 0"),
    ([np.int64(2), np.int64(-4)], "need n >= 1, got -4"),
    (2.0, "n must be an integer, got 2.0"),
    (np.True_, f"n must be an integer, got {np.True_!r}"),
])
def test_counts_rejects_the_first_non_count_with_its_message(n, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        _counts(n)


def test_counts_reads_a_sequence_as_int64():
    for n in ([3, 1, 2], range(1, 4), np.arange(1, 4), [np.int64(1), np.uint8(2), 3], ()):
        got = _counts(n)
        assert got.dtype == np.int64 and got.tolist() == list(n)
    assert _counts(5) == 5 and _counts(np.int32(5)) == 5
