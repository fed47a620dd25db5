import math
from itertools import combinations, product

import numpy as np
import pytest

from qsdbounds import (
    DensityMatrix,
    ResourceLimitError,
    ValidationError,
    build_classical_pair,
    classical_exact_errors,
    matrix_power_support,
    psi,
    psi_curve_from_probabilities,
)

from qsdbounds.ns_mapping import _type_table

from helpers import brute_force_classical_errors, qubit_pairs

ZERO = DensityMatrix(np.diag([1.0, 0.0]))
ONE = DensityMatrix(np.diag([0.0, 1.0]))
PLUS = DensityMatrix.pure([1.0, 1.0])


def test_commuting_pair_recovers_eigenvalues():
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    sig = DensityMatrix(np.diag([0.4, 0.6]))
    pair = build_classical_pair(rho.spectral(), sig.spectral())
    assert pair.size == 2
    letters = sorted(zip(pair.p, pair.q))
    assert letters[0] == (pytest.approx(0.1), pytest.approx(0.6))
    assert letters[1] == (pytest.approx(0.9), pytest.approx(0.4))


def test_pure_state_pair_single_letter():
    pair = build_classical_pair(ZERO.spectral(), PLUS.spectral())
    assert pair.size == 1
    assert pair.p[0] == pytest.approx(0.5, abs=1e-12)
    assert pair.q[0] == pytest.approx(0.5, abs=1e-12)


def test_orthogonal_supports_rejected():
    with pytest.raises(ValidationError):
        build_classical_pair(ZERO.spectral(), ONE.spectral())


def test_alphabet_at_most_d_squared():
    for rho, sig in qubit_pairs(201, 5):
        pair = build_classical_pair(rho.spectral(), sig.spectral())
        assert 1 <= pair.size <= 4


def test_psi_identity_between_quantum_and_classical():
    # the pair's classical log-moment curve is log Tr rho^t sigma^(1-t)
    for rho, sig in qubit_pairs(202, 5) + [(ZERO, PLUS)]:
        classical = build_classical_pair(rho.spectral(), sig.spectral())
        for t in np.linspace(0.0, 1.0, 11):
            a_t = matrix_power_support(rho.spectral(), float(t))
            b_rest = matrix_power_support(sig.spectral(), 1.0 - float(t))
            quantum = math.log(float(np.einsum("ij,ji->", a_t, b_rest).real))
            assert psi(classical, float(t)) == pytest.approx(quantum, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 7))
def test_type_table_is_the_stars_and_bars_enumeration(k):
    for n in range(13):
        total = math.comb(n + k - 1, k - 1)
        bars = np.array(list(combinations(range(n + k - 1), k - 1)), dtype=np.int64).reshape(total, k - 1)
        edges = np.column_stack((np.full(len(bars), -1), bars, np.full(len(bars), n + k - 1)))
        counts, log_coef = _type_table(n, k)
        assert counts.dtype == np.int32
        np.testing.assert_array_equal(counts, np.diff(edges, axis=1) - 1)
        if k <= 3:  # every count vector summing to n, in lexicographic order
            want_rows = [t for t in product(range(n + 1), repeat=k) if sum(t) == n]
            assert [tuple(row) for row in counts.tolist()] == want_rows
        lg = [math.lgamma(j + 1.0) for j in range(n + 1)]
        want = [math.fsum([lg[n]] + [-lg[c] for c in row]) for row in counts.tolist()]
        np.testing.assert_allclose(log_coef, want, rtol=0.0, atol=1e-12)


def test_classical_exact_errors_identical_distributions():
    pair = build_classical_pair(
        DensityMatrix(np.diag([0.5, 0.5])).spectral(),
        DensityMatrix(np.diag([0.5, 0.5])).spectral(),
    )
    out = classical_exact_errors(pair, 7, 0.0)
    assert out.alpha == pytest.approx(0.0, abs=1e-15)
    assert out.beta == pytest.approx(1.0, abs=1e-12)
    assert out.mixed == pytest.approx(1.0, abs=1e-12)


def test_classical_exact_errors_hand_case():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    sig = DensityMatrix(np.diag([0.75, 0.25]))
    pair = build_classical_pair(rho.spectral(), sig.spectral())
    out = classical_exact_errors(pair, 1, 0.0)
    assert out.alpha == pytest.approx(0.25, abs=1e-12)
    assert out.beta == pytest.approx(0.25, abs=1e-12)
    assert out.mixed == pytest.approx(0.5, abs=1e-12)


def test_classical_exact_errors_match_brute_force():
    rng = np.random.default_rng(205)
    from qsdbounds.ns_mapping import ClassicalPair

    for _ in range(20):
        p0 = rng.uniform(0.05, 0.95)
        q0 = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 13))
        a = float(rng.normal(scale=0.3))
        p = np.array([p0, 1.0 - p0])
        q = np.array([q0, 1.0 - q0])
        pair = ClassicalPair(labels=((0, 0), (1, 1)), p=p, q=q)
        got = classical_exact_errors(pair, n, a)
        alpha, beta, mixed = brute_force_classical_errors(p, q, n, a)
        assert got.alpha == pytest.approx(alpha, abs=1e-12)
        assert got.beta == pytest.approx(beta, abs=1e-12)
        assert got.mixed == pytest.approx(mixed, abs=1e-12)
    # three-letter alphabets
    for _ in range(8):
        p = rng.dirichlet(np.ones(3) * 2.0)
        q = rng.dirichlet(np.ones(3) * 2.0)
        n = int(rng.integers(1, 8))
        a = float(rng.normal(scale=0.3))
        pair = ClassicalPair(labels=((0, 0), (1, 1), (2, 2)), p=p, q=q)
        got = classical_exact_errors(pair, n, a)
        alpha, beta, mixed = brute_force_classical_errors(p, q, n, a)
        assert got.alpha == pytest.approx(alpha, abs=1e-12)
        assert got.beta == pytest.approx(beta, abs=1e-12)
        assert got.mixed == pytest.approx(mixed, abs=1e-12)


def test_classical_exact_errors_repr_is_pinned():
    # 47,905 types of four letters at n = 64, summed exactly rounded: not one bit may move
    pair = psi_curve_from_probabilities([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
    assert repr(classical_exact_errors(pair, 64, 0.1)) == (
        "ClassicalErrors(alpha=0.001216458419667169, beta=1.3129127708052242e-06, "
        "mixed=3.3341281055168783e-06)"
    )


def test_classical_exact_errors_resource_cap():
    from qsdbounds.ns_mapping import ClassicalPair

    p = np.full(8, 1.0 / 8.0)
    pair = ClassicalPair(labels=tuple((i, i) for i in range(8)), p=p, q=p)
    with pytest.raises(ResourceLimitError):
        classical_exact_errors(pair, 500, 0.0)
