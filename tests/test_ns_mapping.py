import math
from itertools import combinations, product

import numpy as np
import pytest

from qsdbounds import (
    DensityMatrix,
    ResourceLimitError,
    TypeVector,
    ValidationError,
    build_classical_pair,
    build_psi,
    classical_exact_errors,
    halfspace_type_approximation,
    iter_types,
    psi,
    sequence_type,
    type_class_log_probability,
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
    for rho, sig in qubit_pairs(202, 5):
        quantum = build_psi(rho.spectral(), sig.spectral())
        classical = build_classical_pair(rho.spectral(), sig.spectral()).psi_curve()
        for t in np.linspace(0.0, 1.0, 11):
            assert psi(classical, float(t)) == pytest.approx(
                psi(quantum, float(t)), abs=1e-9
            )


def test_type_vector_validation():
    tv = TypeVector((2, 0, 3))
    assert tv.n == 5
    assert tv.support_size == 2
    assert np.allclose(tv.probabilities(), [0.4, 0.0, 0.6])
    with pytest.raises(ValidationError):
        TypeVector((1, -1))
    with pytest.raises(ValidationError):
        TypeVector(())


def test_sequence_type():
    tv = sequence_type([0, 1, 1, 2, 1], 4)
    assert tv.counts == (1, 3, 1, 0)


def test_type_class_probability_deterministic_type():
    out = type_class_log_probability(TypeVector((6, 0)))
    assert out.exact == pytest.approx(0.0, abs=1e-12)
    assert out.lower_bound <= 0.0


def test_type_class_probability_hand_value():
    out = type_class_log_probability(TypeVector((2, 2)))
    # per-copy scaling of log(C(4,2)/2^4)
    assert out.exact == pytest.approx(math.log(6.0 / 16.0) / 4.0, abs=1e-12)
    assert out.lower_bound <= out.exact


def test_type_class_probability_bound_always_below_exact():
    rng = np.random.default_rng(203)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 61))
        counts = rng.multinomial(n, rng.dirichlet(np.ones(k)))
        if np.count_nonzero(counts) == 0:
            continue
        out = type_class_log_probability(TypeVector(tuple(int(c) for c in counts)))
        assert out.lower_bound <= out.exact + 1e-12


def test_halfspace_binary_example():
    below, above = halfspace_type_approximation(
        np.array([0.5, 0.5]), np.array([1.0, -1.0]), 0.0, 10
    )
    assert below.counts == (4, 6)
    assert above.counts == (6, 4)
    for tv in (below, above):
        dist = np.abs(np.asarray(tv.probabilities()) - 0.5).sum()
        assert dist <= 2.0 * (2 - 1) / 10 + 1e-12


def test_halfspace_precondition_errors():
    mu = np.array([0.5, 0.5])
    v = np.array([1.0, -1.0])
    with pytest.raises(ValidationError):
        halfspace_type_approximation(mu, v, 0.3, 10)  # <mu, v> != c
    with pytest.raises(ValidationError):
        halfspace_type_approximation(mu, np.array([1.0, 1.0]), 1.0, 10)  # c not interior
    with pytest.raises(ValidationError):
        halfspace_type_approximation(np.array([0.6, 0.5]), v, 0.1, 10)  # not a distribution
    with pytest.raises(ValidationError):
        halfspace_type_approximation(mu, v, 0.0, 1)  # n below r(r-1)


def test_halfspace_three_letter_seeded():
    rng = np.random.default_rng(204)
    n = 30
    for _ in range(10):
        mu = rng.dirichlet(np.ones(3) * 3.0)
        v = rng.normal(size=3)
        c = float(mu @ v)
        if not (v.min() < c < v.max()):
            continue
        below, above = halfspace_type_approximation(mu, v, c, n)
        pb = np.asarray(below.probabilities())
        pa = np.asarray(above.probabilities())
        assert float(pb @ v) < c
        assert float(pa @ v) > c
        assert np.abs(pb - mu).sum() <= 2.0 * 2.0 / n + 1e-12
        assert np.abs(pa - mu).sum() <= 2.0 * 2.0 / n + 1e-12


def test_iter_types_counts():
    types = list(iter_types(5, 3))
    assert len(types) == math.comb(5 + 3 - 1, 3 - 1)
    assert all(sum(t) == 5 for t in types)
    assert len(set(types)) == len(types)
    assert types == sorted(t for t in product(range(6), repeat=3) if sum(t) == 5)
    assert list(iter_types(4, 1)) == [(4,)]
    assert list(iter_types(0, 2)) == [(0, 0)]


@pytest.mark.parametrize("k", range(1, 7))
def test_type_table_is_the_stars_and_bars_enumeration(k):
    for n in range(13):
        total = math.comb(n + k - 1, k - 1)
        bars = np.array(list(combinations(range(n + k - 1), k - 1)), dtype=np.int64).reshape(total, k - 1)
        edges = np.column_stack((np.full(len(bars), -1), bars, np.full(len(bars), n + k - 1)))
        counts, log_coef = _type_table(n, k)
        assert counts.dtype == np.int32
        np.testing.assert_array_equal(counts, np.diff(edges, axis=1) - 1)
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


def test_classical_exact_errors_resource_cap():
    from qsdbounds.ns_mapping import ClassicalPair

    p = np.full(8, 1.0 / 8.0)
    pair = ClassicalPair(labels=tuple((i, i) for i in range(8)), p=p, q=p)
    with pytest.raises(ResourceLimitError):
        classical_exact_errors(pair, 500, 0.0)
