import math
import sys
import threading
import tracemalloc
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest

from qsdbounds import (
    DensityMatrix,
    ResourceLimitError,
    ValidationError,
    build_classical_pair,
    classical_beta_eps_exact,
    classical_exact_errors,
    classical_exact_errors_log,
    matrix_power_support,
    psi,
    psi_curve_from_probabilities,
)

from qsdbounds import ns_mapping
from qsdbounds.ns_mapping import _type_sums, _type_table

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
        assert counts.dtype == np.uint8
        np.testing.assert_array_equal(counts, np.diff(edges, axis=1) - 1)
        if k <= 3:  # every count vector summing to n, in lexicographic order
            want_rows = [t for t in product(range(n + 1), repeat=k) if sum(t) == n]
            assert [tuple(row) for row in counts.tolist()] == want_rows
        lg = [math.lgamma(j + 1.0) for j in range(n + 1)]
        want = [math.fsum([lg[n]] + [-lg[c] for c in row]) for row in counts.tolist()]
        np.testing.assert_allclose(log_coef, want, rtol=0.0, atol=1e-12)


@pytest.fixture
def cold_types(monkeypatch):
    """An empty type table cache for one test; the process's own comes back after it."""
    monkeypatch.setattr(ns_mapping, "_TYPE_TABLES", {})
    monkeypatch.setattr(ns_mapping, "_type_bytes", 0)


def _held_bytes() -> int:
    held = sum(c.nbytes + lc.nbytes for c, lc in ns_mapping._TYPE_TABLES.values())
    assert held == ns_mapping._type_bytes
    return held


def test_type_table_repeat_call_returns_the_same_read_only_arrays(cold_types):
    for n, k, dtype in ((20, 4, np.uint8), (255, 2, np.uint8), (256, 2, np.uint16)):
        counts, log_coef = _type_table(n, k)
        again = _type_table(n, k)
        assert again[0] is counts and again[1] is log_coef
        assert counts.dtype == dtype and not counts.flags.writeable and not log_coef.flags.writeable
        assert counts.sum(axis=1, dtype=np.int64).tolist() == [n] * counts.shape[0]
    with pytest.raises(ValueError):
        counts[0, 0] = 1


def test_type_cache_keeps_the_first_tables_that_fit_its_budget(monkeypatch, cold_types):
    budget = 512 << 10  # a third of the 1.6 MB of the sweep
    monkeypatch.setattr(ns_mapping, "TYPE_CACHE_BYTES", budget)
    sweep = [(n, 4) for n in range(1, 41)]
    first = {key: _type_table(*key) for key in sweep}
    kept = list(ns_mapping._TYPE_TABLES)
    assert 0 < len(kept) < len(sweep) and kept == sweep[: len(kept)]
    assert 0 < _held_bytes() <= budget
    # a repeat of the sweep rebuilds only the tables that did not fit, and keeps none of them
    again = {key: _type_table(*key) for key in sweep}
    assert [key for key in sweep if again[key][0] is first[key][0]] == kept
    assert list(ns_mapping._TYPE_TABLES) == kept and _held_bytes() <= budget


def test_cold_type_table_build_peaks_under_40_mib(cold_types):
    # 1,949,476 types: 7.8 MB of uint8 counts and 15.6 MB of log coefficients
    tracemalloc.start()
    try:
        counts, log_coef = _type_table(225, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.uint8 and counts.shape == (math.comb(228, 3), 4)
    assert peak <= 40 << 20


def test_type_table_build_subtracts_by_chunk_to_the_same_bits_near_the_table_size(cold_types):
    # the chunked subtraction rounds every entry as the whole-column one did, and
    # its lg[col] temporary is one chunk, not a float64 column of every type
    for n, k in ((7, 3), (40, 5), (120, 4)):
        counts, log_coef = _type_table(n, k)
        np.testing.assert_array_equal(counts, ns_mapping._type_counts(n, k))
        lg = ns_mapping._log_factorials(n)
        want = np.full(counts.shape[0], lg[n])
        for col in counts.T:
            want -= lg[col]
        assert log_coef.tobytes() == want.tobytes(), (n, k)
    ns_mapping._TYPE_TABLES.clear()
    ns_mapping._type_bytes = 0
    tracemalloc.start()
    try:
        counts, log_coef = _type_table(120, 4)  # 302,621 types: 1.2 MB of counts, 2.4 MB of log_coef
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (counts.nbytes + log_coef.nbytes), peak


def test_type_table_over_the_budget_is_built_correct_and_not_kept(monkeypatch, cold_types):
    small = _type_table(6, 3)
    monkeypatch.setattr(ns_mapping, "TYPE_CACHE_BYTES", 4096)
    counts, log_coef = _type_table(40, 3)  # 861 types of 3 + 8 bytes
    assert counts.nbytes + log_coef.nbytes > 4096
    assert list(ns_mapping._TYPE_TABLES) == [(6, 3)] and _type_table(6, 3)[0] is small[0]
    np.testing.assert_array_equal(counts, ns_mapping._type_counts(40, 3))
    lg = [math.lgamma(j + 1.0) for j in range(41)]
    want = [math.fsum([lg[40]] + [-lg[c] for c in row]) for row in counts.tolist()]
    np.testing.assert_allclose(log_coef, want, rtol=0.0, atol=1e-12)
    assert _type_table(40, 3)[0] is not counts


def test_type_cache_stays_within_its_budget_for_racing_threads(monkeypatch, cold_types):
    keys = [(n, k) for k in (3, 4, 5) for n in range(8, 31, 2)]
    want = {key: tuple(np.copy(x) for x in _type_table(*key)) for key in keys}
    ns_mapping._TYPE_TABLES.clear()
    ns_mapping._type_bytes = 0
    budget = 256 << 10  # a tenth of the 2.5 MiB of all the keys: threads race for the room left
    monkeypatch.setattr(ns_mapping, "TYPE_CACHE_BYTES", budget)
    start = threading.Barrier(8)
    results: list = [None] * 8
    errors: list = []

    def worker(i):
        order = np.random.default_rng(i).permutation(len(keys)).tolist() * 2
        try:
            start.wait(timeout=30)
            results[i] = [(keys[j], _type_table(*keys[j])) for j in order]
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for got in results:
        for key, (counts, log_coef) in got:
            assert np.array_equal(counts, want[key][0]) and log_coef.tobytes() == want[key][1].tobytes()
    assert 0 < _held_bytes() <= budget


def test_classical_oracles_give_the_same_bits_cold_and_warm(cold_types):
    p = np.array([0.1, 0.2, 0.3, 0.4])
    q_zero = np.array([0.0, 0.3, 0.3, 0.4])  # a zero-mass letter
    calls = [partial(classical_exact_errors_log, p, p[::-1].copy(), n, a) for n in (1, 24, 48) for a in (-0.1, 0.1)]
    calls += [partial(classical_beta_eps_exact, p, q, n, eps)
              for q in (p[::-1].copy(), q_zero) for n in (1, 24, 48) for eps in (0.0, 0.1)]
    cold = []
    for call in calls:
        ns_mapping._TYPE_TABLES.clear()
        ns_mapping._type_bytes = 0
        cold.append(call())
    warm = [call() for call in calls]
    assert set(ns_mapping._TYPE_TABLES) == {(1, 4), (24, 4), (48, 4)}
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("chunk", [7, 455, 16_384])
def test_type_sums_round_each_product_before_adding_it(monkeypatch, chunk):
    # the sum of count times weight, one letter at a time, as integer count * float64
    # weight, in chunks of types that do not divide, divide or exceed the 455 types
    monkeypatch.setattr(ns_mapping, "_TYPE_CHUNK", chunk)
    counts, _ = _type_table(12, 4)
    weights = np.column_stack((np.random.default_rng(5).normal(size=(4, 2)), [1.0, 0.0, 1.0, 0.0]))
    want = np.zeros((3, counts.shape[0]))
    for col, w in zip(counts.T, weights):
        for row, x in zip(want, w):
            row += col * x
    assert _type_sums(counts, weights).tobytes() == want.tobytes()


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
