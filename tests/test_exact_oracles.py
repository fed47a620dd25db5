import gc
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qsdbounds import (
    BinaryPair,
    DensityMatrix,
    ResourceLimitError,
    ValidationError,
    beta_eps_exact,
    build_psi,
    classical_beta_eps_exact,
    classical_exact_errors,
    classical_exact_errors_log,
    en_bounds,
    en_exact_log,
    np_test_errors,
    phi,
    phi_hat,
    psi,
    psi_curve_from_probabilities,
    psi_prime,
    quantum_chernoff_lower,
    quantum_mixed_error_exact,
    quantum_mixed_lower,
    rate_curve,
)
from qsdbounds import exact_oracles
from qsdbounds.divergences import _state_pair
from qsdbounds.finite_bounds import (
    classical_lower,
    hoeffding_upper,
    mixed_upper,
    second_order_reference,
    stein_lower,
    stein_upper,
    stein_upper_generic,
    stein_upper_intermediate,
)
from qsdbounds.linalg import DIM_CAP

from helpers import block_pair, qubit_pairs, random_full_rank_state, random_unitary, tensor_power

ZERO = DensityMatrix(np.diag([1.0, 0.0]))
ONE = DensityMatrix(np.diag([0.0, 1.0]))
PLUS = DensityMatrix.pure([1.0, 1.0])
HALF = DensityMatrix(np.diag([0.5, 0.5]))


def test_mixed_error_identical_states():
    for n in (1, 3):
        assert quantum_mixed_error_exact(HALF, HALF, n, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mixed_error_orthogonal_pure_states():
    assert quantum_mixed_error_exact(ZERO, ONE, 1, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_mixed_error_nonorthogonal_pure_states():
    expected = 1.0 - math.sqrt(2.0) / 2.0
    assert quantum_mixed_error_exact(ZERO, PLUS, 1, 0.0) == pytest.approx(expected, abs=1e-12)


def test_mixed_error_dimension_cap():
    with pytest.raises(ResourceLimitError):
        quantum_mixed_error_exact(ZERO, PLUS, 13, 0.0)


def test_np_test_orthogonal_states():
    out = np_test_errors(ZERO, ONE, 1, 0.0)
    assert out.alpha == pytest.approx(0.0, abs=1e-12)
    assert out.beta == pytest.approx(0.0, abs=1e-12)


def test_np_test_pure_state_closed_form():
    out = np_test_errors(ZERO, PLUS, 1, 0.0)
    assert out.alpha + out.beta == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-10)
    assert not out.degenerate_kernel


def test_np_test_degenerate_kernel_flagged():
    out = np_test_errors(HALF, HALF, 2, 0.0)
    assert out.degenerate_kernel


def test_np_test_matches_mixed_error():
    for rho, sig in qubit_pairs(301, 5):
        for n in (1, 2, 4):
            for a in (-0.2, 0.0, 0.3):
                out = np_test_errors(rho, sig, n, a)
                if out.degenerate_kernel:
                    continue
                combo = math.exp(-n * a) * out.alpha + out.beta
                exact = quantum_mixed_error_exact(rho, sig, n, a)
                assert combo == pytest.approx(exact, abs=1e-9)


def test_np_test_error_exponent_bounds():
    for rho, sig in qubit_pairs(302, 3):
        curve = build_psi(rho.spectral(), sig.spectral())
        for n in (1, 2, 4):
            for a in (0.0, 0.1):
                out = np_test_errors(rho, sig, n, a)
                assert out.alpha <= math.exp(-n * phi_hat(curve, a)) + 1e-9
                assert out.beta <= math.exp(-n * phi(curve, a)) + 1e-9


def test_np_test_monotone_tradeoff_in_a():
    rho, sig = qubit_pairs(303, 1)[0]
    alphas, betas = [], []
    for a in np.linspace(-0.5, 0.5, 11):
        out = np_test_errors(rho, sig, 3, float(a))
        alphas.append(out.alpha)
        betas.append(out.beta)
    # the acceptance projector shrinks as a grows
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(betas, betas[1:]))


def test_beta_eps_identical_states():
    for eps in (0.1, 0.5, 0.9):
        assert beta_eps_exact(HALF, HALF, 2, eps) == pytest.approx(1.0 - eps, abs=1e-9)


def test_beta_eps_orthogonal_states():
    assert beta_eps_exact(ZERO, ONE, 1, 0.3) == pytest.approx(0.0, abs=1e-10)


def test_beta_eps_validates_eps():
    with pytest.raises(ValidationError):
        beta_eps_exact(ZERO, PLUS, 1, 0.0)
    with pytest.raises(ValidationError):
        beta_eps_exact(ZERO, PLUS, 1, 1.0)


def test_beta_eps_monotone_and_convex_in_eps():
    rho, sig = qubit_pairs(304, 1)[0]
    grid = np.linspace(0.05, 0.95, 19)
    values = [beta_eps_exact(rho, sig, 3, float(e)) for e in grid]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    for i in range(1, len(values) - 1):
        assert values[i] <= (values[i - 1] + values[i + 1]) / 2.0 + 1e-8


TINY_BETA_RHO = DensityMatrix([[0.65331, -0.344895 - 0.291782j], [-0.344895 + 0.291782j, 0.34669]])
TINY_BETA_SIGMA = DensityMatrix([[0.151504, 0.006306 + 0.301881j], [0.006306 - 0.301881j, 0.848496]])


# beta_{n,0.3} from a 40-digit mpmath bisection of the Neyman-Pearson derivative
# Tr rho_n {lam rho_n - sigma_n > 0} = 0.7 over the blocks det^k Sym^(n-2k),
# built independently of exact_oracles; dual and primal agree to every digit
# shown. The same bisection on the dense 2^n matrices agrees to 7e-10 at n = 8
# and 3e-8 at n = 10.
@pytest.mark.parametrize(
    "n,want",
    [
        (8, 6.3756056953e-10),
        (10, 5.0070860586e-12),
        (11, 4.0868183327e-13),
        (12, 3.3892596668e-14),
    ],
)
def test_beta_eps_keeps_tiny_beta(n, want):
    # the qubit blocks are real in sigma's eigenbasis, where pi_lam(sigma) is
    # diagonal, which keeps beta = 3.4e-14 at n = 12 to 1e-9
    got = beta_eps_exact(TINY_BETA_RHO, TINY_BETA_SIGMA, n, 0.3)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_beta_eps_never_below_np_test_beta():
    # the NP test at any threshold with alpha <= eps witnesses feasibility
    for rho, sig in qubit_pairs(305, 3):
        for n in (1, 3):
            for a in (-0.3, 0.0, 0.4):
                out = np_test_errors(rho, sig, n, a)
                if out.alpha <= 0.3:
                    assert beta_eps_exact(rho, sig, n, 0.3) <= out.beta + 1e-8


def test_classical_beta_eps_hand_case():
    p = np.array([0.25, 0.75])
    q = np.array([0.75, 0.25])
    assert classical_beta_eps_exact(p, q, 1, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_classical_beta_eps_zero_eps_is_support_mass():
    # alpha = 0 forces accepting all of supp p^n, so beta = q(supp p)^n
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert classical_beta_eps_exact(p, q, 1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert classical_beta_eps_exact(p, q, 2, 0.0) == pytest.approx(0.25, abs=1e-12)
    shared = np.array([0.3, 0.7])
    assert classical_beta_eps_exact(shared, q, 2, 0.0) == pytest.approx(1.0, abs=1e-12)
    # a shared support: every type is accepted, with no remainder of the budget left over
    assert classical_beta_eps_exact([0.9, 0.1], [0.4, 0.6], 5, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_classical_beta_eps_eps_one_is_zero():
    p = np.array([0.3, 0.7])
    q = np.array([0.5, 0.5])
    assert classical_beta_eps_exact(p, q, 3, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_classical_beta_eps_randomization_between_types():
    # n=1, p=q=(1/2,1/2): beta = 1 - eps exactly for every eps
    p = np.array([0.5, 0.5])
    for eps in (0.2, 0.35, 0.8):
        assert classical_beta_eps_exact(p, p, 1, eps) == pytest.approx(1.0 - eps, abs=1e-12)


def test_beta_eps_zero_exactly_when_sigma_support_misses_enough_rho_mass():
    rho = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]]))
    # <+|rho|+> = 0.6: 0.6^4 > 0.1 >= 0.6^5
    assert beta_eps_exact(rho, PLUS, 4, 0.1) > 0.0
    assert beta_eps_exact(rho, PLUS, 5, 0.1) == 0.0
    assert beta_eps_exact(rho, PLUS, 6, 0.1) == 0.0


# (p, q) per alphabet size, without and with a zero letter; no letter has p = q = 0
DIAGONAL_PAIRS = {
    (2, False): ([0.7, 0.3], [0.2, 0.8]),
    (2, True): ([0.6, 0.4], [0.0, 1.0]),
    (3, False): ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]),
    (3, True): ([0.0, 0.45, 0.55], [0.2, 0.5, 0.3]),
    (4, False): ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
    (4, True): ([0.5, 0.3, 0.2, 0.0], [0.0, 0.2, 0.3, 0.5]),
}


@pytest.mark.parametrize("d,zero", sorted(DIAGONAL_PAIRS), ids=lambda v: str(v))
def test_quantum_matches_classical_on_diagonal_states(d, zero):
    # commuting states are their classical pair: both oracles give the same
    # beta at every n under the cap, down to a budget of 1e-12
    p, q = DIAGONAL_PAIRS[d, zero]
    rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    ns = [n for n in range(1, 13) if d**n <= DIM_CAP]
    for eps in (0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12):
        quantum = beta_eps_exact(rho, sigma, ns, eps)
        for n, got in zip(ns, quantum.tolist()):
            want = classical_beta_eps_exact(p, q, n, eps)
            assert abs(got - want) <= 1e-10 * want, (n, eps, got, want)


def _greedy_np_beta(p, q, n: int, eps: float) -> float:
    """beta_{n,eps} at 60 digits: types rejected by ascending likelihood ratio
    while their p-mass fits eps, the boundary type randomized."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 60

    def unit(masses):
        masses = [mp.mpf(x) for x in masses]
        total = mp.fsum(masses)
        return [x / total for x in masses]

    p, q = unit(p), unit(q)

    def types(left, k):
        if k == 1:
            yield (left,)
            return
        for c in range(left + 1):
            yield from ((c, *rest) for rest in types(left - c, k - 1))

    masses = []
    for counts in types(n, len(p)):
        coef = mp.factorial(n) / mp.fprod(mp.factorial(c) for c in counts)
        masses.append((coef * mp.fprod(x**c for x, c in zip(p, counts)),
                       coef * mp.fprod(x**c for x, c in zip(q, counts))))
    masses.sort(key=lambda m: m[0] / m[1] if m[1] else mp.inf)
    budget, beta = mp.mpf(eps), mp.mpf(0)
    for mass_p, mass_q in masses:
        if mass_p <= budget:
            budget -= mass_p
        else:
            beta += mass_q * (1 - budget / mass_p)
            budget = 0
    return float(beta)


SMALL_EPS_ROWS = [
    *(pytest.param([0.9, 0.1], [0.4, 0.6], n, math.exp(-n * r), id=f"n{n}-r{r}")
      for n, r in ((100, 0.3), (100, 0.5), (200, 0.3), (40, 0.5), (200, 0.1))),
    *(pytest.param(p, q, n, eps, id=f"k{len(p)}-eps{eps}")
      for p, q, n in (([0.6, 0.3, 0.1], [0.2, 0.3, 0.5], 60), ([0.5, 0.25, 0.15, 0.1], [0.1, 0.2, 0.3, 0.4], 24))
      for eps in (1e-12, 1e-20)),
]


@pytest.mark.parametrize("p,q,n,eps", SMALL_EPS_ROWS)
def test_classical_beta_eps_is_exact_at_small_eps(p, q, n, eps):
    # the Hoeffding regime eps = exp(-n r) goes far below the rounding of 1 - eps
    want = _greedy_np_beta(p, q, n, eps)
    assert classical_beta_eps_exact(p, q, n, eps) == pytest.approx(want, rel=1e-12, abs=0.0)


CROSS_CHECK_KINDS = ("full_rank", "rank_deficient", "pure_rho", "pure_sigma", "commuting", "near_degenerate")


def _cross_check_pair(kind: str, d: int = 2) -> tuple[DensityMatrix, DensityMatrix]:
    rng = np.random.default_rng([307, CROSS_CHECK_KINDS.index(kind), *([d] if d != 2 else [])])

    def full():
        return random_full_rank_state(rng, d)

    def pure():
        return DensityMatrix.pure(random_unitary(rng, d)[:, 0])

    def rank_two():
        u = random_unitary(rng, d)[:, :2]
        return DensityMatrix((u * np.array([0.65, 0.35])) @ u.conj().T)

    if kind == "full_rank":
        return full(), full()
    if kind == "rank_deficient":  # both states rank 2; a rank-deficient qubit is pure
        return (pure(), pure()) if d == 2 else (rank_two(), rank_two())
    if kind == "pure_rho":
        return pure(), full()
    if kind == "pure_sigma":
        return full(), pure()
    if kind == "commuting":
        if d == 2:
            return DensityMatrix(np.diag([0.3, 0.7])), DensityMatrix(np.diag([0.55, 0.45]))
        return DensityMatrix(np.diag(rng.dirichlet(np.ones(d)))), DensityMatrix(np.diag(rng.dirichlet(np.ones(d))))
    # two eigenvalues 4e-9 apart, under the eigensolver's grouping tolerance of 1e-8
    u = random_unitary(rng, d)
    weights = np.arange(d - 1, 0, -1, dtype=np.float64) ** 2
    weights /= weights.sum()
    evals = np.concatenate(([weights[0] / 2 + 2e-9, weights[0] / 2 - 2e-9], weights[1:]))
    return DensityMatrix((u * evals) @ u.conj().T), full()


def _oracle_values(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> dict:
    values = {}
    for a in (-0.1, 0.0, 0.2):
        values["e", a] = quantum_mixed_error_exact(rho, sigma, n, a)
        values["np", a] = np_test_errors(rho, sigma, n, a)
    values["beta"] = beta_eps_exact(rho, sigma, n, 0.2)
    return values


def _assert_values_agree(got: dict, want: dict, compare_flag: bool) -> None:
    for key, value in want.items():
        if key == "beta" or key[0] == "e":
            assert abs(got[key] - value) <= 1e-10 * abs(value), key
        else:
            # alpha and beta carry an absolute rounding floor: two roundings of
            # the same qubit blocks already differ by 1.4e-15 on beta = 3e-7
            assert abs(got[key].alpha - value.alpha) <= 1e-12 * abs(value.alpha) + 1e-14, key
            assert abs(got[key].beta - value.beta) <= 1e-12 * abs(value.beta) + 1e-14, key
            if compare_flag:
                assert got[key].degenerate_kernel == value.degenerate_kernel, key


def _padded_qutrit(state: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.pad(state.array, ((0, 1), (0, 1))))


@pytest.mark.parametrize("kind", CROSS_CHECK_KINDS)
def test_qubit_blocks_match_the_dense_path_of_the_padded_qutrit(kind):
    # rho + 0 and sigma + 0 have the same exact errors, computed on the qutrit
    # Schur-Weyl blocks, so this checks the d = 2 and d = 3 blocks against each
    # other; the padding adds an exact kernel, so the kernel flag is not compared.
    rho, sigma = _cross_check_pair(kind)
    rho3, sigma3 = _padded_qutrit(rho), _padded_qutrit(sigma)
    for n in range(1, 8):
        _assert_values_agree(
            _oracle_values(rho, sigma, n), _oracle_values(rho3, sigma3, n), compare_flag=False
        )


def _dense_cases():
    # 3^5 and 4^4: the dense reference eigensolves the whole tensor power
    for d, n_max in ((2, 7), (3, 5), (4, 4)):
        for kind in CROSS_CHECK_KINDS:
            yield pytest.param(kind, d, n_max, id=kind if d == 2 else f"{kind}-d{d}")


@pytest.mark.parametrize("kind,d,n_max", _dense_cases())
def test_qubit_blocks_match_dense_qubit_tensor_powers(kind, d, n_max, monkeypatch):
    # ids without a suffix are the qubit cases; -d3 and -d4 run the same check on qudits
    rho, sigma = _cross_check_pair(kind, d)
    blocked = {n: _oracle_values(rho, sigma, n) for n in range(1, n_max + 1)}

    def dense_stacks(r, s, n):  # one stack per n, holding its whole tensor powers
        ns = [n] if np.ndim(n) == 0 else list(n)
        return ns, [(np.array([i]), np.eye(len(ns))[[i]], np.stack((tensor_power(r.array, k),
                     tensor_power(s.array, k)))[:, None]) for i, k in enumerate(ns)]

    monkeypatch.setattr(exact_oracles, "_sweep_stacks", dense_stacks)
    for n in range(1, n_max + 1):
        _assert_values_agree(blocked[n], _oracle_values(rho, sigma, n), compare_flag=True)


def _dense_np_bisection(rho: DensityMatrix, sigma: DensityMatrix, n: int, eps: float) -> float:
    """beta_{n,eps} on the dense tensor powers: bisect lam until the projector
    test {lam rho_n - sigma_n > 0} has alpha = eps, then read the dual there."""
    r, s = tensor_power(rho.array, n), tensor_power(sigma.array, n)

    def test(lam):
        w, v = np.linalg.eigh(lam * r - s)
        cols = v[:, w > 0.0]
        alpha = 1.0 - float(np.einsum("ij,ij->", cols.conj(), r @ cols).real)
        return alpha, (1.0 - eps) * lam - math.fsum(w[w > 0.0].tolist())

    lo, hi = 0.0, 1.0
    while test(hi)[0] > eps:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * hi:
        mid = (lo + hi) / 2.0
        if test(mid)[0] > eps:
            lo = mid
        else:
            hi = mid
    return max(test(lo)[1], test(hi)[1])


def _np_search_cases():
    for d, n_max in ((2, 6), (3, 4)):
        for kind in CROSS_CHECK_KINDS:
            yield pytest.param(kind, d, n_max, id=f"{kind}-d{d}")


@pytest.mark.parametrize("kind,d,n_max", _np_search_cases())
def test_np_search_brackets_the_dense_bisection(kind, d, n_max, monkeypatch):
    rounds = []
    np_round = exact_oracles._np_round

    def counted(stacks, lam, open_, tol):
        rounds[-1] += 1
        return np_round(stacks, lam, open_, tol)

    monkeypatch.setattr(exact_oracles, "_np_round", counted)
    rho, sigma = _cross_check_pair(kind, d)
    for n in range(1, n_max + 1):
        for eps in (0.05, 0.3):
            rounds.append(0)
            (dual,), (primal,) = exact_oracles._beta_eps_sweep(rho, sigma, [n], eps)
            assert rounds[-1] <= 40, (n, eps)
            if primal == 0.0:  # the support test: beta = 0 needs no search
                assert dual == 0.0 and rounds[-1] == 0
                continue
            assert rounds[-1] >= 1, (n, eps)
            assert dual <= primal * (1.0 + 1e-12), (n, eps)
            assert primal - dual <= 1e-12 * primal, (n, eps)
            want = _dense_np_bisection(rho, sigma, n, eps)
            assert abs(dual - want) <= 1e-9 * want, (n, eps)
            assert abs(primal - want) <= 1e-9 * want, (n, eps)
            if kind == "commuting":
                p, q = np.diagonal(rho.array).real, np.diagonal(sigma.array).real
                assert beta_eps_exact(rho, sigma, n, eps) == pytest.approx(
                    classical_beta_eps_exact(p, q, n, eps), rel=1e-12, abs=0.0)


def _sweep_cases():
    # beta: d = 4 stops at n = 3, where the dense reference bisects 64 x 64
    # matrices; e_n, a single eigensolve per stack, runs to the cap
    for d, n_max, n_cap in ((2, 6, 12), (3, 4, 7), (4, 3, 6)):
        for kind in CROSS_CHECK_KINDS:
            for eps in (0.05, 0.3):
                yield pytest.param("beta_eps_exact", kind, d, n_max, eps, id=f"{kind}-d{d}-eps{eps}")
            for a in (0.0, 0.1):
                yield pytest.param("quantum_mixed_error_exact", kind, d, n_cap, a, id=f"e_n-{kind}-d{d}-a{a}")
    # the one-level pair [[1]], [[1]], capped like a qubit pair at n = 12
    yield pytest.param("beta_eps_exact", "full_rank", 1, 12, 0.3, id="one_level-d1-eps0.3")
    yield pytest.param("quantum_mixed_error_exact", "full_rank", 1, 12, 0.1, id="e_n-one_level-d1-a0.1")


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("an eigensolve ran before the cap was checked")


@pytest.mark.parametrize("oracle,kind,d,n_max,x", _sweep_cases())
def test_beta_eps_sweep_matches_each_n_alone(oracle, kind, d, n_max, x, monkeypatch):
    # the sweep pads the small blocks of all n into one stack, so its roundings
    # differ from those of one n alone; beta must still meet the dense bisection
    call = beta_eps_exact if oracle == "beta_eps_exact" else quantum_mixed_error_exact
    rho, sigma = _cross_check_pair(kind, d)
    sweep = call(rho, sigma, range(1, n_max + 1), x)
    assert isinstance(sweep, np.ndarray) and sweep.dtype == np.float64 and sweep.shape == (n_max,)
    for n, got in zip(range(1, n_max + 1), sweep.tolist()):
        alone = call(rho, sigma, n, x)
        assert isinstance(alone, float)
        if call is quantum_mixed_error_exact:
            assert abs(got - alone) <= 1e-14, n  # e_n cancels: its rounding floor is absolute
            continue
        assert abs(got - alone) <= 1e-12 * alone, n
        if alone == 0.0:  # the support test, which the dense bisection does not make
            continue
        want = _dense_np_bisection(rho, sigma, n, x)
        assert abs(got - want) <= 1e-9 * want, n
        assert abs(alone - want) <= 1e-9 * want, n
    n_cap = next(n for n in range(1, 14) if max(d, 2) ** (n + 1) > DIM_CAP)
    rho, sigma = _cross_check_pair(kind, d)  # fresh states, with no block image built
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolve)
    with pytest.raises(ResourceLimitError):
        call(rho, sigma, [1, n_cap + 1], x)
    with pytest.raises(ResourceLimitError):
        call(rho, sigma, n_cap + 1, x)


_EN_FLOOR = 1e-14  # e_n and the dual cancel to about 1e-16 kappa; this leaves 100 ulps of 1


def test_mixed_error_of_near_orthogonal_pure_pairs_is_never_negative():
    # kappa - Tr(kappa rho_n - sigma_n)_+ cancels to e_n = 1 - sqrt(1 - F^n) at
    # a = 0, which a fidelity F of 1e-8 to 1e-1 puts far below its absolute
    # rounding floor: unclipped, 2,451 of these 4,900 sums land below 0
    rng = np.random.default_rng(4900)
    for d, count in ((2, 300), (3, 100), (4, 100)):
        ns = np.arange(1, exact_oracles._max_copies(d) + 1)
        for _ in range(count):
            u = random_unitary(rng, d)
            fidelity = 10.0 ** rng.uniform(-8.0, -1.0)
            rho = DensityMatrix.pure(u[:, 0])
            sigma = DensityMatrix.pure(math.sqrt(1.0 - fidelity) * u[:, 1] + math.sqrt(fidelity) * u[:, 0])
            want = fidelity**ns / (1.0 + np.sqrt(1.0 - fidelity**ns))
            e_n = quantum_mixed_error_exact(rho, sigma, ns, 0.0)
            assert np.all(e_n >= 0.0) and np.all(np.abs(e_n - want) <= _EN_FLOOR), (d, fidelity)
            for n in ns[::3].tolist():  # the CLI oracle's e_n, from one Neyman-Pearson round
                got = exact_oracles._oracle_errors(rho, sigma, n, 0.0)[0]
                assert 0.0 <= got and abs(got - want[n - 1]) <= _EN_FLOOR, (d, fidelity, n)


# Checks of theorems that need no reference value: e_n(0) and beta_{n,eps}
# do not increase with n (a test may ignore a copy), and the product of a test
# on m copies and one on n copies gives beta_{m+n,eps1+eps2} <= beta_{m,eps1}
# beta_{n,eps2}. A lower end of the larger side must sit below an upper end of
# the smaller, within REFERENCE_FREE_REL plus the absolute floor of the cancelling forms.
REFERENCE_FREE_REL = 1e-9
REFERENCE_FREE_EPS = (0.05, 0.1, 0.05 + 0.1)


def _assert_reference_free(lower: dict, upper: dict, ns: list[int], floor: float) -> None:
    """lower[eps][n] and upper[eps][n] bracket beta_{n,eps} (eps None: e_n(0) alone)."""
    for eps in lower:
        for m, n in zip(ns, ns[1:]):
            assert lower[eps][n] <= upper[eps][m] * (1.0 + REFERENCE_FREE_REL) + floor, (eps, m, n)
    if None in lower:
        return
    eps1, eps2, eps = REFERENCE_FREE_EPS
    for m in ns:
        for n in ns:
            if m + n in lower[eps]:
                bound = upper[eps1][m] * upper[eps2][n]
                assert lower[eps][m + n] <= bound * (1.0 + REFERENCE_FREE_REL) + floor, (m, n)


@pytest.mark.parametrize("d,n_max", [(2, 12), (3, 7)])
@pytest.mark.parametrize("kind", CROSS_CHECK_KINDS)
def test_quantum_oracles_meet_the_reference_free_theorems(kind, d, n_max):
    rho, sigma = _cross_check_pair(kind, d)
    ns = list(range(1, n_max + 1))
    e_n = dict(zip(ns, quantum_mixed_error_exact(rho, sigma, ns, 0.0).tolist()))
    _assert_reference_free({None: e_n}, {None: e_n}, ns, _EN_FLOOR)
    lower, upper = {}, {}
    for eps in REFERENCE_FREE_EPS:
        dual, primal = exact_oracles._beta_eps_sweep(rho, sigma, ns, eps)
        lower[eps], upper[eps] = dict(zip(ns, dual.tolist())), dict(zip(ns, primal.tolist()))
    _assert_reference_free(lower, upper, ns, _EN_FLOOR)


@pytest.mark.parametrize("k,ns", [
    (2, list(range(1, 201))),
    (3, list(range(1, 201))),
    # every n of 4 letters to 200 takes seconds: the small n, and the ends near 100 and 200
    (4, list(range(1, 41)) + [99, 100, 101, 199, 200]),
])
def test_classical_beta_eps_meets_the_reference_free_theorems(k, ns):
    p, q = np.random.default_rng([4901, k]).dirichlet(np.full(k, 3.0), size=2)
    beta = {eps: {n: classical_beta_eps_exact(p, q, n, eps) for n in ns} for eps in REFERENCE_FREE_EPS}
    assert min(beta[0.1].values()) > 0.0  # full support: no beta rounds to 0
    _assert_reference_free(beta, beta, ns, 0.0)


def test_quantum_lower_bounds_sit_below_the_exact_mixed_error_at_n_12():
    # n = 12 = d^2 (d^2 - 1) is the one qubit n under the cap where the paper's
    # quantum lower bounds hold; r runs over 1/4, 1/2 and 3/4 of (-psi(1), -psi(0) - psi'(0))
    checked = 0
    for kind in CROSS_CHECK_KINDS:
        rho, sigma = _cross_check_pair(kind)
        curve = build_psi(rho.spectral(), sigma.spectral())
        lo, hi = -psi(curve, 1.0), -psi(curve, 0.0) - psi_prime(curve, 0.0)
        reports = [(quantum_chernoff_lower(rho, sigma, 12), 0.0)]
        for share in (0.25, 0.5, 0.75):
            report = quantum_mixed_lower(rho, sigma, 12, lo + share * (hi - lo))
            reports.append((report, report.parameters.get("a_r")))
        for report, a in reports:
            if not report.valid:
                assert report.reason, kind
                continue
            exact = math.log(quantum_mixed_error_exact(rho, sigma, 12, a)) / 12
            assert report.bound_value <= exact, (kind, report.parameters)
            checked += 1
    assert checked >= 15  # full rank, pure rho, pure sigma, commuting, near degenerate


def _spectrum_case(d: int) -> tuple[DensityMatrix, DensityMatrix]:
    if d == 1:
        return DensityMatrix([[1.0]]), DensityMatrix([[1.0]])
    if d == 2:
        return qubit_pairs(308, 1)[0]
    rng = np.random.default_rng([308, d])
    return random_full_rank_state(rng, d), random_full_rank_state(rng, d)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_blocks_carry_the_spectrum_of_the_tensor_power(d):
    rho, sigma = _spectrum_case(d)
    lam = np.linalg.eigvalsh(rho.array)
    for n in range(1, 13):
        if d**n > DIM_CAP:
            break
        blocks = block_pair(rho, sigma, n)
        if d == 2:
            assert len(blocks) == n // 2 + 1
        assert sum(m * r.shape[0] for m, r, _ in blocks) == d**n
        assert math.fsum(m * float(np.trace(r).real) for m, r, _ in blocks) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(m * float(np.trace(s).real) for m, _, s in blocks) == pytest.approx(1.0, abs=1e-12)
        if d**n <= 256:
            got = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(r), m) for m, r, _ in blocks]))
            want = np.sort(tensor_power(np.diag(lam), n).diagonal().real)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)


def _copied_stacks(blocks_by_n):
    """The stacks (owner, weight, pair) built block by block from `block_pair`:
    the reference for the gathered stacks of `_sweep_stacks`."""
    groups = {}
    for i, blocks in enumerate(blocks_by_n):
        for m, r, s in blocks:
            groups.setdefault(0 if r.shape[0] <= exact_oracles._PAD_MAX else r.shape[0], []).append((i, m, r, s))
    stacks = []
    for group in groups.values():
        rows = max(r.shape[0] for _, _, r, _ in group)
        weight = np.zeros((len(group), len(blocks_by_n)))
        pair = np.zeros((2, len(group), rows, rows), dtype=group[0][2].dtype)
        pair[1, :, range(rows), range(rows)] = 1.0
        for j, (i, m, r, s) in enumerate(group):
            weight[j, i] = m
            pair[:, j, : r.shape[0], : r.shape[0]] = r, s
        stacks.append(([i for i, _, _, _ in group], weight, pair))
    return stacks


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_gathered_stacks_equal_the_blocks_copied_one_by_one(d):
    rho, sigma = _spectrum_case(d)
    for ns in (list(range(1, exact_oracles._max_copies(d) + 1)), [3, 1, 3], [exact_oracles._max_copies(d)]):
        got_ns, got = exact_oracles._sweep_stacks(rho, sigma, ns)
        want = _copied_stacks([block_pair(rho, sigma, n) for n in ns])
        assert got_ns == ns and len(got) == len(want)
        for (owner, weight, pair), (want_owner, want_weight, want_pair) in zip(got, want):
            assert owner.tolist() == want_owner and np.array_equal(weight, want_weight)
            assert pair.dtype == want_pair.dtype and np.array_equal(pair, want_pair)


def test_irrep_cache_builds_each_basis_once_for_concurrent_callers(monkeypatch):
    monkeypatch.setattr(exact_oracles, "_IRREPS", {})
    builds = Counter()
    build_basis = exact_oracles._build_basis

    def counted(d, lam):
        builds[d, lam] += 1
        return build_basis(d, lam)

    monkeypatch.setattr(exact_oracles, "_build_basis", counted)
    rho, sigma = _spectrum_case(3)
    start = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        start.wait(timeout=30)
        results[i] = block_pair(rho, sigma, 6)

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
    assert builds and set(builds.values()) == {1}
    for blocks in results[1:]:
        assert all(
            m == m0 and np.array_equal(r, r0) and np.array_equal(s, s0)
            for (m, r, s), (m0, r0, s0) in zip(blocks, results[0])
        )


def test_every_thread_gets_the_same_blocks_in_any_order():
    # the reference blocks come from fresh copies of the pair, built on this thread
    def states():
        rng = np.random.default_rng(309)
        return random_full_rank_state(rng, 3), random_full_rank_state(rng, 3)

    rho, sigma = states()
    want = {n: block_pair(*states(), n) for n in range(1, 7)}
    start = threading.Barrier(8)
    results: list = [None] * 8
    errors: list = []

    def worker(i):
        order = np.random.default_rng(i).permutation(np.arange(1, 7)).tolist()
        try:
            start.wait(timeout=30)
            results[i] = {n: block_pair(rho, sigma, n) for n in order}
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
        for n, blocks in want.items():
            assert len(got[n]) == len(blocks)
            assert all(
                m == m0 and np.array_equal(r, r0) and np.array_equal(s, s0)
                for (m, r, s), (m0, r0, s0) in zip(got[n], blocks)
            )


def test_an_oracle_call_keeps_nothing_of_its_pair():
    # with gc off, a reference cycle through a call's images would keep them too
    rng = np.random.default_rng(310)
    rho, ns = random_full_rank_state(rng, 4), list(range(1, 7))
    quantum_mixed_error_exact(random_full_rank_state(rng, 4), random_full_rank_state(rng, 4), ns, 0.0)  # warm bases and layout
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(10):
            quantum_mixed_error_exact(rho, random_full_rank_state(rng, 4), ns, 0.0)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 0.1e6, kept
    assert rho._pair_memos == {}


def test_np_test_flags_a_kernel_that_only_the_symmetric_block_holds():
    # kappa p_0^n = q_0^n: the outcome 0...0 spans the kernel and lies in block k = 0 only
    rho, sigma = DensityMatrix(np.diag([0.3, 0.7])), DensityMatrix(np.diag([0.55, 0.45]))
    a = math.log(0.3 / 0.55)
    for n in (2, 3, 4):
        assert np_test_errors(rho, sigma, n, a).degenerate_kernel
        assert not np_test_errors(rho, sigma, n, a + 0.05).degenerate_kernel


_ORACLES = {
    "beta_eps_exact": lambda rho, sigma, n: beta_eps_exact(rho, sigma, n, 0.1),
    "quantum_mixed_error_exact": lambda rho, sigma, n: quantum_mixed_error_exact(rho, sigma, n, 0.0),
    "np_test_errors": lambda rho, sigma, n: np_test_errors(rho, sigma, n, 0.0),
    # the bounds read n by the same rule
    "stein_upper_generic": lambda rho, sigma, n: stein_upper_generic(_state_pair(rho, sigma), n, 0.1, 0.5),
    "stein_upper": lambda rho, sigma, n: stein_upper(_state_pair(rho, sigma), n, 0.1),
    "stein_lower": lambda rho, sigma, n: stein_lower(_state_pair(rho, sigma), n, 0.1),
    "stein_upper_intermediate": lambda rho, sigma, n: stein_upper_intermediate(_state_pair(rho, sigma), n, 0.1, 2.0),
    "hoeffding_upper": lambda rho, sigma, n: hoeffding_upper(_state_pair(rho, sigma), n, 0.05),
    "mixed_upper": lambda rho, sigma, n: mixed_upper(_state_pair(rho, sigma), n, 0.0),
    "classical_lower": lambda rho, sigma, n: classical_lower(_state_pair(rho, sigma), n, 0.05),
    "quantum_mixed_lower": lambda rho, sigma, n: quantum_mixed_lower(rho, sigma, n, 0.05),
    "quantum_chernoff_lower": lambda rho, sigma, n: quantum_chernoff_lower(rho, sigma, n),
    "second_order_reference": lambda rho, sigma, n: second_order_reference(_state_pair(rho, sigma), n, 0.1),
}


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), True, [1, 2.5], [2.0], (1, 2.0), [True], [[1, 2]]],
                         ids=["2.5", "2.0", "float64", "bool", "list-2.5", "list-2.0", "tuple-2.0",
                              "list-bool", "2-D"])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_quantum_oracles_reject_a_non_integer_n(oracle, n):
    rho, sigma = qubit_pairs(811, 1)[0]
    with pytest.raises(ValidationError, match="integer"):
        _ORACLES[oracle](rho, sigma, n)
    # numpy integers are integers
    assert _ORACLES[oracle](rho, sigma, np.int64(2)) == _ORACLES[oracle](rho, sigma, 2)


_CLASSICAL_ORACLES = {
    "classical_beta_eps_exact": lambda n: classical_beta_eps_exact([0.5, 0.5], [0.3, 0.7], n, 0.1),
    "classical_exact_errors": lambda n: classical_exact_errors(
        psi_curve_from_probabilities([0.5, 0.5], [0.3, 0.7]), n, 0.0),
    "rate_curve": lambda n: rate_curve(BinaryPair(0.2, 0.6), 0.0, n),
    "en_exact_log": lambda n: en_exact_log(BinaryPair(0.2, 0.6), n, 0.0),
    "en_bounds": lambda n: en_bounds(BinaryPair(0.2, 0.6), n, 0.0),
}


@pytest.mark.parametrize("n", [2.5, 2.0, True], ids=["2.5", "2.0", "bool"])
@pytest.mark.parametrize("oracle", sorted(_CLASSICAL_ORACLES))
def test_classical_oracles_reject_a_non_integer_n(oracle, n):
    # the integer rule of the quantum oracles: True is not one copy
    with pytest.raises(ValidationError, match="integer"):
        _CLASSICAL_ORACLES[oracle](n)
    assert _CLASSICAL_ORACLES[oracle](np.int64(2)) == _CLASSICAL_ORACLES[oracle](2)


_LETTER_CHECKS = {
    "classical_beta_eps_exact": lambda p, q: classical_beta_eps_exact(p, q, 2, 0.1),
    "classical_exact_errors_log": lambda p, q: classical_exact_errors_log(p, q, 2, 0.0),
    "psi_curve_from_probabilities": psi_curve_from_probabilities,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize("entry", sorted(_LETTER_CHECKS))
def test_classical_entry_points_reject_non_finite_masses(entry, side, bad):
    masses = {"p": [bad, 0.5], "q": [0.5, 0.5]} if side == "p" else {"p": [0.5, 0.5], "q": [0.5, bad]}
    with pytest.raises(ValidationError, match="finite"):
        _LETTER_CHECKS[entry](**masses)


def _gaussian_state(rng: np.random.Generator, d: int) -> DensityMatrix:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_np_search_ends_at_its_rounding_floor_without_the_gap_tolerance(monkeypatch):
    # with _GAP_RTOL = 0 only the stop on a round that no longer shrinks
    # primal - dual can end a search that does not close exactly; the second
    # qutrit pair of this seed needs that stop, in complex arithmetic
    rng = np.random.default_rng(3)
    pairs = [(_gaussian_state(rng, 2), _gaussian_state(rng, 2)) for _ in range(4)]
    pairs += [(_gaussian_state(rng, 3), _gaussian_state(rng, 3)) for _ in range(2)]
    ns = list(range(1, 6))
    want = [exact_oracles._beta_eps_sweep(rho, sigma, ns, 0.1) for rho, sigma in pairs]
    rounds = np.zeros(len(ns), dtype=int)
    np_round = exact_oracles._np_round

    def counted(stacks, lam, open_, tol):
        rounds[:] += open_
        return np_round(stacks, lam, open_, tol)

    monkeypatch.setattr(exact_oracles, "_np_round", counted)
    monkeypatch.setattr(exact_oracles, "_GAP_RTOL", 0.0)
    floor_stops = Counter()
    for (rho, sigma), (want_dual, _) in zip(pairs, want):
        rounds[:] = 0
        dual, primal = exact_oracles._beta_eps_sweep(rho, sigma, ns, 0.1)
        assert rounds.max() <= 40, rounds
        assert np.all(np.abs(dual - want_dual) <= 1e-12 * want_dual)
        assert np.all(np.abs(primal - dual) <= 1e-12 * primal)
        floor_stops[rho.dim] += int(np.count_nonzero(primal > dual))
    assert floor_stops.total() >= 1  # a search that ended with its gap still open
    assert floor_stops[3] >= 1  # one of them on complex qutrit blocks


def _basis_rule_pair(kind: str) -> tuple[DensityMatrix, DensityMatrix]:
    rng = np.random.default_rng(812)
    if kind == "real-qutrit":
        return DensityMatrix(np.diag([0.5, 0.3, 0.2])), DensityMatrix(np.diag([0.17, 0.36, 0.47]))
    if kind == "complex-qutrit":
        return random_full_rank_state(rng, 3), random_full_rank_state(rng, 3)
    diagonal, generic = DensityMatrix(np.diag([0.7, 0.3])), random_full_rank_state(rng, 2)
    if kind == "rho-diagonal":
        return diagonal, generic
    if kind == "sigma-diagonal":
        return generic, diagonal
    # off-diagonal entries of phase 0.46 and 1.95 rad
    return (DensityMatrix([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]),
            DensityMatrix([[0.3, -0.1 + 0.25j], [-0.1 - 0.25j, 0.7]]))


@pytest.mark.parametrize("kind,dtype", [
    ("real-qutrit", np.complex128),
    ("rho-diagonal", np.float64),
    ("sigma-diagonal", np.float64),
    ("generic-qubit", np.float64),
    ("complex-qutrit", np.complex128),
])
def test_pair_basis_is_real_for_every_qubit_pair_and_moves_no_oracle(kind, dtype):
    # every qubit pair gets real blocks, any other pair, even a real one, complex
    # blocks; the oracles must not see the basis: the same pair turned by a
    # random unitary, which leaves no state diagonal or real, gives the same values
    rho, sigma = _basis_rule_pair(kind)
    for n in (1, 2, 5):
        assert all(r.dtype == dtype and s.dtype == dtype for _, r, s in block_pair(rho, sigma, n))
    u = random_unitary(np.random.default_rng(813), rho.dim)
    rho_u, sigma_u = (DensityMatrix(u @ x.array @ u.conj().T) for x in (rho, sigma))
    ns = list(range(1, 7))
    np.testing.assert_allclose(
        beta_eps_exact(rho, sigma, ns, 0.1), beta_eps_exact(rho_u, sigma_u, ns, 0.1), rtol=1e-10, atol=0.0)
    for n in ns:
        for a in (-0.2, 0.0, 0.3):
            want = quantum_mixed_error_exact(rho_u, sigma_u, n, a)
            assert quantum_mixed_error_exact(rho, sigma, n, a) == pytest.approx(want, rel=1e-10, abs=0.0)
            got, want = np_test_errors(rho, sigma, n, a), np_test_errors(rho_u, sigma_u, n, a)
            assert not got.degenerate_kernel and not want.degenerate_kernel
            assert got.alpha == pytest.approx(want.alpha, rel=1e-10, abs=0.0)
            assert got.beta == pytest.approx(want.beta, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_np_test_of_a_pure_pair_keeps_the_exact_input_basis(n):
    # rho = |0><0| is diagonal as given, so the blocks keep that basis and its
    # exact zeros; kappa alpha + beta is then the Helstrom error
    # 1 - sqrt(1 - F^n), F = |<0|phi>|^2 = 0.05, written without cancellation
    phi = [math.sqrt(0.05), math.sqrt(0.95) * complex(math.cos(0.7), math.sin(0.7))]
    out = np_test_errors(ZERO, DensityMatrix.pure(phi), n, 0.0)
    fidelity = 0.05**n
    want = fidelity / (1.0 + math.sqrt(1.0 - fidelity))
    assert out.alpha + out.beta == pytest.approx(want, rel=1e-13, abs=0.0)


def test_np_round_sums_the_positive_part_of_every_open_n():
    # one round gives the test's alpha and beta and Tr(lam rho_n - sigma_n)_+;
    # an n not open reads 0 in all three, and the open ones do not move
    rho, sigma = _cross_check_pair("full_rank")
    _, stacks = exact_oracles._sweep_stacks(rho, sigma, [3, 5])
    kappa = np.array([math.exp(-3 * 0.1), math.exp(5 * 0.05)])
    (alpha, beta), flags, positive = exact_oracles._np_round(stacks, kappa, np.ones(2, bool), 1e-12)
    want = [quantum_mixed_error_exact(rho, sigma, 3, 0.1), quantum_mixed_error_exact(rho, sigma, 5, -0.05)]
    assert (kappa - positive).tolist() == pytest.approx(want, rel=1e-10, abs=1e-15)
    (alpha_one, beta_one), flags_one, positive_one = exact_oracles._np_round(
        stacks, kappa, np.array([False, True]), 1e-12)
    assert [alpha_one[0], beta_one[0], positive_one[0], flags_one[0]] == [0.0, 0.0, 0.0, False]
    assert alpha_one[1] == pytest.approx(alpha[1], rel=1e-13, abs=1e-16)
    assert beta_one[1] == pytest.approx(beta[1], rel=1e-13, abs=1e-16)
    assert positive_one[1] == pytest.approx(positive[1], rel=1e-13, abs=0.0)
