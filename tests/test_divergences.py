import math

import numpy as np
import pytest

from qsdbounds import (
    ClassicalPair,
    DegeneracyError,
    DensityMatrix,
    ValidationError,
    a_r,
    binary_entropy,
    build_psi,
    chernoff_distance,
    eta,
    hoeffding_distance,
    phi,
    phi_hat,
    profile_from_curve,
    psi,
    psi_curve_from_probabilities,
    psi_moments,
    psi_prime,
    psi_second,
    relative_entropy,
    relative_entropy_variance,
    renyi,
    solve_t_r,
)
from qsdbounds.divergences import _GRID_BLOCK, _logsumexp, _logsumexp_rows, _psi_moments_rows, _state_pair
from qsdbounds.linalg import _FSUM_TREE_MIN

from helpers import qubit_pairs, random_full_rank_state, tensor_power

ZERO = DensityMatrix(np.diag([1.0, 0.0]))
ONE = DensityMatrix(np.diag([0.0, 1.0]))
PLUS = DensityMatrix.pure([1.0, 1.0])
HALF = DensityMatrix(np.diag([0.5, 0.5]))

PAIR_A = psi_curve_from_probabilities([0.9, 0.1], [0.4, 0.6])
PAIR_SYM = psi_curve_from_probabilities([0.9, 0.1], [0.1, 0.9])

# frozen by direct two-term evaluation
PSI_HALF_A = math.log(math.sqrt(0.9 * 0.4) + math.sqrt(0.1 * 0.6))
D_A = 0.9 * math.log(0.9 / 0.4) + 0.1 * math.log(0.1 / 0.6)
V_A = 0.9 * math.log(0.9 / 0.4) ** 2 + 0.1 * math.log(0.1 / 0.6) ** 2 - D_A**2


def test_identical_states_give_flat_psi():
    curve = build_psi(HALF.spectral(), HALF.spectral())
    for t in np.linspace(-1.0, 2.0, 13):
        assert psi(curve, float(t)) == pytest.approx(0.0, abs=1e-12)
        assert psi_prime(curve, float(t)) == pytest.approx(0.0, abs=1e-12)
        assert psi_second(curve, float(t)) == pytest.approx(0.0, abs=1e-12)


def test_psi_classical_closed_form():
    assert psi(PAIR_A, 0.5) == pytest.approx(PSI_HALF_A, abs=1e-12)
    assert psi(PAIR_SYM, 0.5) == pytest.approx(math.log(0.6), abs=1e-12)


def test_psi_orthogonal_supports_flagged():
    curve = build_psi(ZERO.spectral(), ONE.spectral())
    assert curve.orthogonal_supports
    assert psi(curve, 0.5) == -math.inf


def test_psi_matches_quantum_and_classical_builds():
    # diagonal states must agree with the probability-vector construction
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    sig = DensityMatrix(np.diag([0.4, 0.6]))
    quantum = build_psi(rho.spectral(), sig.spectral())
    for t in np.linspace(0.0, 1.0, 11):
        assert psi(quantum, float(t)) == pytest.approx(psi(PAIR_A, float(t)), abs=1e-12)


def test_psi_support_sums():
    curve = build_psi(ZERO.spectral(), PLUS.spectral())
    # Tr rho sigma^0 = 1 (sigma full support after projection is rank 1 though):
    # sigma = |+><+| has rank 1, Tr rho sigma^0 = |<0|+>|^2 = 1/2
    assert math.exp(psi(curve, 1.0)) == pytest.approx(0.5, abs=1e-12)
    assert math.exp(psi(curve, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_psi_prime_at_one_is_relative_entropy():
    assert psi_prime(PAIR_A, 1.0) == pytest.approx(D_A, abs=1e-12)
    assert relative_entropy(PAIR_A) == pytest.approx(D_A, abs=1e-12)


def test_psi_convex_on_grid():
    for rho, sig in qubit_pairs(101, 5):
        curve = build_psi(rho.spectral(), sig.spectral())
        for t in np.linspace(-1.0, 2.0, 101):
            assert psi_second(curve, float(t)) >= -1e-12


def test_psi_multiplicative_under_tensor_power():
    rho, sig = qubit_pairs(102, 1)[0]
    single = build_psi(rho.spectral(), sig.spectral())
    rho2 = DensityMatrix(tensor_power(rho.array, 2))
    sig2 = DensityMatrix(tensor_power(sig.array, 2))
    double = build_psi(rho2.spectral(), sig2.spectral())
    for t in np.linspace(0.0, 1.0, 11):
        assert psi(double, float(t)) == pytest.approx(2.0 * psi(single, float(t)), abs=1e-9)


def test_psi_at_dimension_64_matches_the_operator_trace():
    rng = np.random.default_rng(64)
    rho = random_full_rank_state(rng, 64, min_eval=1e-3)
    sig = random_full_rank_state(rng, 64, min_eval=1e-3)
    curve = build_psi(rho.spectral(), sig.spectral())
    la, ua = np.linalg.eigh(rho.array)
    lb, ub = np.linalg.eigh(sig.array)
    for t in (0.25, 0.5, 0.75):
        a_t = (ua * la**t) @ ua.conj().T
        b_rest = (ub * lb ** (1.0 - t)) @ ub.conj().T
        want = math.log(float(np.einsum("ij,ji->", a_t, b_rest).real))
        assert psi(curve, t) == pytest.approx(want, rel=1e-10)


def test_array_sums_are_bit_identical_to_math_fsum():
    # fsum is exactly rounded: feeding it Python floats may not change any result
    rng = np.random.default_rng(103)
    pairs = qubit_pairs(103, 4) + [
        (random_full_rank_state(rng, 3), random_full_rank_state(rng, 3)) for _ in range(2)
    ]
    for rho, sig in pairs:
        curve = build_psi(rho.spectral(), sig.spectral())
        assert relative_entropy(curve) == math.fsum(np.exp(curve.log_p) * curve.log_ratios)


def test_renyi_values_and_support_rules():
    assert renyi(PAIR_A, 0.5) == pytest.approx(-2.0 * PSI_HALF_A, abs=1e-12)
    identical = build_psi(HALF.spectral(), HALF.spectral())
    for t in (0.0, 0.5, 2.0):
        assert renyi(identical, t) == pytest.approx(0.0, abs=1e-12)
    # supp rho not inside supp sigma: +inf above t=1, finite below
    curve = build_psi(ZERO.spectral(), ONE.spectral())
    assert renyi(curve, 0.5) == math.inf
    broken = build_psi(ZERO.spectral(), PLUS.spectral())
    assert renyi(broken, 2.0) == math.inf
    assert math.isfinite(renyi(broken, 0.5))


def test_renyi_rejects_t_one_and_negative():
    with pytest.raises(ValidationError):
        renyi(PAIR_A, 1.0)
    with pytest.raises(ValidationError):
        renyi(PAIR_A, -0.5)


def test_renyi_monotone_in_t():
    for rho, sig in qubit_pairs(103, 3):
        curve = build_psi(rho.spectral(), sig.spectral())
        grid = [renyi(curve, float(t)) for t in np.linspace(0.0, 0.99, 34)]
        assert all(b >= a - 1e-10 for a, b in zip(grid, grid[1:]))
        grid = [renyi(curve, float(t)) for t in np.linspace(1.01, 2.0, 34)]
        assert all(b >= a - 1e-10 for a, b in zip(grid, grid[1:]))


def test_renyi_limit_at_one_is_relative_entropy():
    for rho, sig in qubit_pairs(104, 3):
        curve = build_psi(rho.spectral(), sig.spectral())
        d = relative_entropy(curve)
        assert renyi(curve, 1.0 - 1e-4) == pytest.approx(d, abs=1e-3)
        assert renyi(curve, 1.0 + 1e-4) == pytest.approx(d, abs=1e-3)
        # two-sided average cancels the linear error term
        mean = (renyi(curve, 1.0 - 1e-4) + renyi(curve, 1.0 + 1e-4)) / 2.0
        assert mean == pytest.approx(d, abs=1e-6)


def test_relative_entropy_support_violation():
    curve = build_psi(ZERO.spectral(), PLUS.spectral())
    assert relative_entropy(curve) == math.inf


def test_relative_entropy_variance_value():
    assert relative_entropy_variance(PAIR_A) == pytest.approx(V_A, abs=1e-9)
    identical = build_psi(HALF.spectral(), HALF.spectral())
    assert relative_entropy_variance(identical) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        relative_entropy_variance(build_psi(ZERO.spectral(), PLUS.spectral()))


def test_variance_is_second_derivative_at_one():
    for rho, sig in qubit_pairs(105, 5):
        curve = build_psi(rho.spectral(), sig.spectral())
        assert relative_entropy_variance(curve) == pytest.approx(psi_second(curve, 1.0), abs=1e-9)


def test_chernoff_symmetric_pair():
    c, t_star = chernoff_distance(PAIR_SYM)
    assert c == pytest.approx(-math.log(0.6), abs=1e-10)
    assert t_star == pytest.approx(0.5, abs=1e-6)


def test_chernoff_identical_states():
    curve = build_psi(HALF.spectral(), HALF.spectral())
    c, t_star = chernoff_distance(curve)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert t_star == 0.0


def test_chernoff_matches_dense_grid():
    grid = np.linspace(0.0, 1.0, 100001)
    dense = min(psi(PAIR_A, float(t)) for t in grid)
    c, _ = chernoff_distance(PAIR_A)
    assert c == pytest.approx(-dense, abs=1e-9)


def test_chernoff_orthogonal():
    c, _ = chernoff_distance(build_psi(ZERO.spectral(), ONE.spectral()))
    assert c == math.inf


def test_hoeffding_identical_states():
    curve = build_psi(HALF.spectral(), HALF.spectral())
    for r in (0.1, 1.0, 5.0):
        assert hoeffding_distance(curve, r) == pytest.approx(0.0, abs=1e-12)


def test_hoeffding_matches_dense_grid():
    r = 0.1
    grid = np.linspace(0.0, 1.0 - 1e-9, 100001)
    dense = max((-float(t) * r - psi(PAIR_A, float(t))) / (1.0 - float(t)) for t in grid)
    assert hoeffding_distance(PAIR_A, r) == pytest.approx(dense, abs=1e-8)


def test_hoeffding_small_r_limit_is_relative_entropy():
    # H_r = D - sqrt(2 r V) + O(r), so the gap at r=1e-6 is about 1.1e-3 here
    assert hoeffding_distance(PAIR_A, 1e-6) == pytest.approx(D_A, abs=2e-3)
    assert hoeffding_distance(PAIR_A, 1e-6) == pytest.approx(
        D_A - math.sqrt(2e-6 * V_A), abs=1e-5
    )
    assert hoeffding_distance(PAIR_A, 1e-10) == pytest.approx(D_A, abs=2e-5)


def test_hoeffding_endpoint_regime():
    r_top = -psi(PAIR_A, 0.0) - psi_prime(PAIR_A, 0.0)
    for r in (r_top, r_top + 0.5, 10.0):
        assert hoeffding_distance(PAIR_A, r) == pytest.approx(-psi(PAIR_A, 0.0), abs=1e-12)


def test_hoeffding_nonincreasing_in_r():
    values = [hoeffding_distance(PAIR_A, r) for r in np.linspace(0.001, 1.0, 40)]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


def test_hoeffding_infinite_below_psi_one():
    # sigma has a kernel overlapping supp rho: -psi(1) = ln 2 > 0
    sig = DensityMatrix(np.diag([1.0, 0.0]))
    curve = build_psi(HALF.spectral(), sig.spectral())
    assert -psi(curve, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert hoeffding_distance(curve, 0.1) == math.inf
    boundary = hoeffding_distance(curve, -psi(curve, 1.0))
    assert boundary == pytest.approx(-psi(curve, 1.0) + psi_prime(curve, 1.0), abs=1e-9)


def test_hoeffding_just_above_psi_one_matches_a_40_digit_reference():
    # 5e-14 above -psi(1): H_r falls like sqrt(2 psi''(1) (r + psi(1))), so the
    # t -> 1 limit r + psi'(1) is 2e-7 off here
    import mpmath

    curve = psi_curve_from_probabilities([0.25, 0.75], [0.6, 0.4])
    r = -psi(curve, 1.0) + 5e-14
    mp = mpmath.mp.clone()
    mp.dps = 40
    log_p = [mp.mpf(float(x)) for x in curve.log_p]
    log_q = [mp.mpf(float(x)) for x in curve.log_q]

    def psi_and_prime(t):
        w = [mp.exp(t * lp + (1 - t) * lq) for lp, lq in zip(log_p, log_q)]
        total = mp.fsum(w)
        return mp.log(total), mp.fsum(x * (lp - lq) for x, lp, lq in zip(w, log_p, log_q)) / total

    # (t - 1) psi'(t) - psi(t) decreases to -psi(1) < r: bisect for t_r, then evaluate H_r there
    lo, hi = mp.mpf(0), mp.mpf(1)
    for _ in range(200):
        mid = (lo + hi) / 2
        value, slope = psi_and_prime(mid)
        if (mid - 1) * slope - value > r:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    reference = float((-t * r - psi_and_prime(t)[0]) / (1 - t))
    assert abs(hoeffding_distance(curve, r) - reference) <= 1e-9


def test_hoeffding_rejects_negative_r():
    with pytest.raises(ValidationError):
        hoeffding_distance(PAIR_A, -0.1)


def test_phi_legendre_consistency():
    a = psi_prime(PAIR_A, 0.5)
    assert phi(PAIR_A, a) == pytest.approx(0.5 * a - psi(PAIR_A, 0.5), abs=1e-9)
    assert phi_hat(PAIR_A, a) == pytest.approx(phi(PAIR_A, a) - a, abs=1e-12)


def test_phi_at_zero_is_chernoff():
    assert psi_prime(PAIR_A, 0.0) < 0.0 < psi_prime(PAIR_A, 1.0)
    c, _ = chernoff_distance(PAIR_A)
    assert phi(PAIR_A, 0.0) == pytest.approx(c, abs=1e-10)


def test_phi_identical_states():
    curve = build_psi(HALF.spectral(), HALF.spectral())
    for a in (-1.0, 0.0, 0.7):
        assert phi(curve, a) == pytest.approx(max(a, 0.0), abs=1e-12)


def test_solve_t_r_symmetric_pair():
    r = -psi(PAIR_SYM, 0.5)
    t_r = solve_t_r(PAIR_SYM, r)
    assert t_r == pytest.approx(0.5, abs=1e-9)
    assert a_r(PAIR_SYM, r) == pytest.approx(0.0, abs=1e-9)


def test_solve_t_r_matches_grid_root():
    r = 0.1
    t_r = solve_t_r(PAIR_A, r)
    grid = np.linspace(1e-9, 1.0 - 1e-9, 100001)
    residues = [abs((t - 1.0) * psi_prime(PAIR_A, t) - psi(PAIR_A, t) - r) for t in grid]
    assert t_r == pytest.approx(float(grid[int(np.argmin(residues))]), abs=1e-5)
    # defining equation residual
    assert (t_r - 1.0) * psi_prime(PAIR_A, t_r) - psi(PAIR_A, t_r) == pytest.approx(r, abs=1e-10)


def test_solve_t_r_consistency_with_hoeffding():
    for r in (0.05, 0.1, 0.2):
        t_r = solve_t_r(PAIR_A, r)
        h_r = hoeffding_distance(PAIR_A, r)
        assert t_r * psi_prime(PAIR_A, t_r) - psi(PAIR_A, t_r) == pytest.approx(h_r, abs=1e-8)
        assert a_r(PAIR_A, r) == pytest.approx(psi_prime(PAIR_A, t_r), abs=1e-8)
        assert phi(PAIR_A, a_r(PAIR_A, r)) == pytest.approx(h_r, abs=1e-8)
        assert phi_hat(PAIR_A, a_r(PAIR_A, r)) == pytest.approx(r, abs=1e-8)


def test_solve_t_r_rejects_out_of_range():
    hi = -psi(PAIR_A, 0.0) - psi_prime(PAIR_A, 0.0)
    lo = -psi(PAIR_A, 1.0)
    with pytest.raises(ValidationError) as err:
        solve_t_r(PAIR_A, hi + 1.0)
    # the message names both endpoints of the valid open interval
    assert str(round(hi, 4))[:5] in str(err.value) or repr(hi)[:8] in str(err.value)
    with pytest.raises(ValidationError) as err:
        solve_t_r(PAIR_A, lo - 1e-6 if lo > 0 else -1.0)
    assert "r" in str(err.value)


def test_solve_t_r_degenerate_pair():
    curve = build_psi(HALF.spectral(), HALF.spectral())
    with pytest.raises(DegeneracyError):
        solve_t_r(curve, 0.1)


def test_eta_values():
    identical = build_psi(HALF.spectral(), HALF.spectral())
    assert eta(identical) == pytest.approx(3.0, abs=1e-12)
    z32 = math.exp(psi(PAIR_A, 1.5))
    z12 = math.exp(psi(PAIR_A, 0.5))
    assert eta(PAIR_A) == pytest.approx(1.0 + z32 + z12, abs=1e-10)
    assert eta(build_psi(ZERO.spectral(), PLUS.spectral())) == math.inf


def test_eta_at_least_three_for_states():
    for rho, sig in qubit_pairs(106, 5):
        curve = build_psi(rho.spectral(), sig.spectral())
        assert eta(curve) >= 3.0 - 1e-12


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)


def test_divergence_profile_and_curve_reuse():
    rho, sig = qubit_pairs(108, 1)[0]
    pair = _state_pair(rho, sig)
    prof = profile_from_curve(pair)
    assert _state_pair(rho, sig) is pair  # one memoized pair per state pair
    curve = build_psi(rho.spectral(), sig.spectral())
    assert prof.relative_entropy == pytest.approx(relative_entropy(curve), abs=1e-12)
    assert prof.variance == pytest.approx(relative_entropy_variance(curve), abs=1e-12)
    assert prof.eta == pytest.approx(eta(curve), abs=1e-12)
    c, t_star = chernoff_distance(curve)
    assert prof.chernoff == pytest.approx(c, abs=1e-12)
    assert prof.chernoff_argmin_t == pytest.approx(t_star, abs=1e-12)
    again = profile_from_curve(curve)
    assert again == prof
    assert prof.chernoff >= 0.0
    assert prof.relative_entropy >= 0.0


def test_psi_curve_from_probabilities_validation():
    with pytest.raises(ValidationError):
        psi_curve_from_probabilities([0.9, 0.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        psi_curve_from_probabilities([0.9, 0.1], [0.5, -0.5])
    with pytest.raises(ValidationError):
        psi_curve_from_probabilities([0.9, 0.1], [0.5])
    with pytest.raises(ValidationError):
        psi_curve_from_probabilities([], [])


def test_classical_pair_validates_and_freezes_its_arrays_at_construction():
    labels = ((0, 0), (1, 1))
    for p, q, lab in (
        ([0.5, 0.5], [1.0], labels),
        ([0.5, 0.5], [0.4, 0.6], ((0, 0),)),
        ([0.5, 0.0], [0.4, 0.6], labels),
        ([0.5, 0.5], [0.4, math.nan], labels),
        ([[0.5, 0.5]], [[0.4, 0.6]], labels),
    ):
        with pytest.raises(ValidationError):
            ClassicalPair(labels=lab, p=np.array(p), q=np.array(q))
    p = np.array([0.9, 0.1])
    pair = ClassicalPair(labels=labels, p=p, q=[0.4, 0.6])
    p[0] = 0.5  # the pair holds a copy, so it does not see this
    assert pair.p.tolist() == [0.9, 0.1] and pair.size == 2 and pair.a_support_contained
    assert pair.log_ratios.tolist() == (np.log([0.9, 0.1]) - np.log([0.4, 0.6])).tolist()
    for arr in (pair.p, pair.q, pair.log_p, pair.log_q, pair.log_ratios):
        assert not arr.flags.writeable
    empty = ClassicalPair(labels=(), p=np.empty(0), q=np.empty(0))
    assert empty.orthogonal_supports and psi(empty, 0.5) == -math.inf


def test_psi_moments_are_bit_identical_to_the_separate_transforms():
    rng = np.random.default_rng(7)
    rho, sig = random_full_rank_state(rng, 4), random_full_rank_state(rng, 4)
    curve = build_psi(rho.spectral(), sig.spectral())
    for t in np.linspace(0.0, 1.0, 11):
        t = float(t)
        assert psi_moments(curve, t) == (psi(curve, t), psi_prime(curve, t), psi_second(curve, t))
    with pytest.raises(ValidationError):
        psi_moments(build_psi(ZERO.spectral(), ONE.spectral()), 0.5)


@pytest.mark.parametrize("letters", [1, 4, 64, _FSUM_TREE_MIN + 904])
def test_the_psi_grid_is_psi_moments_at_each_point_bit_for_bit(letters):
    rng = np.random.default_rng(letters)
    curve = psi_curve_from_probabilities(rng.dirichlet(np.ones(letters)), rng.dirichlet(np.full(letters, 0.3)))
    ts = np.arange(101) / 100.0
    grid = _psi_moments_rows(curve, ts)
    expected = np.array([psi_moments(curve, t) for t in ts.tolist()])
    # above _FSUM_TREE_MIN letters `_fsum` sums by rows too; there the grid
    # takes blocks of 3 points, and the smaller curves fit in one block
    assert (_GRID_BLOCK // letters >= ts.size) == (letters < _FSUM_TREE_MIN)
    assert np.array_equal(grid.view(np.int64), expected.view(np.int64))
    with pytest.raises(ValidationError):
        _psi_moments_rows(build_psi(ZERO.spectral(), ONE.spectral()), ts)


def test_out_of_window_rates_raise_on_every_call():
    rng = np.random.default_rng(11)
    curve = build_psi(random_full_rank_state(rng, 3).spectral(), random_full_rank_state(rng, 3).spectral())
    lo_end = -psi(curve, 1.0)
    hi_end = -psi(curve, 0.0) - psi_prime(curve, 0.0)
    inside = 0.5 * (lo_end + hi_end)
    t_inside = solve_t_r(curve, inside)
    for r in (lo_end, hi_end, hi_end + 1.0, lo_end - 1.0):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValidationError) as info:
                solve_t_r(curve, r)
            messages.add(str(info.value))
        assert len(messages) == 1
    assert solve_t_r(curve, inside) == t_inside
    # the window is read from the memo, filled by the first call whatever r it had
    assert curve._memo == {("_t_r_window",): (lo_end, hi_end), ("solve_t_r", inside): t_inside}
    identical = build_psi(HALF.spectral(), HALF.spectral())
    for _ in range(3):
        with pytest.raises(DegeneracyError):
            solve_t_r(identical, 0.1)
    broken = build_psi(ZERO.spectral(), PLUS.spectral())
    for _ in range(3):
        with pytest.raises(ValidationError):
            relative_entropy_variance(broken)
    assert identical._memo == {} and broken._memo == {}


def _unsorted_logsumexp(values):
    if values.size == 0:
        return -math.inf
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(math.fsum(np.exp(values - m).tolist()))


def _binomial_log_terms(n):
    k = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])
    return log_comb + k * math.log(0.3) + (n - k) * math.log(0.7)


_LSE_RNG = np.random.default_rng(2012)


@pytest.mark.parametrize(
    "values",
    [
        _LSE_RNG.permutation(_binomial_log_terms(600)),
        _LSE_RNG.permutation(np.concatenate((_LSE_RNG.uniform(-700.0, 0.0, 997), [-np.inf] * 3))),
        _LSE_RNG.uniform(-40.0, 40.0, 5000),
        np.array([-np.inf, 0.25, -np.inf]),
        np.array([-3.5]),
        np.array([-np.inf, -np.inf]),
        np.array([]),
    ],
    ids=["binomial", "wide_with_neg_inf", "narrow", "one_finite", "single", "all_neg_inf", "empty"],
)
def test_logsumexp_is_the_unsorted_exactly_rounded_sum(values):
    assert repr(_logsumexp(values)) == repr(_unsorted_logsumexp(values))


def test_logsumexp_rows_is_the_one_row_sum_of_each_row():
    terms = _binomial_log_terms(40)
    rows = np.full((5, 44), -np.inf)
    rows[0, :41] = terms
    rows[1, 3:] = _LSE_RNG.uniform(-700.0, 0.0, 41)
    rows[2, 7] = np.inf
    rows[4, :] = _LSE_RNG.uniform(-40.0, 40.0, 44)
    got = _logsumexp_rows(rows)
    assert [repr(x) for x in got.tolist()] == [repr(_unsorted_logsumexp(row)) for row in rows]
    assert _logsumexp_rows(np.empty((3, 0))).tolist() == [-math.inf] * 3
