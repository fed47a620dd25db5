import math
import sys
import threading

import numpy as np
import pytest

from qsdbounds import (
    DensityMatrix,
    ValidationError,
    a_r,
    build_classical_pair,
    build_psi,
    chernoff_distance,
    classical_exact_errors,
    classical_lower,
    hoeffding_upper,
    mixed_upper,
    phi,
    psi,
    psi_curve_from_probabilities,
    psi_prime,
    quantum_chernoff_lower,
    quantum_mixed_lower,
    relative_entropy,
    relative_entropy_variance,
    second_order_reference,
    stein_lower,
    stein_upper,
    stein_upper_generic,
    stein_upper_intermediate,
)
from qsdbounds import divergences, linalg
from qsdbounds.ns_mapping import ClassicalPair

from helpers import qubit_pairs

ZERO = DensityMatrix(np.diag([1.0, 0.0]))
PLUS = DensityMatrix.pure([1.0, 1.0])
HALF = DensityMatrix(np.diag([0.5, 0.5]))
IDENTICAL = build_psi(HALF.spectral(), HALF.spectral())
PAIR_A = psi_curve_from_probabilities([0.9, 0.1], [0.4, 0.6])
BROKEN_SUPPORT = build_psi(ZERO.spectral(), PLUS.spectral())


def test_stein_generic_t_zero_full_rank():
    out = stein_upper_generic(PAIR_A, 50, 0.1, 0.0)
    assert out.bound_value == pytest.approx(0.0, abs=1e-12)


def test_stein_generic_identical_states_hand_value():
    out = stein_upper_generic(IDENTICAL, 100, 0.5, 0.5)
    assert out.bound_value == pytest.approx(-math.log(2.0) / 100.0, abs=1e-12)


def test_stein_generic_arithmetic():
    t, eps, n = 0.7, 0.1, 50
    expected = (
        -psi(PAIR_A, t) / (t - 1.0)
        + (t / (1.0 - t)) * math.log(10.0) / n
        - (-t * math.log(t) - (1.0 - t) * math.log(1.0 - t)) / ((1.0 - t) * n)
    )
    assert stein_upper_generic(PAIR_A, n, eps, t).bound_value == pytest.approx(expected, abs=1e-12)


def test_stein_generic_validation():
    with pytest.raises(ValidationError):
        stein_upper_generic(PAIR_A, 10, 0.1, 1.0)
    with pytest.raises(ValidationError):
        stein_upper_generic(PAIR_A, 10, 0.1, -0.1)
    with pytest.raises(ValidationError):
        stein_upper_generic(PAIR_A, 10, 1.5, 0.5)


BOUND_AT_N = {
    "stein_upper_generic": lambda n: stein_upper_generic(PAIR_A, n, 0.1, 0.5),
    "stein_upper": lambda n: stein_upper(PAIR_A, n, 0.1),
    "stein_lower": lambda n: stein_lower(PAIR_A, n, 0.1),
    "stein_upper_intermediate": lambda n: stein_upper_intermediate(PAIR_A, n, 0.1, 2.0),
    "hoeffding_upper": lambda n: hoeffding_upper(PAIR_A, n, 0.1),
    "mixed_upper": lambda n: mixed_upper(PAIR_A, n, 0.1),
    "classical_lower": lambda n: classical_lower(PAIR_A, n, 0.1),
    "quantum_mixed_lower": lambda n: quantum_mixed_lower(HALF, PLUS, n, 0.1),
    "quantum_chernoff_lower": lambda n: quantum_chernoff_lower(HALF, PLUS, n),
    "second_order_reference": lambda n: second_order_reference(PAIR_A, n, 0.1),
}


@pytest.mark.parametrize("n", [2.5, 2.0, True, 0])
@pytest.mark.parametrize("bound", sorted(BOUND_AT_N))
def test_every_bound_rejects_a_count_that_is_not_a_positive_integer(bound, n):
    with pytest.raises(ValidationError):
        BOUND_AT_N[bound](n)


def test_stein_upper_identical_states_value():
    out = stein_upper(IDENTICAL, 100, 0.5)
    expected = (
        4.0 * math.sqrt(2.0) * math.sqrt(math.log(2.0)) * math.log(3.0) / 10.0
        - 2.0 * math.log(2.0) / 100.0
    )
    assert out.bound_value == pytest.approx(expected, abs=1e-12)
    assert out.bound_value == pytest.approx(0.50354, abs=1e-5)


def test_stein_lower_identical_states_value():
    out = stein_lower(IDENTICAL, 100, 0.5)
    expected = -4.0 * math.sqrt(2.0) * math.sqrt(math.log(2.0)) * math.log(3.0) / 10.0
    assert out.bound_value == pytest.approx(expected, abs=1e-12)
    assert out.bound_value == pytest.approx(-0.51740, abs=1e-5)


def test_stein_printed_variant_coefficient():
    up = stein_upper(PAIR_A, 100, 0.1, variant="as_printed")
    d = relative_entropy(PAIR_A)
    log_eta = math.log(up.parameters["eta"])
    expected = (
        -d
        + 4.0 * math.sqrt(2.0) * math.log(10.0) * log_eta / 10.0
        - 2.0 * math.log(2.0) / 100.0
    )
    assert up.bound_value == pytest.approx(expected, abs=1e-12)


def test_stein_variants_and_unknown():
    assert stein_upper(PAIR_A, 100, 0.1).parameters["variant"] == "as_derived"
    with pytest.raises(ValidationError):
        stein_upper(PAIR_A, 100, 0.1, variant="tight")


def test_stein_lower_vanishing_correction_as_eps_to_zero():
    d = relative_entropy(PAIR_A)
    out = stein_lower(PAIR_A, 100, 1e-12)
    assert out.bound_value == pytest.approx(-d, abs=1e-5)


def test_stein_upper_decreasing_toward_minus_d():
    d = relative_entropy(PAIR_A)
    values = [stein_upper(PAIR_A, 10**k, 0.1).bound_value for k in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(-d, abs=0.02)


def test_stein_invalid_without_support_containment():
    up = stein_upper(BROKEN_SUPPORT, 10, 0.1)
    lo = stein_lower(BROKEN_SUPPORT, 10, 0.1)
    assert not up.valid and not lo.valid
    assert math.isnan(up.bound_value) and math.isnan(lo.bound_value)
    assert "eta" in up.reason


def test_stein_intermediate_recovers_both_variants():
    eps, n = 0.1, 500
    derived = stein_upper_intermediate(PAIR_A, n, eps, 2.0)
    assert derived.bound_value == pytest.approx(stein_upper(PAIR_A, n, eps).bound_value, abs=1e-12)
    printed = stein_upper_intermediate(PAIR_A, n, eps, 2.0 * math.log(1.0 / eps))
    assert printed.bound_value == pytest.approx(
        stein_upper(PAIR_A, n, eps, variant="as_printed").bound_value, abs=1e-12
    )


def test_stein_intermediate_validity_window():
    out = stein_upper_intermediate(PAIR_A, 1, 1e-6, 1.0001)
    assert not out.valid
    assert out.parameters["n_min"] > 1.0
    with pytest.raises(ValidationError):
        stein_upper_intermediate(PAIR_A, 10, 0.1, 0.9)


def test_hoeffding_upper_endpoint_regime():
    r_top = -psi(PAIR_A, 0.0) - psi_prime(PAIR_A, 0.0)
    out = hoeffding_upper(PAIR_A, 25, r_top + 0.1)
    assert out.parameters["t_r"] == 0.0
    assert out.bound_value == pytest.approx(psi(PAIR_A, 0.0), abs=1e-12)


def test_hoeffding_upper_symmetric_pair():
    sym = psi_curve_from_probabilities([0.9, 0.1], [0.1, 0.9])
    c, _ = chernoff_distance(sym)
    out = hoeffding_upper(sym, 20, c)
    assert out.parameters["t_r"] == pytest.approx(0.5, abs=1e-9)
    assert out.bound_value == pytest.approx(-c - 2.0 * math.log(2.0) / 20.0, abs=1e-9)


def test_hoeffding_upper_out_of_range():
    curve = build_psi(HALF.spectral(), ZERO.spectral())  # -psi(1) = ln 2 > 0
    out = hoeffding_upper(curve, 10, 0.1)
    assert not out.valid
    with pytest.raises(ValidationError):
        hoeffding_upper(PAIR_A, 10, -0.5)


def test_hoeffding_upper_against_classical_oracle():
    # exact optimal type-II error at exponential type-I level e^{-nr}, down to
    # e^{-200} = 1.4e-87 at n = 400, r = 0.5
    from qsdbounds import classical_beta_eps_exact

    p = np.array([0.9, 0.1])
    q = np.array([0.4, 0.6])
    for r in (0.05, 0.1, 0.3, 0.5):
        for n in (10, 25, 40, 100, 200, 400):
            out = hoeffding_upper(PAIR_A, n, r)
            exact = classical_beta_eps_exact(p, q, n, math.exp(-n * r))
            assert math.log(exact) / n <= out.bound_value + 1e-12


def test_mixed_upper_at_zero_is_chernoff():
    c, _ = chernoff_distance(PAIR_A)
    out = mixed_upper(PAIR_A, 5, 0.0)
    assert out.mixed.bound_value == pytest.approx(-c, abs=1e-10)
    assert out.beta.bound_value == pytest.approx(-c, abs=1e-10)
    assert out.mixed.quantity == "mixed_rate"
    assert out.alpha.quantity == "alpha_rate"
    assert out.beta.quantity == "beta_rate"


def test_mixed_upper_identical_states_negative_threshold():
    out = mixed_upper(IDENTICAL, 3, -1.0)
    assert out.mixed.bound_value == pytest.approx(0.0, abs=1e-12)
    assert out.alpha.bound_value == pytest.approx(-1.0, abs=1e-12)


def test_classical_lower_constants():
    # |X| = 2: coefficient 1.5 on log(n)/n; c_n for p_min = 0.1
    pair = ClassicalPair(labels=((0, 0), (1, 1)), p=np.array([0.9, 0.1]), q=np.array([0.4, 0.6]))
    out = classical_lower(pair, 100, 0.1)
    expected_cn = 1.0 * (1.0 + 2.0 * math.log(10.0)) + 1.3
    assert out.alpha.parameters["c_n"] == pytest.approx(expected_cn, abs=1e-10)
    assert expected_cn == pytest.approx(6.9052, abs=1e-4)
    h_r = out.beta.parameters["hoeffding_distance"]
    common = -1.5 * math.log(100.0) / 100.0 + 1.0 / (100.0 * 1201.0)
    assert out.alpha.bound_value == pytest.approx(-0.1 + common - expected_cn / 100.0, abs=1e-12)
    expected_dn = 1.0 * (1.0 + 2.0 * math.log(1.0 / 0.4)) + 1.3
    assert out.beta.bound_value == pytest.approx(-h_r + common - expected_dn / 100.0, abs=1e-12)


def test_classical_lower_holds_at_symmetric_chernoff_point():
    p = np.array([0.9, 0.1])
    q = np.array([0.1, 0.9])
    pair = ClassicalPair(labels=((0, 0), (1, 1)), p=p, q=q)
    c, _ = chernoff_distance(pair)
    n = 10
    out = classical_lower(pair, n, c)
    errs = classical_exact_errors(pair, n, a_r(pair, c))
    assert math.log(errs.alpha) / n >= out.alpha.bound_value
    assert math.log(errs.beta) / n >= out.beta.bound_value


def test_classical_lower_invalid_cases():
    pair = ClassicalPair(labels=((0, 0), (1, 1)), p=np.array([0.9, 0.1]), q=np.array([0.4, 0.6]))
    out = classical_lower(pair, 1, 0.1)
    assert not out.alpha.valid and "n >= 2" in out.alpha.reason
    out = classical_lower(pair, 100, 50.0)  # r above the open interval
    assert not out.alpha.valid and not out.beta.valid


def test_quantum_mixed_lower_preconditions():
    rho, sig = qubit_pairs(401, 1)[0]
    out = quantum_mixed_lower(rho, sig, 8, 0.05)
    assert not out.valid and "n >= 12" in out.reason
    out = quantum_mixed_lower(rho, sig, 12, 0.05)
    assert out.valid
    assert out.parameters["d"] == 2
    assert out.bound_value < -out.parameters["hoeffding_distance"]


def test_quantum_mixed_lower_classical_chain():
    # 2 e_n >= classical mixed error, so the quantum bound must sit below
    # the classical exact rate wherever both are defined
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    sig = DensityMatrix(np.diag([0.4, 0.6]))
    curve = build_psi(rho.spectral(), sig.spectral())
    pair = build_classical_pair(rho.spectral(), sig.spectral())
    r = 0.1
    a = a_r(curve, r)
    for n in (12, 50, 150):
        out = quantum_mixed_lower(rho, sig, n, r)
        errs = classical_exact_errors(pair, n, a)
        assert out.valid
        assert math.log(errs.mixed / 2.0) / n >= out.bound_value


def test_quantum_chernoff_lower_symmetric_root():
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    sig = DensityMatrix(np.diag([0.1, 0.9]))
    out = quantum_chernoff_lower(rho, sig, 50)
    assert out.valid
    assert out.parameters["t_0"] == pytest.approx(0.5, abs=1e-9)
    assert out.parameters["chernoff"] == pytest.approx(-math.log(0.6), abs=1e-9)


KERNEL_RHO = DensityMatrix(np.diag([0.6, 0.3, 0.1]))
KERNEL_SIGMA = DensityMatrix(np.diag([0.8, 0.2, 0.0]))


@pytest.mark.parametrize(
    "rho, sig, t_star, chernoff",
    [
        # identical states: psi' is identically 0, so the leftmost argmin 0 wins
        (HALF, HALF, 0.0, 0.0),
        # psi'(1) < 0: psi decreases on all of [0, 1] down to log Tr rho Pi_sigma = log 0.9
        (KERNEL_RHO, KERNEL_SIGMA, 1.0, -math.log(0.9)),
        # psi'(0) > 0: psi increases on all of [0, 1]
        (KERNEL_SIGMA, KERNEL_RHO, 0.0, -math.log(0.9)),
    ],
    ids=["identical", "argmin_one", "argmin_zero"],
)
def test_quantum_chernoff_lower_no_root(rho, sig, t_star, chernoff):
    curve = build_psi(rho.spectral(), sig.spectral())
    c, t = chernoff_distance(curve)
    assert t == t_star
    assert c == pytest.approx(chernoff, abs=1e-15)
    out = quantum_chernoff_lower(rho, sig, 100)
    assert not out.valid
    assert out.reason == "psi' has no root in (0, 1)"
    # the conjugate's maximizer sits at an endpoint once a lies outside [psi'(0), psi'(1)]
    assert phi(curve, 5.0) == 5.0 - psi(curve, 1.0)
    assert phi(curve, -5.0) == -psi(curve, 0.0)


def test_second_order_reference_values():
    d = relative_entropy(PAIR_A)
    v = relative_entropy_variance(PAIR_A)
    out = second_order_reference(PAIR_A, 100, 0.5)
    assert out.bound_value == pytest.approx(-d, abs=1e-12)
    assert out.side == "reference"
    out = second_order_reference(PAIR_A, 100, 0.1)
    from scipy.special import ndtri

    assert out.bound_value == pytest.approx(-d + math.sqrt(v) * ndtri(0.1) / 10.0, abs=1e-12)
    assert out.bound_value == pytest.approx(-0.6507257, abs=1e-6)
    assert second_order_reference(IDENTICAL, 7, 0.3).bound_value == pytest.approx(0.0, abs=1e-12)


def test_second_order_reference_invalid_without_containment():
    out = second_order_reference(BROKEN_SUPPORT, 10, 0.1)
    assert not out.valid


def test_bound_reports_carry_metadata():
    out = stein_upper(PAIR_A, 10, 0.25)
    assert out.n == 10
    assert out.quantity == "stein_rate"
    assert out.side == "upper"
    assert out.parameters["eps"] == 0.25
    assert out.valid and out.reason == ""


def test_an_n_sweep_pays_each_search_once(monkeypatch):
    # fresh states: their memos must not have been filled by another test
    rho = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
    sig = DensityMatrix(np.array([[0.4, 0.1 + 0.05j], [0.1 - 0.05j, 0.6]]))
    counts = {"bisect": 0, "eigh": 0, "grouped": 0, "table": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(divergences, "bisect_decreasing", counting("bisect", divergences.bisect_decreasing))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(linalg, "_grouped", counting("grouped", linalg._grouped))
    monkeypatch.setattr(divergences, "support_overlap_table",
                        counting("table", divergences.support_overlap_table))
    curve = divergences._state_pair(rho, sig)
    r = -0.5 * (psi(curve, 1.0) + psi(curve, 0.0) + psi_prime(curve, 0.0))
    a = 0.5 * (psi_prime(curve, 0.0) + psi_prime(curve, 1.0))
    sweep = [
        (hoeffding_upper(curve, n, r), mixed_upper(curve, n, a).mixed,
         quantum_chernoff_lower(rho, sig, n), quantum_mixed_lower(rho, sig, n, r))
        for n in range(1, 81)
    ]
    assert all(rep.valid for row in sweep[11:] for rep in row)
    # no eigensolve once the states exist (each keeps the eigh it was validated
    # with), its clusters grouped once per state, one joint-support table per
    # state pair, and one bisection per r or a on its pair: t_r (shared by
    # hoeffding_upper and quantum_mixed_lower), the conjugate point at a, and
    # the conjugate point at 0
    assert counts == {"bisect": 3, "eigh": 0, "grouped": 2, "table": 1}
    # the quantum bounds read the same pair at every n, and the pair keeps
    # psi at t_r and at the conjugate points, and the window of t_r
    assert rho.pair_memo(sig)["pair"] is curve
    assert {key[0] for key in curve._memo} == {
        "_conjugate_point", "solve_t_r", "_min_masses", "_psi_at", "_t_r_window"}


def test_an_n_sweep_evaluates_psi_at_the_first_n_only(monkeypatch):
    # fresh states: their memos must not have been filled by another test
    rho = DensityMatrix(np.array([[0.6, 0.25j], [-0.25j, 0.4]]))
    sig = DensityMatrix(np.array([[0.3, 0.1], [0.1, 0.7]]))
    calls = [0]
    shifted = divergences._shifted_weights

    def counting(*args):
        calls[0] += 1
        return shifted(*args)

    monkeypatch.setattr(divergences, "_shifted_weights", counting)
    curve = divergences._state_pair(rho, sig)
    r = -0.5 * (psi(curve, 1.0) + psi(curve, 0.0) + psi_prime(curve, 0.0))
    a = 0.5 * (psi_prime(curve, 0.0) + psi_prime(curve, 1.0))
    first_valid = 12  # n >= |X|(|X| - 1) for the 4-letter alphabet of two qubits
    per_n = []
    for n in range(1, 81):
        before = calls[0]
        row = (hoeffding_upper(curve, n, r), mixed_upper(curve, n, a).mixed,
               quantum_chernoff_lower(rho, sig, n), quantum_mixed_lower(rho, sig, n, r),
               *classical_lower(curve, n, r), stein_upper_generic(curve, n, 0.1, 0.5))
        assert all(rep.valid for rep in row) == (n >= first_valid)
        per_n.append(calls[0] - before)
    # each psi term is evaluated at the first n that reads it: n = 1 for most,
    # n = 12 for C = -psi(t_0) of quantum_chernoff_lower; later n read the memo
    assert per_n[0] > 0 and per_n[first_valid - 1] > 0
    assert sum(per_n) == per_n[0] + per_n[first_valid - 1]


def test_a_classical_lower_sweep_solves_t_r_once(monkeypatch):
    calls = [0]
    bisect = divergences.bisect_decreasing

    def counting(*args):
        calls[0] += 1
        return bisect(*args)

    monkeypatch.setattr(divergences, "bisect_decreasing", counting)
    pair = ClassicalPair(labels=((0, 0), (1, 1)), p=np.array([0.8, 0.2]), q=np.array([0.3, 0.7]))
    r = -0.5 * (psi(pair, 1.0) + psi(pair, 0.0) + psi_prime(pair, 0.0))
    sweep = [classical_lower(pair, n, r) for n in range(2, 81)]
    assert all(out.alpha.valid and out.beta.valid for out in sweep)
    # the pair keeps its searches, so t_r is solved at the first n only
    assert calls[0] == 1
    # the memo and the derived arrays take no part in repr
    assert "_memo" not in repr(pair) and "log_p" not in repr(pair)


def test_concurrent_first_calls_agree_with_a_serial_sweep():
    def states():
        return (DensityMatrix(np.array([[0.6, 0.25j], [-0.25j, 0.4]])),
                DensityMatrix(np.array([[0.3, 0.1], [0.1, 0.7]])))

    def sweep(rho, sig, curve, r, n_values):
        return [(hoeffding_upper(curve, n, r), mixed_upper(curve, n, 0.0).mixed,
                 quantum_chernoff_lower(rho, sig, n), quantum_mixed_lower(rho, sig, n, r))
                for n in n_values]

    rho, sig = states()
    curve = build_psi(rho.spectral(), sig.spectral())
    r = -0.5 * (psi(curve, 1.0) + psi(curve, 0.0) + psi_prime(curve, 0.0))
    serial_rho, serial_sig = states()
    want = sweep(serial_rho, serial_sig, build_psi(serial_rho.spectral(), serial_sig.spectral()),
                 r, range(10, 20))
    start = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        start.wait(timeout=30)
        results[i] = sweep(rho, sig, curve, r, range(10, 20))

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
    assert all(repr(got) == repr(want) for got in results)


@pytest.mark.parametrize("p,q,n", [([0.8, 0.2], [0.3, 0.7], 12), ([0.8, 0.2], [0.3, 0.7], 200),
                                   ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 72)],
                         ids=["qubit-12", "qubit-200", "qutrit-72"])
def test_quantum_lower_bounds_meet_the_hand_formula(p, q, n):
    # -C (or -H_r) - 3(d^2 - 1)/2 log(n)/n + 1/(n(12n + 1)) - c/n, with the
    # method-of-types constant c from the eigenvalues: a smaller c makes both
    # bounds tighter, the unsafe direction, which the oracle checks cannot see
    rho, sig = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    card = len(p) ** 2
    c = (card - 1) * (1.0 + 2.0 * math.log(1.0 / min(p + q))) + 1.3
    want = -1.5 * (card - 1) * math.log(n) / n + 1.0 / (n * (12.0 * n + 1.0)) - c / n
    curve = build_psi(rho.spectral(), sig.spectral())
    r = -0.5 * (psi(curve, 1.0) + psi(curve, 0.0) + psi_prime(curve, 0.0))
    for arg in (n, [n]):
        chern = quantum_chernoff_lower(rho, sig, arg)
        mixed = quantum_mixed_lower(rho, sig, arg, r)
        assert chern.valid and mixed.valid
        for report, rate in ((chern, chern.parameters["chernoff"]), (mixed, mixed.parameters["hoeffding_distance"])):
            assert report.parameters["c"] == pytest.approx(c, rel=1e-14)
            assert float(np.squeeze(report.bound_value)) == pytest.approx(want - rate, rel=1e-12, abs=0.0)


def _every_bound(curve, states=None) -> dict:
    """Each bound on one pair as a function of n, at parameters where some n hold and some do not."""
    r = a = 0.1
    if not curve.orthogonal_supports:
        lo, hi = divergences._t_r_window(curve)
        r, a = (lo + hi) / 2.0, (psi_prime(curve, 0.0) + psi_prime(curve, 1.0)) / 2.0
    calls = {
        "stein_upper_generic": lambda n: stein_upper_generic(curve, n, 0.1, 0.5),
        "stein_upper": lambda n: stein_upper(curve, n, 0.1),
        "stein_upper_printed": lambda n: stein_upper(curve, n, 0.1, variant="as_printed"),
        "stein_lower": lambda n: stein_lower(curve, n, 0.3),
        "stein_upper_intermediate": lambda n: stein_upper_intermediate(curve, n, 1e-3, 1.05),
        "hoeffding_upper": lambda n: hoeffding_upper(curve, n, r),
        "mixed_upper": lambda n: mixed_upper(curve, n, a),
        "classical_lower": lambda n: classical_lower(curve, n, r),
        "second_order_reference": lambda n: second_order_reference(curve, n, 0.1),
    }
    if states is not None:
        calls["quantum_mixed_lower"] = lambda n: quantum_mixed_lower(*states, n, r)
        calls["quantum_chernoff_lower"] = lambda n: quantum_chernoff_lower(*states, n)
    return calls


def _sequence_cases():
    from test_exact_oracles import CROSS_CHECK_KINDS, _cross_check_pair

    for kind in CROSS_CHECK_KINDS:
        yield pytest.param(lambda kind=kind: _cross_check_pair(kind), id=kind)
    yield pytest.param(lambda: (HALF, HALF), id="identical_states")
    classical = {"pair_a": PAIR_A, "identical": IDENTICAL, "broken_support": BROKEN_SUPPORT,
                 "symmetric": psi_curve_from_probabilities([0.9, 0.1], [0.1, 0.9]),
                 "three_letters": psi_curve_from_probabilities([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])}
    for name, pair in classical.items():
        yield pytest.param(lambda pair=pair: pair, id=name)


@pytest.mark.parametrize("make", _sequence_cases())
def test_a_sequence_of_n_gives_the_bits_of_each_n_alone(make):
    made = make()
    states = made if isinstance(made, tuple) else None
    curve = divergences._state_pair(*states) if states else made
    ns = np.random.default_rng(21).permutation([*range(1, 81), 600, 600, 80, 12, 1]).tolist()
    for name, call in _every_bound(curve, states).items():
        sweep = call(ns)
        alone = [call(n) for n in ns]
        for j, report in enumerate(sweep if isinstance(sweep, tuple) else (sweep,)):
            singles = [one[j] if isinstance(one, tuple) else one for one in alone]
            assert report.n.tolist() == ns, name
            assert type(report.valid) is bool and report.valid == all(s.valid for s in singles), name
            assert report.valid or report.reason, name
            for got, single in zip(report.bound_value.tolist(), singles):
                assert (single.quantity, single.side) == (report.quantity, report.side), name
                if single.valid:
                    assert np.float64(got).tobytes() == np.float64(single.bound_value).tobytes(), (name, single.n)
                else:
                    assert math.isnan(got), (name, single.n)


def test_reports_over_a_sequence_of_n_compare_by_value():
    # the dataclass == raised on two array reports; NaN marks the same invalid n in both
    ns = [1, 5, 400]
    first, again = classical_lower(PAIR_A, ns, 0.05), classical_lower(PAIR_A, ns, 0.05)
    assert np.isnan(first.alpha.bound_value[0])
    assert first == again and first.alpha == again.alpha and not first.alpha != again.alpha
    assert first.alpha != classical_lower(PAIR_A, [1, 5, 401], 0.05).alpha
    assert first.alpha != classical_lower(PAIR_A, ns, 0.06).alpha
    assert first.alpha != first.beta
    lower = stein_lower(PAIR_A, ns, 0.1)
    assert lower == stein_lower(PAIR_A, ns, 0.1) and lower != stein_lower(PAIR_A, 400, 0.1)
    # scalar reports compare as before, their NaN being the one math.nan
    assert stein_lower(PAIR_A, 3, 0.1) == stein_lower(PAIR_A, 3, 0.1)
    assert classical_lower(PAIR_A, 1, 0.05).alpha == classical_lower(PAIR_A, 1, 0.05).alpha
    assert stein_lower(PAIR_A, 3, 0.1) != stein_lower(PAIR_A, 4, 0.1)
    assert (stein_lower(PAIR_A, 3, 0.1) == "report") is False
