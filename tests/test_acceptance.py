"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Every check here verifies a library output against an
independent exact computation (type enumeration, LP-dual oracle,
quadrature) or a closed-form constant.
"""
import math
import time

import numpy as np

from qsdbounds import (
    BinaryPair,
    DensityMatrix,
    a_r,
    beta_eps_exact,
    build_classical_pair,
    build_psi,
    classical_beta_eps_exact,
    classical_exact_errors,
    classical_lower,
    eta,
    inc_beta_reg,
    incbeta_monotonicity_check,
    matrix_power_support,
    phi,
    psi,
    psi_prime,
    psi_second,
    quantum_mixed_error_exact,
    rate_curve,
    relative_entropy,
    relative_entropy_variance,
    renyi,
    stein_lower,
    stein_upper,
)
from qsdbounds.ns_mapping import ClassicalPair

from helpers import inc_beta_quadrature, qubit_pairs, random_full_rank_state, random_unitary, tensor_power


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{detail}]", flush=True)
    assert ok, f"criterion {num} ({name}): {status} [{detail}]"


def test_criterion_1_rate_curve_reproduction():
    start = time.perf_counter()
    rows = rate_curve(BinaryPair(0.001, 0.5), 0.0, 300)
    elapsed = time.perf_counter() - start
    violations = 0
    for row in rows:
        if not (row.rate_lower <= row.rate_exact <= row.rate_upper):
            violations += 1
        if not row.rate_exact > row.chernoff:
            violations += 1
    gap = rows[-1].rate_exact - rows[-1].chernoff
    ok = violations == 0 and gap < 0.05 and elapsed < 5.0
    _report(1, "rate curve sandwich", ok,
            f"300 n, {violations} violations, gap(300)={gap:.4f}, {elapsed:.2f}s")


def test_criterion_2_stein_sandwich():
    start = time.perf_counter()
    violations = 0
    checks = 0
    for rho, sigma in qubit_pairs(1137, 10):
        curve = build_psi(rho.spectral(), sigma.spectral())
        for eps in (0.1, 0.3, 0.5):
            for n in range(1, 9):
                exact = math.log(beta_eps_exact(rho, sigma, n, eps)) / n
                lo = stein_lower(curve, n, eps)
                up = stein_upper(curve, n, eps)
                checks += 1
                if lo.valid and not lo.bound_value <= exact + 1e-12:
                    violations += 1
                if up.valid and not exact <= up.bound_value + 1e-12:
                    violations += 1
                if not (lo.valid and up.valid):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _report(2, "stein sandwich", ok, f"{checks} checks, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_mixed_error_chain():
    start = time.perf_counter()
    violations = 0
    checks = 0
    for rho, sigma in qubit_pairs(1137, 10):
        curve = build_psi(rho.spectral(), sigma.spectral())
        pair = build_classical_pair(rho.spectral(), sigma.spectral())
        lo_a, hi_a = psi_prime(curve, 0.0), psi_prime(curve, 1.0)
        for k in range(1, 12):
            a = lo_a + k * (hi_a - lo_a) / 12.0
            for n in range(1, 9):
                e_exact = quantum_mixed_error_exact(rho, sigma, n, a)
                e_classical = classical_exact_errors(pair, n, a).mixed
                upper = math.exp(-n * phi(curve, a))
                checks += 1
                # relative slack: an absolute 1e-9 would excuse any e_n below 1e-9
                if not e_classical / 2.0 <= e_exact * (1.0 + 1e-9):
                    violations += 1
                if not e_exact <= upper * (1.0 + 1e-9):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(3, "mixed error chain", ok, f"{checks} grid points, {violations} violations, {elapsed:.1f}s")


def test_criterion_4_classical_lower_bounds():
    start = time.perf_counter()
    violations = 0
    checks = 0
    for p, q in ((0.9, 0.4), (0.25, 0.75), (0.1, 0.3), (0.6, 0.2), (0.45, 0.55)):
        bp = BinaryPair(p, q)
        pair = ClassicalPair(
            labels=((0, 0), (1, 1)),
            p=np.array([1.0 - bp.p, bp.p]),
            q=np.array([1.0 - bp.q, bp.q]),
        )
        r_top = -psi(pair, 0.0) - psi_prime(pair, 0.0)
        r_bot = -psi(pair, 1.0)
        for frac in (0.25, 0.5, 0.75):
            r = r_bot + frac * (r_top - r_bot)
            a = a_r(pair, r)
            for n in range(2, 201):
                bounds = classical_lower(pair, n, r)
                errs = classical_exact_errors(pair, n, a)
                checks += 1
                if not bounds.alpha.valid or not bounds.beta.valid:
                    violations += 1
                    continue
                if not math.log(errs.alpha) / n >= bounds.alpha.bound_value - 1e-12:
                    violations += 1
                if not math.log(errs.beta) / n >= bounds.beta.bound_value - 1e-12:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(4, "classical lower bounds", ok, f"{checks} (pair,r,n) checks, {violations} violations, {elapsed:.1f}s")


def _log_trace_moment(rho, sigma, t):
    """log Tr rho^t sigma^(1-t) from the two operator powers."""
    a_t = matrix_power_support(rho.spectral(), t)
    b_rest = matrix_power_support(sigma.spectral(), 1.0 - t)
    return math.log(float(np.einsum("ij,ji->", a_t, b_rest).real))


def test_criterion_5_divergence_identities():
    rng = np.random.default_rng(515)
    pairs = qubit_pairs(516, 2) + [
        (random_full_rank_state(rng, 3), random_full_rank_state(rng, 3)) for _ in range(2)
    ]
    failures = []
    for idx, (rho, sigma) in enumerate(pairs):
        curve = build_psi(rho.spectral(), sigma.spectral())
        if max(abs(psi(curve, t / 50.0) - _log_trace_moment(rho, sigma, t / 50.0)) for t in range(51)) > 1e-9:
            failures.append(f"pair {idx}: psi mismatch")
        if min(psi_second(curve, -1.0 + 3.0 * t / 60.0) for t in range(61)) < -1e-12:
            failures.append(f"pair {idx}: psi'' negative")
        grid = [t / 10.0 for t in range(10)] + [0.95, 1.05] + [1.0 + t / 10.0 for t in range(1, 11)]
        d_ts = [renyi(curve, t) for t in grid]
        if any(b - a < -1e-10 for a, b in zip(d_ts, d_ts[1:])):
            failures.append(f"pair {idx}: D_t not monotone")
        d = relative_entropy(curve)
        two_sided = 0.5 * (renyi(curve, 1.0 - 1e-4) + renyi(curve, 1.0 + 1e-4))
        if abs(two_sided - d) > 1e-6:
            failures.append(f"pair {idx}: D_t limit off by {abs(two_sided - d):.2e}")
        if abs(relative_entropy_variance(curve) - psi_second(curve, 1.0)) > 1e-9:
            failures.append(f"pair {idx}: V != psi''(1)")
        log_eta = math.log(eta(curve))
        for c in (1.0, 2.0):
            delta = min(0.5, c / (2.0 * log_eta))
            coeff = 4.0 * math.cosh(c) * log_eta**2
            for k in range(1, 51):
                t = 1.0 - delta + delta * k / 51.0
                if not renyi(curve, t) >= d - coeff * (1.0 - t) - 1e-12:
                    failures.append(f"pair {idx}: lower window fails at t={t}")
                t = 1.0 + delta * k / 51.0
                if not renyi(curve, t) <= d + coeff * (t - 1.0) + 1e-12:
                    failures.append(f"pair {idx}: upper window fails at t={t}")
    ok = not failures
    _report(5, "divergence identities", ok,
            f"{len(pairs)} pairs, c in {{1,2}}" + ("" if ok else "; " + "; ".join(failures[:3])))


def test_criterion_6_incomplete_beta_engine():
    worst_cdf = 0.0
    for n in range(1, 31):
        for p10 in range(1, 10):
            p = p10 / 10.0
            tail = 0.0
            for k0 in range(n + 1):
                tail += math.comb(n, k0) * p**k0 * (1.0 - p) ** (n - k0)
                ib = inc_beta_reg(1.0 - p, float(n - k0), float(k0 + 1))
                worst_cdf = max(worst_cdf, abs(tail - ib))
    rng = np.random.default_rng(616)
    mono_ok = all(
        incbeta_monotonicity_check(float(rng.uniform(0.05, 0.95)), float(rng.integers(2, 41)))
        for _ in range(20)
    )
    worst_quad = 0.0
    for _ in range(100):
        z = float(rng.uniform(0.02, 0.98))
        k = float(rng.uniform(0.5, 40.0))
        l = float(rng.uniform(0.5, 40.0))
        worst_quad = max(worst_quad, abs(inc_beta_reg(z, k, l) - inc_beta_quadrature(z, k, l)))
    ok = worst_cdf <= 1e-11 and mono_ok and worst_quad <= 1e-9
    _report(6, "incomplete beta engine", ok,
            f"cdf err {worst_cdf:.1e}, monotone {mono_ok}, quadrature err {worst_quad:.1e}")


def test_criterion_7_np_test_optimality():
    rng = np.random.default_rng(717)
    violations = 0
    checks = 0
    for rho, sigma in qubit_pairs(718, 3):
        for n in range(1, 7):
            dim = 2**n
            rho_n = tensor_power(rho.array, n)
            sig_n = tensor_power(sigma.array, n)
            for a in (0.0, 0.15):
                e_star = quantum_mixed_error_exact(rho, sigma, n, a)
                w = math.exp(-n * a)
                for _ in range(50):
                    u = random_unitary(rng, dim)
                    if rng.uniform() < 0.3:
                        vals = rng.integers(0, 2, dim).astype(float)
                    else:
                        vals = rng.uniform(0.0, 1.0, dim)
                    test = (u * vals) @ u.conj().T
                    alpha = 1.0 - float(np.trace(rho_n @ test).real)
                    beta = float(np.trace(sig_n @ test).real)
                    checks += 1
                    if w * alpha + beta < e_star - 1e-10:
                        violations += 1
    ok = violations == 0
    _report(7, "optimal test never beaten", ok, f"{checks} random tests, {violations} violations")


def test_criterion_8_oracle_cross_agreement():
    rng = np.random.default_rng(818)
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 11))
        eps = float(rng.uniform(0.05, 0.95))
        rho = DensityMatrix(np.diag([p, 1.0 - p]))
        sigma = DensityMatrix(np.diag([q, 1.0 - q]))
        quantum = beta_eps_exact(rho, sigma, n, eps)
        classical = classical_beta_eps_exact(
            np.array([p, 1.0 - p]), np.array([q, 1.0 - q]), n, eps
        )
        worst = max(worst, abs(quantum - classical))
    ok = worst <= 1e-9
    _report(8, "oracle cross-agreement", ok, f"20 cases, worst gap {worst:.1e}")
