import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from qsdbounds import (
    BinaryPair,
    DegeneracyError,
    ValidationError,
    chernoff_distance,
    classical_exact_errors,
    en_bounds,
    en_exact_log,
    inc_beta_reg,
    incbeta_monotonicity_check,
    psi_curve_from_probabilities,
    rate_curve,
)
from qsdbounds.classical_binary import _ROW_BLOCK, _crossover_s
from qsdbounds.cli import main
from qsdbounds.ns_mapping import ClassicalPair

from helpers import inc_beta_quadrature


def test_binary_pair_canonicalizes_to_p_below_q():
    bp = BinaryPair(0.75, 0.25)
    assert bp.p == 0.25 and bp.q == 0.75
    bp = BinaryPair(0.25, 0.75)
    assert bp.p == 0.25 and bp.q == 0.75


def test_binary_pair_rejects_boundary_parameters():
    for p, q in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValidationError):
            BinaryPair(p, q)


def test_en_exact_equal_parameters_is_half():
    bp = BinaryPair(0.3, 0.3)
    for n in (1, 5, 40):
        assert math.exp(en_exact_log(bp, n, 0.0)) == pytest.approx(0.5, abs=1e-13)


def test_en_exact_single_copy_hand_value():
    assert math.exp(en_exact_log(BinaryPair(0.25, 0.75), 1, 0.0)) == pytest.approx(0.25, abs=1e-15)


def test_en_exact_rejects_bad_n():
    with pytest.raises(ValidationError):
        en_exact_log(BinaryPair(0.2, 0.6), 0, 0.0)


def test_en_exact_matches_type_enumeration():
    rng = np.random.default_rng(707)
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        if abs(p - q) < 0.05:
            continue
        bp = BinaryPair(p, q)
        n = int(rng.integers(1, 13))
        a = float(rng.uniform(-0.3, 0.3))
        pair = ClassicalPair(
            labels=((0, 0), (1, 1)),
            p=np.array([1.0 - bp.p, bp.p]),
            q=np.array([1.0 - bp.q, bp.q]),
        )
        errs = classical_exact_errors(pair, n, a)
        assert math.exp(en_exact_log(bp, n, a)) == pytest.approx(errs.mixed / 2.0, abs=1e-12)


def test_crossover_hand_value():
    s = _crossover_s(BinaryPair(0.25, 0.5), 0.0)
    assert s == pytest.approx(math.log(1.5) / math.log(3.0), abs=1e-14)


def test_crossover_symmetric_pair_is_half():
    assert _crossover_s(BinaryPair(0.1, 0.9), 0.0) == pytest.approx(0.5, abs=1e-14)


def test_crossover_solves_weighted_likelihood_equation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        if abs(p - q) < 0.02:
            continue
        a = float(rng.uniform(-0.5, 0.5))
        bp = BinaryPair(p, q)
        s = _crossover_s(bp, a)
        residual = (
            s * math.log(bp.p / bp.q)
            + (1.0 - s) * math.log((1.0 - bp.p) / (1.0 - bp.q))
            - a
        )
        assert abs(residual) < 1e-12


def test_crossover_degenerate_pair():
    with pytest.raises(DegeneracyError):
        _crossover_s(BinaryPair(0.4, 0.4), 0.0)


def test_inc_beta_uniform_shape_is_identity():
    for z in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert inc_beta_reg(z, 1.0, 1.0) == pytest.approx(z, abs=1e-14)


def test_inc_beta_symmetric_midpoint():
    for k in (0.5, 1.0, 3.0, 12.5):
        assert inc_beta_reg(0.5, k, k) == pytest.approx(0.5, abs=1e-13)


def test_inc_beta_binomial_cdf_value():
    # P(Bin(10, 1/2) <= 5) = 638/1024
    assert inc_beta_reg(0.5, 5.0, 6.0) == pytest.approx(0.623046875, abs=1e-12)


def test_inc_beta_point_mass_conventions():
    assert inc_beta_reg(0.3, 0.0, 2.0) == 1.0
    assert inc_beta_reg(1.0, 0.0, 2.0) == 1.0
    assert inc_beta_reg(0.3, 2.0, 0.0) == 0.0
    assert inc_beta_reg(1.0, 2.0, 0.0) == 1.0


def test_inc_beta_rejections():
    with pytest.raises(ValidationError):
        inc_beta_reg(-0.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        inc_beta_reg(1.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        inc_beta_reg(0.5, -1.0, 1.0)
    with pytest.raises(ValidationError):
        inc_beta_reg(0.5, 0.0, 0.0)


def test_inc_beta_reflection_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = float(rng.uniform(0.01, 0.99))
        k = float(rng.uniform(0.2, 30.0))
        l = float(rng.uniform(0.2, 30.0))
        assert 1.0 - inc_beta_reg(z, k, l) == pytest.approx(inc_beta_reg(1.0 - z, l, k), abs=1e-12)


def test_inc_beta_against_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(100):
        z = float(rng.uniform(0.02, 0.98))
        k = float(rng.uniform(0.5, 40.0))
        l = float(rng.uniform(0.5, 40.0))
        assert inc_beta_reg(z, k, l) == pytest.approx(inc_beta_quadrature(z, k, l), abs=1e-9)


def test_inc_beta_against_scipy():
    rng = np.random.default_rng(37)
    for _ in range(200):
        z = float(rng.uniform(0.0, 1.0))
        k = float(rng.uniform(0.1, 80.0))
        l = float(rng.uniform(0.1, 80.0))
        assert inc_beta_reg(z, k, l) == pytest.approx(float(betainc(k, l, z)), abs=1e-12)


def test_en_bounds_sandwich_seeded():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        if abs(p - q) < 0.05:
            continue
        bp = BinaryPair(p, q)
        a = float(rng.uniform(-0.2, 0.2))
        try:
            s = _crossover_s(bp, a)
        except DegeneracyError:
            continue
        if not 0.05 < s < 0.95:
            continue
        n = int(rng.integers(1, 120))
        lo, up = en_bounds(bp, n, a)
        e = math.exp(en_exact_log(bp, n, a))
        assert lo <= e + 1e-12
        assert e <= up + 1e-12
        checked += 1


def test_en_bounds_skewed_reference_pair():
    bp = BinaryPair(0.001, 0.5)
    for n in (10, 50, 120, 300, 500):
        lo, up = en_bounds(bp, n, 0.0)
        e = math.exp(en_exact_log(bp, n, 0.0))
        assert lo <= e <= up


def test_en_bounds_rate_gap_shrinks():
    bp = BinaryPair(0.25, 0.75)
    gaps = []
    for n in (10, 50, 200):
        lo, up = en_bounds(bp, n, 0.0)
        gaps.append((math.log(up) - math.log(lo)) / n)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_en_bounds_rejects_threshold_outside_window():
    with pytest.raises(ValidationError):
        en_bounds(BinaryPair(0.25, 0.75), 10, 5.0)
    with pytest.raises(ValidationError):
        en_bounds(BinaryPair(0.25, 0.75), 0, 0.0)


def test_incbeta_monotonicity_check():
    assert incbeta_monotonicity_check(0.5, 10.0)
    assert incbeta_monotonicity_check(0.05, 25.0, grid_points=199)
    assert incbeta_monotonicity_check(0.9, 4.0)
    with pytest.raises(ValidationError):
        incbeta_monotonicity_check(0.5, 10.0, grid_points=1)


def test_rate_curve_degenerate_pair_rows():
    rows = rate_curve(BinaryPair(0.3, 0.3), 0.0, 4)
    assert len(rows) == 4
    for row in rows:
        assert row.rate_exact == pytest.approx(math.log(2.0) / row.n, abs=1e-12)
        assert math.isnan(row.rate_lower) and math.isnan(row.rate_upper)
        assert row.chernoff == pytest.approx(0.0, abs=1e-12)


def test_rate_curve_converges_to_chernoff():
    rows = rate_curve(BinaryPair(0.25, 0.75), 0.0, 500)
    last = rows[-1]
    assert abs(last.rate_exact - last.chernoff) < 0.01
    for row in rows:
        if not math.isnan(row.rate_lower):
            assert row.rate_lower <= row.rate_exact + 1e-12
            assert row.rate_exact <= row.rate_upper + 1e-12


def test_rate_curve_csv_layout(tmp_path):
    assert main(["binary", "--p", "0.3", "--q", "0.3", "--n-max", "3", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "binary_rate.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "n,rate_exact,rate_lower,rate_upper,chernoff"
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "" and first[3] == ""
    assert float(first[1]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_rate_curve_rejects_bad_n_max():
    with pytest.raises(ValidationError):
        rate_curve(BinaryPair(0.2, 0.6), 0.0, 0)


def _reference_rows(bp, a, n_max):
    """rate_curve rows computed one n at a time: the log-domain sum of e_n by
    math.fsum and four scalar betainc calls per n, NaN where an envelope is 0."""
    curve = psi_curve_from_probabilities([bp.p, 1.0 - bp.p], [bp.q, 1.0 - bp.q])
    chern, _ = chernoff_distance(curve)
    try:
        s = _crossover_s(bp, a)
    except DegeneracyError:
        s = math.nan
    rows = []
    for n in range(1, n_max + 1):
        k = np.arange(n + 1)
        log_comb = np.array([math.lgamma(n + 1.0) - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0) for j in k])
        null = -n * a + log_comb + k * math.log(bp.p) + (n - k) * math.log1p(-bp.p)
        alt = log_comb + k * math.log(bp.q) + (n - k) * math.log1p(-bp.q)
        terms = np.minimum(null, alt)
        m = float(np.max(terms))
        log_en = m + math.log(math.fsum(np.exp(terms - m).tolist())) - math.log(2.0)
        rate_lower = rate_upper = math.nan
        if 0.0 < s < 1.0:
            ns, nc, w = n * s, n - n * s, math.exp(-n * a)
            lo = (float(betainc(nc + 1.0, ns, 1.0 - bp.q)) + w * float(betainc(ns + 1.0, nc, bp.p))) / 2.0
            up = (float(betainc(nc, ns + 1.0, 1.0 - bp.q)) + w * float(betainc(ns, nc + 1.0, bp.p))) / 2.0
            rate_lower = -math.log(up) / n if up > 0.0 else math.nan
            rate_upper = -math.log(lo) / n if lo > 0.0 else math.nan
        rows.append((n, -log_en / n, rate_lower, rate_upper, chern))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(0.001, 0.999),
    q=st.floats(0.001, 0.999),
    same=st.booleans(),
    a=st.floats(-1.0, 1.0),
    n_max=st.integers(1, 2 * _ROW_BLOCK + 3),
)
@example(p=0.25, q=0.75, same=False, a=5.0, n_max=3)  # threshold outside the window
@example(p=0.3, q=0.3, same=True, a=0.0, n_max=_ROW_BLOCK + 1)  # p = q
@example(p=0.2, q=0.6, same=False, a=0.0, n_max=1)
@example(p=0.2, q=0.6, same=False, a=0.05, n_max=2 * _ROW_BLOCK + 1)
@example(p=0.001, q=0.999, same=False, a=0.0, n_max=300)  # envelopes underflow to 0
def test_rate_curve_rows_equal_the_per_n_reference_bit_for_bit(p, q, same, a, n_max):
    bp = BinaryPair(p, p if same else q)
    got = rate_curve(bp, a, n_max)
    want = _reference_rows(bp, a, n_max)
    assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]
    # the one-n functions are the same computation
    for n in {1, n_max}:
        assert repr(-en_exact_log(bp, n, a) / n) == repr(want[n - 1][1])

