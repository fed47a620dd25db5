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
from qsdbounds import classical_binary
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


def _reference_log_en(bp, a, n):
    """log e_n(a) from all n + 1 terms of the row, summed by math.fsum."""
    k = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1.0) - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0) for j in k])
    null = -n * a + log_comb + k * math.log(bp.p) + (n - k) * math.log1p(-bp.p)
    alt = log_comb + k * math.log(bp.q) + (n - k) * math.log1p(-bp.q)
    terms = np.minimum(null, alt)
    m = float(np.max(terms))
    return m + math.log(math.fsum(np.exp(terms - m).tolist())) - math.log(2.0)


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
        log_en = _reference_log_en(bp, a, n)
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



def _window_ends(p, q):
    """The thresholds a at which the crossover s reaches 1 and 0: log(p/q) and log((1-p)/(1-q))."""
    return math.log(p / q), math.log((1.0 - p) / (1.0 - q))


@pytest.mark.parametrize(
    "p,q,a",
    [
        (0.05, 0.3, 0.0),  # skewed
        (0.39, 0.46, 0.0),  # near-equal
        (0.001, 0.999, 0.0),  # extreme: the envelopes underflow
        (0.3, 0.3, 0.0),  # p = q: no crossover
        (0.2, 0.6, _window_ends(0.2, 0.6)[0] * (1.0 - 1e-3)),  # crossover near n
        (0.2, 0.6, _window_ends(0.2, 0.6)[1] * (1.0 - 1e-3)),  # crossover near 0
        (0.2, 0.6, _window_ends(0.2, 0.6)[1] * 1.2),  # outside: the peak is the mode n p
        (0.23251575322437879, 0.2325157532243788, 0.0),  # adjacent floats: s is undefined
    ],
)
def test_rate_curve_at_600_rows_equals_the_per_n_reference_bit_for_bit(p, q, a):
    # each row past about n = 120 sums a window of its terms, certified or summed whole
    bp = BinaryPair(p, q)
    got = rate_curve(bp, a, 600)
    want = _reference_rows(bp, a, 600)
    assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]


@pytest.mark.parametrize("p,q,a", [(0.2, 0.6, 0.0), (0.05, 0.3, 0.1), (0.001, 0.999, 0.0), (0.3, 0.3, 0.0)])
def test_en_exact_log_at_2000_equals_the_per_n_reference(p, q, a):
    bp = BinaryPair(p, q)
    assert repr(en_exact_log(bp, 2000, a)) == repr(_reference_log_en(bp, a, 2000))


def _count_calls(monkeypatch, name):
    """Wrap classical_binary.<name>, recording the shape of its first argument and its result."""
    calls = []
    original = getattr(classical_binary, name)

    def counted(values, *args):
        out = original(values, *args)
        calls.append((values.shape, out))
        return out

    monkeypatch.setattr(classical_binary, name, counted)
    return calls


def test_rows_past_the_first_blocks_sum_certified_windows(monkeypatch):
    windows = _count_calls(monkeypatch, "_sum2_rows")
    whole = _count_calls(monkeypatch, "_logsumexp_rows")
    bp = BinaryPair(0.2, 0.6)
    got = classical_binary._en_exact_log_range(bp, 0.0, 1, 600)
    assert repr(float(got[-1])) == repr(_reference_log_en(bp, 0.0, 600))
    # every windowed row certifies, and the last block's window is under half its rows
    assert all(ok.all() for _, (_, ok) in windows)
    assert windows[-1][0][1] < 300
    assert sum(shape[0] for shape, _ in windows) + sum(shape[0] for shape, _ in whole) == 600
    assert sum(shape[0] for shape, _ in whole) < 150


@pytest.mark.parametrize("name,value", [("_WINDOW_NATS", 1.0), ("_EDGE_MARGIN", 1e300)])
def test_a_window_that_cannot_certify_falls_back_to_the_whole_row(monkeypatch, name, value):
    # a window reaching 1 nat below its peak, or an edge bound past every gap:
    # no row certifies, and each is summed whole with the same bits
    monkeypatch.setattr(classical_binary, name, value)
    windows = _count_calls(monkeypatch, "_sum2_rows")
    bp = BinaryPair(0.2, 0.6)
    got = rate_curve(bp, 0.05, 300)
    assert windows and not any(ok.any() for _, (_, ok) in windows)
    want = _reference_rows(bp, 0.05, 300)
    assert [repr(row.rate_exact) for row in got] == [repr(row[1]) for row in want]


def test_rows_above_the_window_log_scale_are_summed_whole(monkeypatch):
    # with a = 1e10 the terms are near -n a, whose rounding the edge margin does not
    # cover past a log scale of 2^40, from n = 110 on; the rows below are whole anyway
    windows = _count_calls(monkeypatch, "_sum2_rows")
    bp = BinaryPair(0.2, 0.6)
    got = rate_curve(bp, 1e10, 300)
    want = _reference_rows(bp, 1e10, 300)
    assert [repr(row.rate_exact) for row in got] == [repr(row[1]) for row in want]
    assert not windows


def test_crossover_of_adjacent_floats_is_degenerate():
    # their log likelihood ratio per draw rounds to 0, so s would divide by 0
    bp = BinaryPair(0.23251575322437879, 0.2325157532243788)
    with pytest.raises(DegeneracyError, match="rounds to 0"):
        _crossover_s(bp, 0.0)
    with pytest.raises(DegeneracyError):
        en_bounds(bp, 3, 0.0)
