"""Property tests of the spectral layer and of the transforms of psi on qubit
and qutrit state pairs.

States are full-rank, rank-deficient, pure, diagonal (two diagonal states
commute), or carry two eigenvalues planted just below or just above the
eigenvalue grouping tolerance.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsdbounds import (
    DensityMatrix,
    build_psi,
    chernoff_distance,
    eta,
    hoeffding_distance,
    phi,
    psi,
    psi_prime,
    relative_entropy,
    relative_entropy_variance,
    solve_t_r,
)
from qsdbounds.divergences import _conjugate_point
from qsdbounds.linalg import DEFAULT_GROUP_TOL, eigh, support_overlap_table

from helpers import random_unitary

KINDS = ("full_rank", "rank_deficient", "pure", "diagonal", "gap_below_tol", "gap_above_tol")
PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _eigenvalues(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    if kind in ("full_rank", "diagonal"):
        return 0.05 + (1.0 - 0.05 * d) * rng.dirichlet(np.ones(d))
    if kind == "rank_deficient":
        return np.concatenate((rng.dirichlet(np.ones(d - 1)), [0.0]))
    if kind == "pure":
        return np.eye(d)[0]
    gap = (0.4 if kind == "gap_below_tol" else 4.0) * DEFAULT_GROUP_TOL
    pair = 1.0 if d == 2 else 0.7
    return np.concatenate(([pair / 2 + gap / 2, pair / 2 - gap / 2], [1.0 - pair] * (d - 2)))


def _state(seed: int, d: int, kind: str) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    evals = _eigenvalues(rng, d, kind)
    if kind == "diagonal":
        return DensityMatrix.diagonal(evals)
    u = random_unitary(rng, d)
    return DensityMatrix((u * evals) @ u.conj().T)


def _states(dims):
    return st.builds(_state, st.integers(0, 2**32 - 1), dims, st.sampled_from(KINDS))


states = _states(st.sampled_from((2, 3)))
pairs = st.sampled_from((2, 3)).flatmap(lambda d: st.tuples(_states(st.just(d)), _states(st.just(d))))


def _support_projector(state: DensityMatrix) -> np.ndarray:
    w, v = np.linalg.eigh(state.array)
    cols = v[:, w > 1e-12 * w.max()]
    return cols @ cols.conj().T


def _clustering_shift(state: DensityMatrix) -> float:
    """How far eigh moves the state by merging eigenvalues into their cluster mean (operator norm)."""
    return float(np.linalg.norm(state.spectral().reconstruct() - state.array, 2))


@PROPERTY_SETTINGS
@given(states)
def test_eigh_blocks_are_orthonormal_and_reconstruct_the_state(state):
    dec = eigh(state.array)
    d = state.dim
    assert sum(dec.ranks()) == d
    assert all(v.shape == (d, r) for v, r in zip(dec.vectors, dec.ranks()))
    cols = np.hstack(dec.vectors)
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(d))) < 1e-12
    # merging a cluster moves each member eigenvalue to the mean, by less than the tolerance
    assert np.max(np.abs(dec.reconstruct() - state.array)) < DEFAULT_GROUP_TOL
    gaps = -np.diff(dec.eigenvalues)
    assert np.all(gaps > DEFAULT_GROUP_TOL)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)))
def test_eigh_merges_exactly_the_planted_gaps_below_the_tolerance(seed, d):
    below = eigh(_state(seed, d, "gap_below_tol").array)
    above = eigh(_state(seed, d, "gap_above_tol").array)
    assert max(below.ranks()) == 2
    assert max(above.ranks()) == 1


@PROPERTY_SETTINGS
@given(pairs)
def test_overlap_weights_sum_to_the_cluster_rank_against_a_full_rank_state(pair):
    rho, sigma = pair
    a_dec = rho.spectral()
    full = sigma.spectral()
    rows = support_overlap_table(a_dec, full)
    assert [(i, j) for i, j, *_ in rows] == sorted((i, j) for i, j, *_ in rows)
    if min(full.eigenvalues) > 1e-12:
        totals = {}
        for i, _, _, _, w in rows:
            totals[i] = totals.get(i, 0.0) + w
        lam = a_dec.eigenvalues
        assert set(totals) == {i for i, v in enumerate(lam) if v > 1e-12 * lam[0]}
        for i, total in totals.items():
            assert math.isclose(total, a_dec.ranks()[i], abs_tol=1e-11)
    for i, j, a_i, b_j, w in rows:
        assert a_i == a_dec.eigenvalues[i] and b_j == full.eigenvalues[j]
        assert 1e-12 < w <= min(a_dec.ranks()[i], full.ranks()[j]) + 1e-12


@PROPERTY_SETTINGS
@given(pairs)
def test_psi_at_zero_and_one_are_log_traces_on_the_joint_support(pair):
    rho, sigma = pair
    curve = build_psi(rho.spectral(), sigma.spectral())
    overlap_0 = float(np.einsum("ij,ji->", _support_projector(rho), sigma.array).real)
    overlap_1 = float(np.einsum("ij,ji->", rho.array, _support_projector(sigma)).real)
    # psi sees the clustered states: |Tr P (B' - B)| <= rank(P) ||B' - B||
    slack = 1e-11 + rho.dim * (_clustering_shift(rho) + _clustering_shift(sigma))
    assert math.isclose(math.exp(psi(curve, 0.0)), overlap_0, rel_tol=1e-10, abs_tol=slack)
    assert math.isclose(math.exp(psi(curve, 1.0)), overlap_1, rel_tol=1e-10, abs_tol=slack)


@PROPERTY_SETTINGS
@given(pairs)
def test_transforms_of_psi_dominate_their_objectives_on_a_t_grid(pair):
    rho, sigma = pair
    curve = build_psi(rho.spectral(), sigma.spectral())
    assume(not curve.orthogonal_supports)
    grid = np.linspace(0.0, 1.0, 201)
    psis = np.array([psi(curve, float(t)) for t in grid])

    def slack(value):
        return 1e-12 * max(1.0, abs(value))

    chernoff, t_star = chernoff_distance(curve)
    assert chernoff >= np.max(-psis) - slack(chernoff)
    assert -psi(curve, t_star) == chernoff
    d0, d1 = psi_prime(curve, 0.0), psi_prime(curve, 1.0)
    for a in np.linspace(d0 - 0.1, d1 + 0.1, 9):
        value = phi(curve, float(a))
        assert value >= np.max(a * grid - psis) - slack(value)
    r_bot, r_top = -psis[-1], -psis[0] - d0
    inner = grid[:-1]
    for frac in (0.01, 0.3, 0.7, 0.99):
        # -psi(1) >= 0 holds only up to rounding
        r = max(r_bot + frac * (r_top - r_bot), 0.0)
        value = hoeffding_distance(curve, r)
        objective = (-inner * r - psis[:-1]) / (1.0 - inner)
        assert value >= np.max(objective) - slack(value)


def _n_independent_constants(curve, rates, thresholds):
    """t_r, conjugate points, C, D, V and eta of a curve, each by its public entry point."""
    out = {"C": chernoff_distance(curve), "D": relative_entropy(curve), "eta": eta(curve)}
    if curve.a_support_contained:
        out["V"] = relative_entropy_variance(curve)
    for a in thresholds:
        out["conjugate", a] = _conjugate_point(curve, a)
        out["phi", a] = phi(curve, a)
    for r in rates:
        out["t_r", r] = solve_t_r(curve, r)
        out["H_r", r] = hoeffding_distance(curve, r)
    return out


@PROPERTY_SETTINGS
@given(pairs)
def test_memoized_constants_are_bit_identical_to_those_of_a_fresh_curve(pair):
    rho, sigma = pair
    curve = build_psi(rho.spectral(), sigma.spectral())
    assume(not curve.orthogonal_supports)
    d0, d1 = psi_prime(curve, 0.0), psi_prime(curve, 1.0)
    thresholds = [0.0] + [d0 + f * (d1 - d0) for f in (0.25, 0.5, 0.75)]
    r_bot, r_top = -psi(curve, 1.0), -psi(curve, 0.0) - d0
    rates = [max(r_bot + f * (r_top - r_bot), 0.0) for f in (0.3, 0.7)]
    rates = [r for r in rates if r_bot < r < r_top]
    first = _n_independent_constants(curve, rates, thresholds)
    stored = {key[0] for key in curve._memo}
    assert {"_conjugate_point", "relative_entropy", "eta"} <= stored
    assert ("solve_t_r" in stored) == bool(rates)
    again = _n_independent_constants(curve, rates, thresholds)
    fresh = _n_independent_constants(build_psi(rho.spectral(), sigma.spectral()), rates, thresholds)
    assert repr(again) == repr(fresh) == repr(first)
