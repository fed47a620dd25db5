"""The three benchmark workloads: seeded inputs, fixed request lists, output checks.

A request is one CLI subcommand call (``qsdbounds.cli.main(argv)``) or one
library check.  ``call`` does the program's work and is timed; ``check``
reads what the call produced and is not timed.  Checks use log-domain or
relative slack (``REL``): a probability may be off by a factor 1 +- REL,
never by an absolute amount, so they keep their meaning when errors are tiny.
Invalid ``BoundReport``s and empty CSV cells are valid outcomes.

The program receives only the state files and arrays generated here from
the seed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qsdbounds as q
from qsdbounds import cli
from qsdbounds.ns_mapping import ClassicalPair

REL = 1e-9  # relative slack on a probability, i.e. log-domain slack on n * rate
ORACLE_REL = 1e-6  # relative tolerance of kappa*alpha + beta against e_n
GROUP_TOL = 1e-8  # qsdbounds.linalg.DEFAULT_GROUP_TOL


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[float], list[str]]]
    argv: list[str] | None = None


@dataclass
class Workload:
    state_files: list[str]
    requests: list[Request]


# ------------------------------------------------------------------ states


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _spectrum(rng: np.random.Generator, d: int, rank: int, floor: float = 0.05) -> np.ndarray:
    w = rng.dirichlet(np.full(rank, 4.0))
    w = (1.0 - rank * floor) * w + floor
    return np.concatenate([w, np.zeros(d - rank)])


def _rotated(rng, evals) -> np.ndarray:
    u = _haar_unitary(rng, len(evals))
    return (u * evals) @ u.conj().T


def full_rank(rng, d):
    return _rotated(rng, _spectrum(rng, d, d))


def rank_deficient(rng, d, rank):
    return _rotated(rng, _spectrum(rng, d, rank))


def pure(rng, d):
    return _rotated(rng, _spectrum(rng, d, 1))


def diagonal(rng, d):
    return np.diag(_spectrum(rng, d, d)).astype(np.complex128)


def near_degenerate(rng, d):
    """Two eigenvalues 4e-9 apart, under the eigensolver's grouping tolerance."""
    evals = _spectrum(rng, d, d)
    mid = (evals[0] + evals[1]) / 2.0
    evals[0], evals[1] = mid + GROUP_TOL / 5.0, mid - GROUP_TOL / 5.0
    return _rotated(rng, evals)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho||sigma) in nats for a full-rank sigma, computed here with numpy only."""
    w = np.linalg.eigvalsh(rho)
    ws, vs = np.linalg.eigh(sigma)
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return float(sum(x * np.log(x) for x in w if x > 0.0) - np.trace(rho @ log_sigma).real)


# The exact Stein oracle doubles its dual variable up to about exp(n D), so its
# cost grows with D(rho||sigma).  Pairs with a full-rank sigma are drawn until
# D falls in this band, which keeps the work of a pass nearly the same for
# every seed while the eigenbases stay Haar-random.
D_BAND = (0.25, 0.5)


def banded(rng, draw_rho, draw_sigma):
    for _ in range(10_000):
        rho, sigma = draw_rho(rng), draw_sigma(rng)
        if D_BAND[0] <= relative_entropy(rho, sigma) <= D_BAND[1]:
            return rho, sigma
    raise RuntimeError("no state pair with D in the band")


def full_rank_and_pure(rng, d, overlap=0.4):
    """Full-rank rho and pure sigma = |phi><phi| with <phi|rho|phi> = overlap.

    beta_{n,eps} is 0 once overlap^n <= eps (from n = 3 at eps = 0.1), since
    the test rejecting only |phi>^n then meets the type-I budget."""
    while True:
        evals = _spectrum(rng, d, d)
        if evals.min() < overlap - 0.05 and evals.max() > overlap + 0.05:
            break
    lo, hi = int(np.argmin(evals)), int(np.argmax(evals))
    cos2 = (overlap - evals[lo]) / (evals[hi] - evals[lo])
    u = _haar_unitary(rng, d)
    phi = math.sqrt(cos2) * u[:, hi] + np.exp(2j * math.pi * rng.uniform()) * math.sqrt(1 - cos2) * u[:, lo]
    return (u * evals) @ u.conj().T, np.outer(phi, phi.conj())


def write_state(path: str, mat: np.ndarray) -> str:
    mat = (mat + mat.conj().T) / 2.0
    mat = mat / np.trace(mat).real
    payload = {
        "dim": int(mat.shape[0]),
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in mat],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


# ------------------------------------------------------------------ checks


def _num(cell: str) -> float | None:
    return float(cell) if cell not in ("", None) else None


def _read_csv(path: str) -> list[dict[str, float | None]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _leq(a: float, b: float, n: int) -> bool:
    """a <= b for per-copy log-rates, with REL slack on the underlying probabilities."""
    return a <= b + REL / n


def digest_dir(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli_request(label: str, argv: list[str], out_dir: str, check_files) -> Request:
    argv = argv + ["--out", out_dir]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return [], [f"exit code {code}"]
        values, problems = check_files(out_dir)
        # the digest of the written bytes joins the check values, so a traced
        # pass that changes any output byte is caught
        values.append(int(digest_dir(out_dir)[:12], 16))
        return values, problems

    return Request(label, call, check, argv)


def check_stein(out_dir):
    values, problems = [], []
    for row in _read_csv(os.path.join(out_dir, "stein.csv")):
        n, lo, up, ex = int(row["n"]), row["lower"], row["upper"], row["exact_if_feasible"]
        values += [x for x in (lo, up, ex, row["second_order_ref"]) if x is not None]
        if ex is None:
            continue
        if lo is not None and not _leq(lo, ex, n):
            problems.append(f"stein n={n}: lower {lo!r} > exact {ex!r}")
        if up is not None and not _leq(ex, up, n):
            problems.append(f"stein n={n}: exact {ex!r} > upper {up!r}")
    return values, problems


def check_chernoff(out_dir):
    values, problems = [], []
    for row in _read_csv(os.path.join(out_dir, "chernoff.csv")):
        n, up, ex = int(row["n"]), row["mixed_upper_rate"], row["exact_rate_if_feasible"]
        values += [x for x in (up, row["mixed_lower_rate_if_valid"], ex) if x is not None]
        if ex is not None and up is not None and not _leq(ex, up, n):
            problems.append(f"chernoff n={n}: exact {ex!r} > mixed_upper {up!r}")
    return values, problems


def check_oracle(out_dir):
    with open(os.path.join(out_dir, "oracle.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    e_n, alpha, beta = float(rec["e_n"]), float(rec["alpha"]), float(rec["beta"])
    kappa = math.exp(-rec["n"] * rec["a"])
    lhs = kappa * alpha + beta
    problems = []
    if not abs(lhs - e_n) <= ORACLE_REL * max(abs(lhs), abs(e_n)):
        problems.append(f"oracle n={rec['n']}: kappa*alpha+beta {lhs!r} != e_n {e_n!r}")
    return [e_n, alpha, beta], problems


def check_binary_rows(rows, label):
    values, problems = [], []
    for r in rows:
        n, ex, lo, up = int(r["n"]), r["rate_exact"], r["rate_lower"], r["rate_upper"]
        values += [x for x in (ex, lo, up) if x is not None and not math.isnan(x)]
        if lo is not None and not math.isnan(lo) and not _leq(lo, ex, n):
            problems.append(f"{label} n={n}: rate_lower {lo!r} > rate_exact {ex!r}")
        if up is not None and not math.isnan(up) and not _leq(ex, up, n):
            problems.append(f"{label} n={n}: rate_exact {ex!r} > rate_upper {up!r}")
    return values, problems


def check_binary(out_dir):
    return check_binary_rows(_read_csv(os.path.join(out_dir, "binary_rate.csv")), "binary")


def check_divergences(out_dir):
    with open(os.path.join(out_dir, "divergences.json"), encoding="utf-8") as fh:
        prof = json.load(fh)
    rows = _read_csv(os.path.join(out_dir, "psi_curve.csv"))
    psis = [r["psi"] for r in rows]
    chern = float(prof["chernoff"])
    problems = []
    # Tr rho^t sigma^(1-t) <= 1 on [0, 1], and no grid point beats the Chernoff search
    if max(psis) > REL:
        problems.append(f"divergences: psi reaches {max(psis)!r} > 0 on [0, 1]")
    if -min(psis) > chern * (1.0 + REL) + REL:
        problems.append(f"divergences: -min psi {-min(psis)!r} exceeds chernoff {chern!r}")
    return [float(prof["relative_entropy"]), chern] + psis, problems


def check_hoeffding(out_dir):
    values, problems = [], []
    for row in _read_csv(os.path.join(out_dir, "hoeffding.csv")):
        n, up, t_r, h_r = int(row["n"]), row["upper"], row["t_r"], row["H_r"]
        values += [up, t_r, h_r]
        if not 0.0 <= t_r < 1.0 or not _leq(up, -h_r, n):
            problems.append(f"hoeffding n={n}: upper {up!r}, t_r {t_r!r}, H_r {h_r!r} inconsistent")
    return values, problems


def _report_values(reports, label):
    """Values of a list of BoundReports; invalid ones must carry NaN and a reason."""
    values, problems = [], []
    for rep in reports:
        if rep.valid:
            if not math.isfinite(rep.bound_value):
                problems.append(f"{label} n={rep.n}: valid report with value {rep.bound_value!r}")
            values.append(rep.bound_value)
        elif not (math.isnan(rep.bound_value) and rep.reason):
            problems.append(f"{label} n={rep.n}: invalid report without NaN and reason")
    return values, problems


# ------------------------------------------------------- library requests


def _window(curve):
    """(r_bot, r_top): the open interval of type-I exponents where t_r exists."""
    return -q.psi(curve, 1.0), -q.psi(curve, 0.0) - q.psi_prime(curve, 0.0)


def sweep_stein(curve, ns, eps):
    def call():
        return [
            (q.stein_lower(curve, n, eps), q.stein_upper(curve, n, eps),
             q.second_order_reference(curve, n, eps), q.stein_upper_generic(curve, n, eps, 0.5),
             q.stein_upper_intermediate(curve, n, eps, 2.0))
            for n in ns
        ]

    def check(rows):
        values, problems = _report_values([r for row in rows for r in row], "stein sweep")
        for lo, up, *_ in rows:
            if lo.valid and up.valid and not _leq(lo.bound_value, up.bound_value, lo.n):
                problems.append(f"stein sweep n={lo.n}: lower above upper")
        return values, problems

    return Request(f"sweep.stein eps={eps}", call, check)


def sweep_hoeffding(curve, ns, r):
    def call():
        return [q.hoeffding_upper(curve, n, r) for n in ns]

    def check(reps):
        values, problems = _report_values(reps, "hoeffding sweep")
        vals = [rep.bound_value for rep in reps if rep.valid]
        if any(not _leq(a, b, 1) for a, b in zip(vals, vals[1:])):
            problems.append("hoeffding sweep: bound decreases with n")
        return values, problems

    return Request("sweep.hoeffding_upper", call, check)


def sweep_mixed(curve, ns, a):
    def call():
        return [q.mixed_upper(curve, n, a) for n in ns]

    def check(rows):
        values, problems = _report_values([r for row in rows for r in row], "mixed sweep")
        if len({row.mixed.bound_value for row in rows}) > 1:
            problems.append("mixed sweep: -phi(a) differs between n")
        return values, problems

    return Request("sweep.mixed_upper", call, check)


def sweep_quantum_lower(rho, sigma, curve, ns, r):
    """quantum_chernoff_lower and quantum_mixed_lower, each below its matching upper bound."""
    a = q.hoeffding_distance(curve, r) - r

    def call():
        chern_up = q.mixed_upper(curve, ns[0], 0.0).mixed.bound_value
        mixed_up = q.mixed_upper(curve, ns[0], a).mixed.bound_value
        return chern_up, mixed_up, [
            (q.quantum_chernoff_lower(rho, sigma, n), q.quantum_mixed_lower(rho, sigma, n, r))
            for n in ns
        ]

    def check(result):
        chern_up, mixed_up, rows = result
        values, problems = _report_values([x for row in rows for x in row], "quantum lower sweep")
        for chern, mixed in rows:
            if chern.valid and not _leq(chern.bound_value, chern_up, chern.n):
                problems.append(f"chernoff lower n={chern.n} above -C")
            if mixed.valid and not _leq(mixed.bound_value, mixed_up, mixed.n):
                problems.append(f"mixed lower n={mixed.n} above -phi(a_r)")
        return [chern_up, mixed_up] + values, problems

    return Request("sweep.quantum_lower", call, check)


def classical_lower_check(pair: ClassicalPair, ns, frac: float):
    """classical_lower against classical_exact_errors at the bound's own threshold a_r."""
    curve = q.psi_curve_from_probabilities(pair.p, pair.q)
    r_bot, r_top = _window(curve)
    r = r_bot + frac * (r_top - r_bot)

    def call():
        out = []
        for n in ns:
            bounds = q.classical_lower(pair, n, r)
            errs = (q.classical_exact_errors(pair, n, bounds.alpha.parameters["a_r"])
                    if bounds.alpha.valid else None)
            out.append((n, bounds, errs))
        return out

    def check(rows):
        values, problems = [], []
        for n, bounds, errs in rows:
            v, p = _report_values(bounds, "classical_lower")
            values += v
            problems += p
            if errs is None:
                continue
            values += [errs.alpha, errs.beta]
            for name, exact, bound in (("alpha", errs.alpha, bounds.alpha), ("beta", errs.beta, bounds.beta)):
                if not (exact > 0.0 and _leq(bound.bound_value, math.log(exact) / n, n)):
                    problems.append(f"n={n}: {name} {exact!r} below bound {bound.bound_value!r}")
        return values, problems

    return Request(f"check.classical_lower k={pair.size} n={','.join(map(str, ns))}", call, check)


def classical_stein_check(pair: ClassicalPair, ns, eps: float):
    """classical_beta_eps_exact inside the Stein bounds of the same pair."""
    curve = q.psi_curve_from_probabilities(pair.p, pair.q)

    def call():
        return [(n, q.classical_beta_eps_exact(pair.p, pair.q, n, eps),
                 q.stein_lower(curve, n, eps), q.stein_upper(curve, n, eps)) for n in ns]

    def check(rows):
        values, problems = [], []
        for n, beta, lo, up in rows:
            values += [beta, lo.bound_value, up.bound_value]
            if not beta > 0.0:
                problems.append(f"n={n}: beta_eps is {beta!r}")
                continue
            rate = math.log(beta) / n
            if lo.valid and not _leq(lo.bound_value, rate, n):
                problems.append(f"n={n}: stein lower above exact")
            if up.valid and not _leq(rate, up.bound_value, n):
                problems.append(f"n={n}: exact above stein upper")
        return values, problems

    return Request(f"check.classical_stein k={pair.size} n={','.join(map(str, ns))}", call, check)


def two_letter_check(pair: ClassicalPair, lower_ns, frac: float, stein_ns, eps: float):
    """Both classical exact checks of a 2-letter pair, as one request."""
    lower = classical_lower_check(pair, lower_ns, frac)
    stein = classical_stein_check(pair, stein_ns, eps)

    def check(result):
        v1, p1 = lower.check(result[0])
        v2, p2 = stein.check(result[1])
        return v1 + v2, p1 + p2

    return Request("check.two_letter", lambda: (lower.call(), stein.call()), check)


def rate_curve_check(bp, a: float, n_max: int):
    def call():
        return q.rate_curve(bp, a, n_max)

    def check(rows):
        return check_binary_rows([r._asdict() for r in rows], "rate_curve")

    return Request(f"check.rate_curve n_max={n_max}", call, check)


# --------------------------------------------------------------- workloads

# Request lists per workload; "tiny" is the self-test smoke size.  Each pair
# gets one light request, several mid ones and a heavy one or two, so that
# the median request falls inside a band of similar latencies and a change
# of a few ranks between seeds moves it little.
SIZES = {
    "oracle_qubit": {
        "full": dict(stein=((0.1, 7), (0.3, 6)), chernoff=(8, 7), oracle=((6, 0.0), (8, 0.05))),
        "tiny": dict(stein=((0.1, 3),), chernoff=(3,), oracle=((2, 0.0),)),
    },
    "oracle_qudit": {
        "full": dict(d3_stein=((0.1, 4), (0.3, 3)), d3_chernoff=(6, 5), d3_oracle=((3, 0.0), (5, 0.05)),
                     d4_stein=((0.1, 3), (0.3, 2)), d4_chernoff=(4, 3), d4_oracle=((2, 0.0), (4, 0.05))),
        "tiny": dict(d3_stein=((0.1, 2),), d3_chernoff=(2,), d3_oracle=((2, 0.0),),
                     d4_stein=((0.1, 1),), d4_chernoff=(2,), d4_oracle=((1, 0.0),)),
    },
    "bounds_classical": {
        "full": dict(sweep=80, cli_n=80, binary_n=600, rate_n=600,
                     k2_n=(40, 80, 160), k4_n=(48, 56, 64), k4_stein_n=(24, 32), k2_stein_n=(8, 16, 32)),
        "tiny": dict(sweep=12, cli_n=12, binary_n=20, rate_n=20,
                     k2_n=(4,), k4_n=(12,), k4_stein_n=(4,), k2_stein_n=(4,)),
    },
}


def _pair_requests(name, rho_f, sig_f, out, reqs, steins, chernoffs, oracles):
    """CLI stein at each (eps, n_max), chernoff at each n_max, oracle at each (n, a)."""
    base = ["--rho", rho_f, "--sigma", sig_f]
    for eps, n_max in steins:
        reqs.append(_cli_request(f"stein {name} eps={eps}",
                                 ["stein", *base, "--eps", repr(eps), "--n-max", str(n_max)],
                                 os.path.join(out, f"{name}-stein{eps}"), check_stein))
    for n_max in chernoffs:
        reqs.append(_cli_request(f"chernoff {name} n_max={n_max}",
                                 ["chernoff", *base, "--n-max", str(n_max)],
                                 os.path.join(out, f"{name}-chernoff{n_max}"), check_chernoff))
    for n, a in oracles:
        reqs.append(_cli_request(f"oracle {name} n={n}", ["oracle", *base, "--n", str(n), "--a", repr(a)],
                                 os.path.join(out, f"{name}-oracle{n}"), check_oracle))


def _oracle_qubit(rng, states, out, s):
    def fr(r):
        return full_rank(r, 2)

    pairs = [
        ("haar1", *banded(rng, fr, fr)),
        ("haar2", *banded(rng, fr, fr)),
        # full-rank rho, pure sigma: CLI stein fails once beta_{n,eps} = 0
        ("pure_sigma", *full_rank_and_pure(rng, 2)),
        ("pure_rho", *banded(rng, lambda r: pure(r, 2), fr)),
        ("commuting", *banded(rng, lambda r: diagonal(r, 2), lambda r: diagonal(r, 2))),
        ("near_degenerate", *banded(rng, lambda r: near_degenerate(r, 2), fr)),
    ]
    files, reqs = [], []
    for name, rho, sig in pairs:
        rf = write_state(os.path.join(states, f"{name}-rho.json"), rho)
        sf = write_state(os.path.join(states, f"{name}-sigma.json"), sig)
        files += [rf, sf]
        _pair_requests(name, rf, sf, out, reqs, s["stein"], s["chernoff"], s["oracle"])
    return files, reqs


def _oracle_qudit(rng, states, out, s):
    pairs = []
    for d in (3, 4):
        def fr(r, d=d):
            return full_rank(r, d)

        pairs += [
            (f"d{d}_full", d, *banded(rng, fr, fr)),
            (f"d{d}_rank2", d, *banded(rng, lambda r, d=d: rank_deficient(r, d, 2), fr)),
            (f"d{d}_commuting", d, *banded(rng, lambda r, d=d: diagonal(r, d), lambda r, d=d: diagonal(r, d))),
        ]
    files, reqs = [], []
    for name, d, rho, sig in pairs:
        rf = write_state(os.path.join(states, f"{name}-rho.json"), rho)
        sf = write_state(os.path.join(states, f"{name}-sigma.json"), sig)
        files += [rf, sf]
        k = f"d{d}_"
        _pair_requests(name, rf, sf, out, reqs, s[k + "stein"], s[k + "chernoff"], s[k + "oracle"])
    return files, reqs


def _bounds_classical(rng, states, out, s):
    files, reqs = [], []
    ns = list(range(1, s["sweep"] + 1))
    for idx in range(2):
        rho_m, sig_m = banded(rng, lambda r: full_rank(r, 2), lambda r: full_rank(r, 2))
        rf = write_state(os.path.join(states, f"pair{idx}-rho.json"), rho_m)
        sf = write_state(os.path.join(states, f"pair{idx}-sigma.json"), sig_m)
        files += [rf, sf]
        rho, sigma = cli.parse_state_file(rf), cli.parse_state_file(sf)
        curve = q.build_psi(rho.spectral(), sigma.spectral())
        r_bot, r_top = _window(curve)
        r = r_bot + 0.5 * (r_top - r_bot)
        a_mid = 0.5 * (q.psi_prime(curve, 0.0) + q.psi_prime(curve, 1.0))
        base = ["--rho", rf, "--sigma", sf]
        reqs += [
            sweep_stein(curve, ns, 0.1),
            sweep_hoeffding(curve, ns, r),
            sweep_mixed(curve, ns, a_mid),
            sweep_quantum_lower(rho, sigma, curve, ns, r),
            _cli_request(f"hoeffding pair{idx}", ["hoeffding", *base, "--r", repr(r), "--n-max", str(s["cli_n"])],
                         os.path.join(out, f"pair{idx}-hoeffding"), check_hoeffding),
            _cli_request(f"divergences pair{idx}", ["divergences", *base],
                         os.path.join(out, f"pair{idx}-divergences"), check_divergences),
        ]
        four = q.build_classical_pair(rho.spectral(), sigma.spectral())
        reqs += [classical_lower_check(four, (n,), 0.5) for n in s["k4_n"]]
        reqs.append(classical_stein_check(four, s["k4_stein_n"], 0.1))
    for idx in range(2):
        p, qq = sorted(rng.uniform(0.1, 0.9, size=2))
        two = ClassicalPair(labels=((0, 0), (1, 1)), p=np.array([1.0 - p, p]), q=np.array([1.0 - qq, qq]))
        reqs.append(two_letter_check(two, s["k2_n"], 0.25 + 0.5 * idx, s["k2_stein_n"], 0.3))
        bp = q.BinaryPair(float(p), float(qq))
        curve = q.psi_curve_from_probabilities([bp.p, 1.0 - bp.p], [bp.q, 1.0 - bp.q])
        a = 0.25 * q.psi_prime(curve, 0.0) + 0.75 * q.psi_prime(curve, 1.0)
        reqs.append(rate_curve_check(bp, a, s["rate_n"]))
        reqs.append(_cli_request(
            f"binary {idx}", ["binary", "--p", repr(float(p)), "--q", repr(float(qq)), "--a", "0",
                              "--n-max", str(s["binary_n"])],
            os.path.join(out, f"bernoulli{idx}-binary"), check_binary))
    return files, reqs


BUILDERS = {
    "oracle_qubit": _oracle_qubit,
    "oracle_qudit": _oracle_qudit,
    "bounds_classical": _bounds_classical,
}


def build(name: str, seed: int, work_dir: str, tiny: bool = False) -> Workload:
    """Generate the workload's state files under work_dir and its request list."""
    states = os.path.join(work_dir, "states")
    out = os.path.join(work_dir, "out")
    os.makedirs(states, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    files, reqs = BUILDERS[name](rng, states, out, SIZES[name]["tiny" if tiny else "full"])
    return Workload(files, reqs)
