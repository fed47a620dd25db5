import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from qsdbounds import (
    BinaryPair,
    DensityMatrix,
    ValidationError,
    a_r,
    classical_exact_errors,
    en_bounds,
    hoeffding_distance,
    hoeffding_upper,
    mixed_upper,
    psi_curve_from_probabilities,
    rate_curve,
)
from qsdbounds import _search, cli, linalg
from qsdbounds.cli import main, parse_state_file

from helpers import random_full_rank_state, state_to_json_dict

RHO = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
SIG = DensityMatrix(np.array([[0.4, 0.1 + 0.05j], [0.1 - 0.05j, 0.6]]))


def write_state(path, state: DensityMatrix) -> str:
    path.write_text(json.dumps(state_to_json_dict(state)))
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    return (
        write_state(tmp_path / "rho.json", RHO),
        write_state(tmp_path / "sig.json", SIG),
    )


def test_divergences_identical_states(tmp_path):
    half = DensityMatrix(np.diag([0.5, 0.5]))
    f = write_state(tmp_path / "half.json", half)
    out = tmp_path / "out"
    assert main(["divergences", "--rho", f, "--sigma", f, "--out", str(out)]) == 0
    profile = json.loads((out / "divergences.json").read_text())
    assert profile["relative_entropy"] == pytest.approx(0.0, abs=1e-12)
    assert profile["chernoff"] == pytest.approx(0.0, abs=1e-12)
    assert profile["chernoff_argmin_t"] == 0.0
    assert profile["variance"] == pytest.approx(0.0, abs=1e-12)
    assert profile["eta"] == pytest.approx(3.0, abs=1e-12)
    assert profile["units"] == "nats"
    lines = (out / "psi_curve.csv").read_text().splitlines()
    assert lines[0] == "t,psi,psi_prime,psi_second"
    assert len(lines) == 102
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(0.0, abs=1e-12)


def test_divergences_bits_rescaling(tmp_path, pair_files):
    rho_f, sig_f = pair_files
    nats_dir, bits_dir = tmp_path / "nats", tmp_path / "bits"
    assert main(["divergences", "--rho", rho_f, "--sigma", sig_f, "--out", str(nats_dir)]) == 0
    assert main(["divergences", "--rho", rho_f, "--sigma", sig_f, "--out", str(bits_dir), "--bits"]) == 0
    nats = json.loads((nats_dir / "divergences.json").read_text())
    bits = json.loads((bits_dir / "divergences.json").read_text())
    ln2 = math.log(2.0)
    assert bits["units"] == "bits"
    assert bits["relative_entropy"] == pytest.approx(nats["relative_entropy"] / ln2, rel=1e-12)
    assert bits["chernoff"] == pytest.approx(nats["chernoff"] / ln2, rel=1e-12)
    assert bits["variance"] == pytest.approx(nats["variance"] / ln2**2, rel=1e-12)
    assert bits["eta"] == nats["eta"]
    assert bits["chernoff_argmin_t"] == nats["chernoff_argmin_t"]
    nats_psi = (nats_dir / "psi_curve.csv").read_text().splitlines()[50].split(",")
    bits_psi = (bits_dir / "psi_curve.csv").read_text().splitlines()[50].split(",")
    assert float(bits_psi[1]) == pytest.approx(float(nats_psi[1]) / ln2, rel=1e-12)


def test_qutrit_data_pair_is_the_seeded_full_rank_pair():
    # the console-script checks of CI run on this pair: the files hold the
    # states of this seed, written by state_to_json_dict
    rng = np.random.default_rng(26)
    for name in ("rho", "sigma"):
        path = os.path.join(os.path.dirname(__file__), "data", f"qutrit_{name}.json")
        want = random_full_rank_state(rng, 3)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == state_to_json_dict(want)
        assert np.linalg.eigvalsh(parse_state_file(path).array).min() >= 0.02


def test_ququart_data_pair_is_the_seeded_full_rank_pair():
    # CI's console-script checks of the d = 4 cap, n = 6, run on this pair
    rng = np.random.default_rng(28)
    for name in ("rho", "sigma"):
        path = os.path.join(os.path.dirname(__file__), "data", f"ququart_{name}.json")
        want = random_full_rank_state(rng, 4)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == state_to_json_dict(want)
        assert np.linalg.eigvalsh(parse_state_file(path).array).min() >= 0.02


def test_oracle_reference_value(tmp_path):
    zero = DensityMatrix(np.diag([1.0, 0.0]))
    plus = DensityMatrix.pure([1.0, 1.0])
    rho_f = write_state(tmp_path / "zero.json", zero)
    sig_f = write_state(tmp_path / "plus.json", plus)
    out = tmp_path / "out"
    code = main(["oracle", "--rho", rho_f, "--sigma", sig_f, "--n", "1", "--a", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert set(payload) == {"n", "a", "e_n", "alpha", "beta", "degenerate_kernel_flag"}
    assert payload["n"] == 1 and payload["a"] == 0.0
    assert payload["e_n"] == pytest.approx(0.2928932, abs=1e-7)
    assert payload["e_n"] == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-12)
    assert payload["degenerate_kernel_flag"] is False
    assert payload["alpha"] + payload["beta"] == pytest.approx(payload["e_n"], abs=1e-12)


@pytest.fixture
def qutrit_files(tmp_path):
    rng = np.random.default_rng(20)
    return (
        write_state(tmp_path / "rho3.json", random_full_rank_state(rng, 3)),
        write_state(tmp_path / "sig3.json", random_full_rank_state(rng, 3)),
    )


def test_identical_inputs_identical_bytes(tmp_path, pair_files, qutrit_files):
    # --threads has no effect; the second qutrit run reads the Schur-Weyl bases the first cached
    for label, (rho_f, sig_f) in (("qubit", pair_files), ("qutrit", qutrit_files)):
        d1, d2 = tmp_path / label / "run1", tmp_path / label / "run2"
        argv = ["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1", "--n-max", "8"]
        assert main(argv + ["--out", str(d1), "--threads", "4"]) == 0
        assert main(argv + ["--out", str(d2), "--threads", "1"]) == 0
        assert (d1 / "stein.csv").read_bytes() == (d2 / "stein.csv").read_bytes()


def test_qutrit_exact_columns_fill_up_to_the_cap(tmp_path, qutrit_files, monkeypatch):
    # 3^7 = 2187 <= 4096 < 3^8: rows 1..7 carry the exact rate, row 8 is left empty
    rho_f, sig_f = qutrit_files
    out = tmp_path / "out"
    calls = []

    def record(name):
        oracle = getattr(cli, name)

        def recorded(rho, sigma, n, x):
            calls.append((name, list(n)))
            return oracle(rho, sigma, n, x)

        monkeypatch.setattr(cli, name, recorded)

    record("beta_eps_exact")
    record("quantum_mixed_error_exact")
    assert main(["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1",
                 "--n-max", "8", "--out", str(out)]) == 0
    assert main(["chernoff", "--rho", rho_f, "--sigma", sig_f, "--n-max", "8",
                 "--out", str(out)]) == 0
    # one sweep per request over every n under the cap
    assert calls == [("beta_eps_exact", list(range(1, 8))), ("quantum_mixed_error_exact", list(range(1, 8)))]
    for name, column in (("stein.csv", 3), ("chernoff.csv", 3)):
        exact = [line.split(",")[column] for line in (out / name).read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) and float(cell) < 0.0 for cell in exact[:7]), name
        assert exact[7] == "", name


def test_one_level_exact_column_stops_at_the_qubit_cap(tmp_path):
    # max(d, 2)^n <= 4096: a one-level pair is capped at n = 12 like a qubit pair,
    # where e_n(0) = 1 at every n; rows 13..20 leave the exact cell empty
    f = write_state(tmp_path / "one.json", DensityMatrix([[1.0]]))
    out = tmp_path / "out"
    assert main(["chernoff", "--rho", f, "--sigma", f, "--n-max", "20", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "chernoff.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(n) for n in range(1, 21)]
    assert [row[3] for row in rows] == ["0"] * 12 + [""] * 8


def test_csv_round_trip_is_lossless(tmp_path, pair_files):
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.25",
                 "--n-max", "6", "--out", str(out)]) == 0
    lines = (out / "stein.csv").read_text().splitlines()
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            if cell:
                assert format(float(cell), ".17g") == cell


def test_stein_csv_brackets_exact(tmp_path, pair_files):
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1",
                 "--n-max", "6", "--out", str(out)]) == 0
    lines = (out / "stein.csv").read_text().splitlines()
    assert lines[0] == "n,lower,upper,exact_if_feasible,second_order_ref"
    for line in lines[1:]:
        _, lower, upper, exact, ref = line.split(",")
        assert lower and upper and exact and ref
        assert float(lower) <= float(exact) <= float(upper)


def test_stein_pure_sigma_writes_minus_inf_once_beta_vanishes(tmp_path):
    # <+|rho|+> = 0.6, so beta_{n,0.1} = 0 exactly once 0.6^n <= 0.1, i.e. from n = 5
    rho_f = write_state(tmp_path / "rho.json", DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]])))
    sig_f = write_state(tmp_path / "plus.json", DensityMatrix.pure([1.0, 1.0]))
    out = tmp_path / "out"
    assert main(["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1",
                 "--n-max", "6", "--out", str(out)]) == 0
    exact = [line.split(",")[3] for line in (out / "stein.csv").read_text().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for cell in exact[:4])
    assert exact[4:] == ["-inf", "-inf"]


def test_chernoff_csv_columns(tmp_path, pair_files):
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["chernoff", "--rho", rho_f, "--sigma", sig_f, "--n-max", "3",
                 "--out", str(out)]) == 0
    lines = (out / "chernoff.csv").read_text().splitlines()
    assert lines[0] == "n,mixed_upper_rate,mixed_lower_rate_if_valid,exact_rate_if_feasible"
    for line in lines[1:]:
        _, upper, lower, exact = line.split(",")
        assert lower == ""  # the explicit-constant bound needs n >= 12
        assert float(exact) <= float(upper) + 1e-9


def test_binary_matches_library_curve(tmp_path):
    out = tmp_path / "out"
    assert main(["binary", "--p", "0.25", "--q", "0.75", "--a", "0",
                 "--n-max", "6", "--out", str(out)]) == 0
    rows = rate_curve(BinaryPair(0.25, 0.75), 0.0, 6)
    lines = (out / "binary_rate.csv").read_text().splitlines()
    assert lines[0] == "n,rate_exact,rate_lower,rate_upper,chernoff"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        n, *cells = line.split(",")
        assert int(n) == row.n
        # 17 significant digits round-trip every float exactly
        assert [float(c) for c in cells] == list(row[1:])


def test_binary_leaves_underflowed_envelope_cells_empty(tmp_path):
    out = tmp_path / "out"
    assert main(["binary", "--p", "0.001", "--q", "0.999", "--n-max", "400", "--out", str(out)]) == 0
    lines = (out / "binary_rate.csv").read_text().splitlines()[1:]
    assert len(lines) == 400
    bp = BinaryPair(0.001, 0.999)
    for line in lines:
        n, exact, lower, upper, _ = line.split(",")
        lo, up = en_bounds(bp, int(n), 0.0)
        assert math.isfinite(float(exact))
        assert (lower == "") == (up == 0.0)
        assert (upper == "") == (lo == 0.0)
    assert lines[-1].split(",")[3] == "" and lines[0].split(",")[3] != ""


@pytest.mark.parametrize(
    "a,digest",
    [
        ("0", "d742eb5338b8a2d2b5f307b2cc58125be99886a1ec34f76f1635772ddc9693ae"),
        ("0.25", "be4bfcdb3a19aea4136e3034595674725f853f7945b401e30638358ef2407d97"),
    ],
)
def test_binary_csv_bytes_are_pinned(tmp_path, a, digest):
    # exactly rounded row sums: the 600-row curve may not move by one byte
    out = tmp_path / "out"
    assert main(["binary", "--p", "0.2", "--q", "0.6", "--a", a, "--n-max", "600", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "binary_rate.csv").read_bytes()).hexdigest() == digest


_FOUR_LETTERS = psi_curve_from_probabilities([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])


@pytest.mark.parametrize(
    "call",
    [
        ["oracle", "--n", "4", "--a", "nan"],
        ["oracle", "--n", "4", "--a", "-1000"],
        ["binary", "--p", "0.2", "--q", "0.6", "--n-max", "5", "--a", "nan"],
        ["binary", "--p", "0.2", "--q", "0.6", "--n-max", "5", "--a", "1e308"],
        lambda: mixed_upper(_FOUR_LETTERS, 3, math.nan),
        lambda: classical_exact_errors(_FOUR_LETTERS, 3, math.nan),
    ],
    ids=["oracle-nan", "oracle-exp-overflow", "binary-nan", "binary-na-overflow",
         "mixed_upper-nan", "classical_exact_errors-nan"],
)
def test_non_finite_threshold_is_rejected(tmp_path, pair_files, capsys, call):
    # a, -n a and, where it is formed, exp(-n a) must be finite
    if callable(call):
        with pytest.raises(ValidationError, match="must be finite"):
            call()
        return
    states = ["--rho", pair_files[0], "--sigma", pair_files[1]] if call[0] == "oracle" else []
    out = tmp_path / "out"
    assert main([*call, *states, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[invalid-input]" in err and ("must be finite" in err or "overflows" in err)
    assert not out.exists()


@pytest.mark.parametrize(
    "call",
    [
        ["hoeffding", "--r", "inf", "--n-max", "3"],
        ["hoeffding", "--r", "nan", "--n-max", "3"],
        lambda: hoeffding_upper(_FOUR_LETTERS, 3, math.inf),
        lambda: hoeffding_upper(_FOUR_LETTERS, 3, math.nan),
        lambda: hoeffding_distance(_FOUR_LETTERS, math.inf),
        lambda: hoeffding_distance(_FOUR_LETTERS, math.nan),
        lambda: a_r(_FOUR_LETTERS, math.inf),
        lambda: a_r(_FOUR_LETTERS, math.nan),
    ],
    ids=["cli-inf", "cli-nan", "hoeffding_upper-inf", "hoeffding_upper-nan",
         "hoeffding_distance-inf", "hoeffding_distance-nan", "a_r-inf", "a_r-nan"],
)
def test_non_finite_rate_is_rejected(tmp_path, pair_files, capsys, call):
    # r = inf once gave a valid report with a NaN bound: -t_r r is -0.0 * inf at t_r = 0
    if callable(call):
        with pytest.raises(ValidationError, match="must be finite"):
            call()
        return
    out = tmp_path / "out"
    assert main([*call, "--rho", pair_files[0], "--sigma", pair_files[1], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[invalid-input]" in err and "must be finite" in err
    assert not out.exists()


def test_hoeffding_csv_and_invalid_rate(tmp_path, pair_files):
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["hoeffding", "--rho", rho_f, "--sigma", sig_f, "--r", "0.05",
                 "--n-max", "4", "--out", str(out)]) == 0
    lines = (out / "hoeffding.csv").read_text().splitlines()
    assert lines[0] == "n,upper,t_r,H_r"
    assert len(lines) == 5
    # a pure alternative not containing the null support makes small r infeasible
    zero = DensityMatrix(np.diag([1.0, 0.0]))
    plus = DensityMatrix.pure([1.0, 1.0])
    z_f = write_state(tmp_path / "zero.json", zero)
    p_f = write_state(tmp_path / "plus.json", plus)
    code = main(["hoeffding", "--rho", z_f, "--sigma", p_f, "--r", "0.1",
                 "--n-max", "4", "--out", str(out)])
    assert code == 2


def test_exit_code_missing_file(tmp_path, capsys):
    code = main(["divergences", "--rho", str(tmp_path / "nope.json"),
                 "--sigma", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[")


def test_exit_code_bad_trace(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "matrix": [[[1.01, 0], [0, 0]], [[0, 0], [0, 0]]]}))
    code = main(["divergences", "--rho", str(bad), "--sigma", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_exit_code_non_hermitian(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "matrix": [[[0.5, 0], [0.3, 0]], [[0.1, 0], [0.5, 0]]]}))
    code = main(["divergences", "--rho", str(bad), "--sigma", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_exit_code_negative_eigenvalue(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}))
    code = main(["divergences", "--rho", str(bad), "--sigma", str(bad), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_exit_code_non_finite_entry(tmp_path, capsys, token):
    # Python's json reads NaN and Infinity; such a state is invalid input, not a crash
    diagonal = '[[[%s, 0], [0, 0]], [[0, 0], [%s, 0]]]' % (token, token)
    off_diagonal = '[[[0.5, 0], [%s, 0]], [[%s, 0], [0.5, 0]]]' % (token, token)
    for matrix in (diagonal, off_diagonal):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "matrix": %s}' % matrix)
        code = main(["divergences", "--rho", str(bad), "--sigma", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[")


def test_exit_code_boolean_dim(tmp_path, capsys):
    # JSON true is a Python bool, which is an int: it must not pass as dim 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": True, "matrix": [[[1.0, 0.0]]]}))
    code = main(["divergences", "--rho", str(bad), "--sigma", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "dim must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_max", ["0", "-3"])
@pytest.mark.parametrize("command", ["stein", "chernoff", "hoeffding", "binary"])
def test_exit_code_n_max_below_one(tmp_path, pair_files, capsys, command, n_max):
    rho_f, sig_f = pair_files
    states = ["--rho", rho_f, "--sigma", sig_f]
    extra = {
        "stein": [*states, "--eps", "0.1"],
        "chernoff": states,
        "hoeffding": [*states, "--r", "0.05"],
        "binary": ["--p", "0.2", "--q", "0.6"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *extra, "--n-max", n_max, "--out", str(out)]) == 2
    assert f"need n_max >= 1, got {n_max}" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, counts: dict, fn) -> None:
    """Count calls of fn through every qsdbounds module that binds it."""

    def wrapper(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "qsdbounds" or name.startswith("qsdbounds.")) and getattr(
            module, fn.__name__, None
        ) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


def test_chernoff_builds_one_pair_and_solves_its_search_once(tmp_path, pair_files, monkeypatch):
    # the upper rate -phi(0) and the lower bound's Chernoff distance read the
    # one joint-support pair of the state pair, so they share one bisection
    counts = {"support_overlap_table": 0, "bisect_decreasing": 0}
    _count_calls(monkeypatch, counts, linalg.support_overlap_table)
    _count_calls(monkeypatch, counts, _search.bisect_decreasing)
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["chernoff", "--rho", rho_f, "--sigma", sig_f, "--n-max", "20", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "chernoff.csv").read_text().splitlines()[1:]]
    assert [row[2] != "" for row in rows] == [n >= 12 for n in range(1, 21)]
    assert counts == {"support_overlap_table": 1, "bisect_decreasing": 1}
    # n = 12, the one row with both the lower bound and the exact rate
    assert [row[3] != "" for row in rows] == [n <= 12 for n in range(1, 21)]
    assert float(rows[11][2]) <= float(rows[11][3])


def test_a_request_decomposes_each_state_once(tmp_path, monkeypatch):
    # one 2-D eigensolve per parsed state, plus chernoff's one of rho + sigma
    rng = np.random.default_rng(22)
    rho_f = write_state(tmp_path / "rho.json", random_full_rank_state(rng, 2))
    sig_f = write_state(tmp_path / "sig.json", random_full_rank_state(rng, 2))
    argvs = {
        "chernoff": ["chernoff", "--rho", rho_f, "--sigma", sig_f, "--n-max", "13", "--out", str(tmp_path)],
        "oracle": ["oracle", "--rho", rho_f, "--sigma", sig_f, "--n", "12", "--out", str(tmp_path)],
    }
    for argv in argvs.values():  # builds the state-independent irrep bases first
        assert main(argv) == 0
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    want = {"chernoff": [("eigh", 2), ("eigh", 2), ("eigvalsh", 2)], "oracle": [("eigh", 2), ("eigh", 2)]}
    for command, argv in argvs.items():
        calls.clear()
        assert main(argv) == 0
        assert [call for call in calls if call[1] == 2] == want[command], command


def test_csv_cells_are_the_bytes_of_fmt(tmp_path):
    # None and NaN are empty, an int or a bool is str, anything else %.17g
    columns = [
        [1, 2, 3, None, True],
        [None, -math.nan, 0.5, None, 1.5],
        [math.nan, None, math.nan, math.nan, np.float64(0.25)],
        [math.inf, 5e-324, 1.0, None, np.nan],
        [-math.inf, -3, 0.25, math.nan, 7],
        [-0.0, 0.1, 2**70, None, 4],
    ]
    cli._write_csv(str(tmp_path), "cells.csv", "h", *columns)
    want = (
        "h\n"
        "1,,,inf,-inf,-0\n"
        "2,,,4.9406564584124654e-324,-3,0.10000000000000001\n"
        "3,0.5,,1,0.25,1180591620717411303424\n"
        ",,,,,\n"
        "True,1.5,0.25,,7,4\n"
    )
    assert (tmp_path / "cells.csv").read_bytes() == want.encode()


def test_orthogonal_pure_states_write_minus_inf_and_empty_cells(tmp_path, capsys):
    # psi = -inf on all of [0, 1] for |0><0| against |1><1|: the divergences are
    # infinite, each exact error is 0, and no bound or Hoeffding rate exists
    zero_f = write_state(tmp_path / "zero.json", DensityMatrix(np.diag([1.0, 0.0])))
    one_f = write_state(tmp_path / "one.json", DensityMatrix(np.diag([0.0, 1.0])))
    states = ["--rho", zero_f, "--sigma", one_f]
    out = tmp_path / "out"
    assert main(["divergences", *states, "--out", str(out)]) == 0
    profile = json.loads((out / "divergences.json").read_text())
    assert [profile[key] for key in ("relative_entropy", "chernoff", "eta", "variance")] == ["inf"] * 4
    rows = [line.split(",") for line in (out / "psi_curve.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == (np.arange(101) / 100.0).tolist()
    assert rows[0] == ["0", "-inf", "", ""] and all(row[1:] == ["-inf", "", ""] for row in rows)
    assert main(["stein", *states, "--eps", "0.1", "--n-max", "12", "--out", str(out)]) == 0
    assert (out / "stein.csv").read_text().splitlines()[1:] == [f"{n},,,-inf," for n in range(1, 13)]
    assert main(["chernoff", *states, "--n-max", "12", "--out", str(out)]) == 0
    assert (out / "chernoff.csv").read_text().splitlines()[1:] == [f"{n},,,-inf" for n in range(1, 13)]
    capsys.readouterr()
    assert main(["hoeffding", *states, "--r", "0.05", "--n-max", "12", "--out", str(out)]) == 2
    assert "orthogonal supports" in capsys.readouterr().err
    assert not (out / "hoeffding.csv").exists()


def test_divergences_runs_on_a_128_dim_state_pair(tmp_path):
    rng = np.random.default_rng(128)
    rho_f = write_state(tmp_path / "rho.json", random_full_rank_state(rng, 128, min_eval=1e-3))
    sig_f = write_state(tmp_path / "sig.json", random_full_rank_state(rng, 128, min_eval=1e-3))
    out = tmp_path / "out"
    assert main(["divergences", "--rho", rho_f, "--sigma", sig_f, "--out", str(out)]) == 0
    profile = json.loads((out / "divergences.json").read_text())
    assert 0.0 < profile["chernoff"] <= profile["relative_entropy"] < math.inf
    assert 0.0 < profile["chernoff_argmin_t"] < 1.0
    assert len((out / "psi_curve.csv").read_text().splitlines()) == 102


def test_exit_code_resource_cap(tmp_path, pair_files, capsys):
    rho_f, sig_f = pair_files
    code = main(["oracle", "--rho", rho_f, "--sigma", sig_f, "--n", "14",
                 "--a", "0", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error[")


def test_trace_renormalization_warning(tmp_path, capsys):
    near = tmp_path / "near.json"
    near.write_text(json.dumps(
        {"dim": 2, "matrix": [[[0.5000005, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    ))
    state = parse_state_file(str(near))
    assert capsys.readouterr().err.startswith("warning:")
    assert float(np.trace(state.array).real) == pytest.approx(1.0, abs=1e-12)


def test_out_env_override(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("QSDBOUNDS_OUT", str(target))
    assert main(["binary", "--p", "0.2", "--q", "0.6", "--n-max", "3"]) == 0
    assert (target / "binary_rate.csv").exists()


def test_out_env_is_read_at_every_call(tmp_path, monkeypatch):
    # the parser is built once per process; QSDBOUNDS_OUT must still be read per call
    for name in ("first", "second"):
        monkeypatch.setenv("QSDBOUNDS_OUT", str(tmp_path / name))
        assert main(["binary", "--p", "0.2", "--q", "0.6", "--n-max", "3"]) == 0
        assert (tmp_path / name / "binary_rate.csv").exists()


def test_written_paths_printed(tmp_path, pair_files, capsys):
    rho_f, sig_f = pair_files
    out = tmp_path / "out"
    assert main(["divergences", "--rho", rho_f, "--sigma", sig_f, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "divergences.json") in printed
    assert str(out / "psi_curve.csv") in printed
