import json
import math

import numpy as np
import pytest

from qsdbounds import BinaryPair, DensityMatrix, en_bounds, rate_curve, rate_curve_csv
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
    # the qutrit rows n <= 7 are computed on Schur-Weyl bases cached across threads
    for label, (rho_f, sig_f) in (("qubit", pair_files), ("qutrit", qutrit_files)):
        d1, d2 = tmp_path / label / "run1", tmp_path / label / "run2"
        argv = ["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1", "--n-max", "8"]
        assert main(argv + ["--out", str(d1), "--threads", "4"]) == 0
        assert main(argv + ["--out", str(d2), "--threads", "1"]) == 0
        assert (d1 / "stein.csv").read_bytes() == (d2 / "stein.csv").read_bytes()


def test_qutrit_exact_columns_fill_up_to_the_cap(tmp_path, qutrit_files):
    # 3^7 = 2187 <= 4096 < 3^8: rows 1..7 carry the exact rate, row 8 is left empty
    rho_f, sig_f = qutrit_files
    out = tmp_path / "out"
    assert main(["stein", "--rho", rho_f, "--sigma", sig_f, "--eps", "0.1",
                 "--n-max", "8", "--out", str(out)]) == 0
    assert main(["chernoff", "--rho", rho_f, "--sigma", sig_f, "--n-max", "8",
                 "--out", str(out)]) == 0
    for name, column in (("stein.csv", 3), ("chernoff.csv", 3)):
        exact = [line.split(",")[column] for line in (out / name).read_text().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) and float(cell) < 0.0 for cell in exact[:7]), name
        assert exact[7] == "", name


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
    expected = rate_curve_csv(rate_curve(BinaryPair(0.25, 0.75), 0.0, 6))
    assert (out / "binary_rate.csv").read_text() == expected


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
