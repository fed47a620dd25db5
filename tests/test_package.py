"""Package-level contract: public surface and signatures, import cost, and the README examples."""
import ast
import contextlib
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import qsdbounds
from qsdbounds import DensityMatrix, _search, cli, linalg

# every tolerance and cap is a module constant, never a per-call option
REMOVED_OPTIONS = {"group_tol", "weight_cutoff", "support_cutoff", "dim_cap", "max_types", "tol"}

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC_NAMES = [
    "BinaryPair", "BoundReport", "ClassicalErrors", "ClassicalLowerBounds", "ClassicalPair",
    "ConvergenceError", "DegeneracyError", "DensityMatrix", "DivergenceProfile", "EnBounds",
    "MixedUpperBounds", "NPTestErrors", "QsdError", "RateCurveRow", "ResourceLimitError",
    "SpectralDecomposition", "ValidationError", "a_r", "beta_eps_exact", "binary_entropy",
    "build_classical_pair", "build_psi", "chernoff_distance", "classical_beta_eps_exact",
    "classical_exact_errors", "classical_exact_errors_log", "classical_lower", "en_bounds",
    "en_exact_log", "eta", "hoeffding_distance", "hoeffding_upper", "inc_beta_reg",
    "incbeta_monotonicity_check", "kron", "matrix_power_support", "mixed_upper", "np_test_errors",
    "phi", "phi_hat", "positive_part_trace", "profile_from_curve", "psi",
    "psi_curve_from_probabilities", "psi_moments", "psi_prime", "psi_second",
    "quantum_chernoff_lower", "quantum_mixed_error_exact", "quantum_mixed_lower", "rate_curve",
    "relative_entropy", "relative_entropy_variance", "renyi", "second_order_reference",
    "solve_t_r", "stein_lower", "stein_upper", "stein_upper_generic", "stein_upper_intermediate",
    "tensor_power", "trace_norm",
]


def _package_env() -> dict:
    env = dict(os.environ)
    src = str(Path(qsdbounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_public_surface_is_pinned():
    assert sorted(qsdbounds.__all__) == PUBLIC_NAMES


def test_package_binds_no_public_name_outside_all():
    extra = [
        name for name, obj in vars(qsdbounds).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert sorted(set(extra) - set(qsdbounds.__all__)) == []


def _defined_names(tree: ast.Module):
    """Functions, classes and assigned names at module level, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
        else:
            continue
        yield from (name for name in names if not (name.startswith("__") and name.endswith("__")))


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_module_level_name_has_a_caller():
    files = [f for d in ("src", "tests", "bench") for f in sorted((ROOT / d).rglob("*.py"))]
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    package = ROOT / "src" / "qsdbounds"
    unused = [
        f"{f.stem}.{name}" for f, tree in trees.items() if f.parent == package
        for name in _defined_names(tree) if name not in referenced
    ]
    assert unused == []


def test_no_public_callable_takes_a_tolerance_or_cap_option():
    audited = {name: getattr(qsdbounds, name) for name in qsdbounds.__all__}
    audited.update({
        "DensityMatrix.spectral": DensityMatrix.spectral,
        "linalg.eigh": linalg.eigh,
        "linalg.support_overlap_table": linalg.support_overlap_table,
        "linalg.matrix_power_support": linalg.matrix_power_support,
        "_search.bisect_decreasing": _search.bisect_decreasing,
    })
    offenders = []
    for name, obj in audited.items():
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        params = set(inspect.signature(obj).parameters)
        offenders += [f"{name}({p})" for p in sorted(params & REMOVED_OPTIONS)]
    assert offenders == []


def test_import_does_not_load_scipy_special():
    code = "import sys, qsdbounds; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    script = tmp_path / "example.py"
    script.write_text(blocks[0], encoding="utf-8")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=_package_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    (state,) = re.findall(r"```json\n(.*?)```", text, re.S)
    (tmp_path / "rho.json").write_text(state, encoding="utf-8")
    (tmp_path / "sig.json").write_text(
        '{"dim": 2, "matrix": [[[0.4, 0.0], [0.1, 0.05]], [[0.1, -0.05], [0.6, 0.0]]]}', encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("qsdbounds ")
    ]
    assert {argv[1] for argv in commands} == {
        "divergences", "stein", "hoeffding", "chernoff", "binary", "oracle"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv[1:] + ["--out", str(tmp_path / "out")])
        assert code == 0, argv
