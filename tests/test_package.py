"""Package-level contract: public signatures, import cost, and the README examples."""
import contextlib
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import qsdbounds
from qsdbounds import DensityMatrix, _search, cli, linalg

# every tolerance and cap is a module constant, never a per-call option
REMOVED_OPTIONS = {"group_tol", "weight_cutoff", "support_cutoff", "dim_cap", "max_types", "tol"}

README = Path(__file__).resolve().parent.parent / "README.md"


def _package_env() -> dict:
    env = dict(os.environ)
    src = str(Path(qsdbounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
