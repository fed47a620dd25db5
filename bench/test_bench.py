"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
import contextlib
import io
import json
import math
import os
import threading

import pytest

import run

run._import_package()

import qsdbounds  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace, tmp_path):
    result = _run_json("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the only known failure: CLI stein on the pure-sigma pair hits log(0) once beta = 0
    labels = [r.label for r in workloads.build(workload, 3, str(tmp_path), tiny=True).requests]
    known = sum(label.startswith("stein pure_sigma") for label in labels)
    assert result["attempted"] % len(labels) == 0
    assert result["failed"] == known * result["attempted"] // len(labels)
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])


def test_stein_checker_flags_exact_above_upper(tmp_path):
    (tmp_path / "stein.csv").write_text(
        "n,lower,upper,exact_if_feasible,second_order_ref\n"
        "1,-0.9,-0.1,-0.5,-0.4\n"
        "2,-0.9,-0.3,-0.2,-0.4\n"
    )
    _, problems = workloads.check_stein(str(tmp_path))
    assert len(problems) == 1 and "n=2" in problems[0]


def test_run_pass_counts_raises_and_wrong_values():
    def boom():
        raise ValueError("math domain error")

    reqs = [
        workloads.Request("ok", lambda: 1.0, lambda r: ([r], [])),
        workloads.Request("raises", boom, lambda r: ([], [])),
        workloads.Request("wrong", lambda: 2.0, lambda r: ([r], ["exact above upper"])),
    ]
    result = run.run_pass(workloads.Workload([], reqs))
    assert len(result["latencies"]) == 3
    assert result["errors"] == ["raises: ValueError: math domain error"]
    assert result["problems"] == ["wrong: exact above upper"]
    assert result["failed"] == 2


def _span(id, parent, start, end, name="x", thread=1):
    s = tracing.Span(id, name, parent, None, thread)
    s.start, s.end = start, end
    return s


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        _span(1, None, 0.0, 10.0, "cli.main"),
        _span(2, 1, 1.0, 4.0, "exact_oracles.beta_eps_exact", thread=1),
        _span(3, 1, 3.0, 6.0, "exact_oracles.beta_eps_exact", thread=2),
        _span(4, 2, 2.0, 3.0, "linalg.spectrum"),
        _span(5, 1, 9.0, 12.0, "linalg.eigh", thread=2),  # runs past its parent: clipped
    ]
    spans[3].attrs = {"dim": 4}
    self_t = tracing.self_times(spans)
    assert self_t == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})
    metrics = tracing.layer_metrics(spans, passes=1)
    assert metrics["cli.main.self_s"] == pytest.approx(4.0)
    assert metrics["exact_oracles.beta_eps_exact.self_s"] == pytest.approx(5.0)
    assert metrics["exact_oracles.beta_eps_exact.spectra_per_call"] == pytest.approx(0.5)
    assert metrics["linalg.spectrum.calls.d4"] == 1
    assert metrics["linalg.spectrum.ops_computed"] == 64


def test_worker_thread_spans_attach_to_the_request_thread():
    tracer = tracing.Tracer()
    root = tracer.begin_request(7)
    outer = tracer.open("cli.main")

    def worker():
        tracer.close(tracer.open("finite_bounds.stein_lower"))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(outer)
    tracer.end_request(root)
    children = [s for s in tracer.spans if s.name == "finite_bounds.stein_lower"]
    assert len(children) == 2
    assert all(s.parent == outer.id and s.request == 7 for s in children)


def test_installation_wraps_cross_module_bindings_and_restores_them():
    from qsdbounds import cli, exact_oracles, finite_bounds, linalg

    originals = (cli.beta_eps_exact, exact_oracles.positive_part_trace, finite_bounds.psi)
    rho = qsdbounds.DensityMatrix([[0.7, 0.1], [0.1, 0.3]])
    sigma = qsdbounds.DensityMatrix([[0.4, -0.2j], [0.2j, 0.6]])
    plain = qsdbounds.beta_eps_exact(rho, sigma, 3, 0.1)
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        assert cli.beta_eps_exact is not originals[0]
        assert exact_oracles.positive_part_trace is not originals[1]
        assert finite_bounds.psi is not originals[2]
        assert linalg.kron is qsdbounds.kron  # deliberately left unwrapped
        traced = qsdbounds.beta_eps_exact(rho, sigma, 3, 0.1)
    finally:
        installed.remove()
    assert (cli.beta_eps_exact, exact_oracles.positive_part_trace, finite_bounds.psi) == originals
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"exact_oracles.beta_eps_exact", "linalg.spectrum", "_search.golden_max",
            "linalg.tensor_power", "exact_oracles.objective"} <= names


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.BUILDERS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
