"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_program_source()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from repro.solvers import api as solvers_api  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_cli(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER)
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert run.SOLVE_SHAPE_NAMES == tuple(
        workloads.shape_name(s) for s in workloads.SOLVE_SHAPES)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, section):
    proc = _run_cli("--workload", "solve-mix", "--seed", "3",
                    "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


def test_perturbed_solver_is_counted_failed(monkeypatch):
    for method in ("pcr", "cr_pcr"):
        inner = solvers_api.SOLVERS[method]
        monkeypatch.setitem(solvers_api.SOLVERS, method,
                            lambda s, _f=inner, **kw: _f(s, **kw) + 1e-2)
    result, _ = run.end_to_end("solve-mix", 5, 0.0, probes=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4


def test_nan_result_is_counted_failed():
    s = workloads.SolveMix(0, "").inputs[1]
    x = solvers_api.solve(s.a, s.b, s.c, s.d)
    x[7, 3] = float("nan")
    verdict = workloads.accepted(s, x, "pcr")
    assert not verdict[7] and verdict.sum() == s.num_systems - 1


def test_self_time_subtracts_children_exactly():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    rec = layertrace.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.enter("run_job", "serve.scheduler", "job0")
    inner = rec.enter("run_kernel", "kernels", None)
    rec.exit(inner)                       # kernels: 1.0 -> 3.0
    again = rec.enter("run_kernel", "kernels", None)
    rec.exit(again)                       # kernels: 4.0 -> 4.5
    rec.exit(outer)                       # scheduler: 0.0 -> 6.0
    self_s = rec.self_seconds()
    assert self_s["kernels"] == 2.5
    assert self_s["serve.scheduler"] == 3.5
    assert {span[5] for span in rec.spans} == {"job0"}
    assert rec.entries()["kernels"] == 2
    assert rec.breakdown() == [(("serve.scheduler",), 3.5),
                               (("serve.scheduler", "kernels"), 2.5)]


@pytest.mark.parametrize("workload", ["solve-mix", "serve-batch"])
def test_layer_self_times_fit_in_traced_wall(workload):
    result, _ = run.traced(workload, 2)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = {k: v for k, v in m.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) > 0
    # Σ self <= traced wall  <=>  the unattributed share is in [0, 1].
    assert 0 <= m["trace.unattributed_share"] <= 1
    # Wrappers are gone after the traced session.
    assert not hasattr(solvers_api.choose_method, "__wrapped__")
    assert not hasattr(solvers_api.SOLVERS["pcr"], "__wrapped__")


@pytest.mark.parametrize("cls", [workloads.ServeLive, workloads.ServeBatch])
def test_same_seed_repeats_and_second_seed_runs_clean(cls, tmp_path):
    first = cls(4, str(tmp_path)).session()
    again = cls(4, str(tmp_path)).session()
    other = cls(5, str(tmp_path)).session()
    for s in (first, again, other):
        assert s.failed == 0 and s.ok > 0
    assert first.digest == again.digest
    for key in ("latency_ms", "makespan_ms", "queue_wait_ms", "chunks",
                "retries", "spans", "events", "shed_stages"):
        assert first.info[key] == again.info[key], key
    assert other.digest != first.digest
    assert other.failed == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli("--workload", "solve-mix", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
