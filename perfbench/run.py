"""Wall-clock benchmark of the repro library and serving stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same sessions with every layer's entry points
wrapped and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Everything runs
in this one process without threads, except ``setup_s``, which starts
fresh interpreters one after another (``--setup-probe``) and times
each from launch to the end of its warm-up.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread: the benchmark is single-threaded by design, and on
# a shared 2-core machine pooled threads only add jitter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans and checkpoint scratch space (ignored by git).
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("solve-mix", "serve-live", "serve-batch")

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "share"),
    ("ops_per_s", "1/s"), ("dispatch_ms_p50", "ms"),
    ("dispatch_ms_p90", "ms"),
)

SOLVER_METHODS = ("thomas", "gep", "qr", "twoway", "cr", "pcr", "rd",
                  "cr_pcr", "cr_rd")
SHED_STAGES = ("quota", "admission", "capacity", "scheduler", "resume")
SOLVE_SHAPE_NAMES = ("512x512", "4096x64", "16384x16", "1x65536")

PER_LAYER = (
    ("solvers.choose_method.self_s", "s"),
    ("solvers.validate.self_s", "s"),
    ("solvers.executor.self_s", "s"),
    *((f"solvers.executor.calls.{m}", "count") for m in SOLVER_METHODS),
    *((f"solvers.unknowns_per_s.{s}", "1/s") for s in SOLVE_SHAPE_NAMES),
    ("serve.frontend.self_s", "s"),
    ("serve.frontend.offered", "count"),
    ("serve.frontend.admit_ratio", "ratio"),
    *((f"serve.frontend.shed.{s}", "count") for s in SHED_STAGES),
    ("gpusim.estimator.self_s", "s"),
    ("gpusim.estimator.calls", "count"),
    ("gpusim.estimator.replays", "count"),
    ("serve.scheduler.self_s", "s"),
    ("serve.scheduler.chunks", "count"),
    ("serve.scheduler.attempts_per_chunk", "ratio"),
    ("serve.scheduler.retries", "count"),
    ("serve.scheduler.queue_wait_modeled_ms_p50", "ms"),
    ("serve.scheduler.queue_wait_modeled_ms_p99", "ms"),
    ("serve.modeled_latency_ms_p50", "ms"),
    ("serve.modeled_latency_ms_p99", "ms"),
    ("serve.modeled_makespan_ms", "ms"),
    ("kernels.self_s", "s"),
    ("kernels.launches", "count"),
    ("kernels.sim_events", "count"),
    ("kernels.host_ns_per_sim_event", "ns"),
    ("gpusim.tracecache.hit_ratio", "ratio"),
    ("gpusim.tracecache.bypasses", "count"),
    ("gpusim.costmodel.self_s", "s"),
    ("gpusim.costmodel.calls", "count"),
    ("serve.health.self_s", "s"),
    ("serve.health.transitions", "count"),
    ("serve.checkpoint.self_s", "s"),
    ("serve.checkpoint.bytes", "B"),
    ("resilience.calls", "count"),
    ("resilience.self_s", "s"),
    ("analysis.layout_autotuner.self_s", "s"),
    ("analysis.layout_autotuner.calls", "count"),
    ("telemetry.spans", "count"),
    ("telemetry.events", "count"),
    ("telemetry.derive_seed_calls", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "share"),
)


def use_program_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit
    non-zero when the checkout holds no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import warnings
    warnings.simplefilter("ignore")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up ----------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to the end of its
    warm-up (imports, inputs, one pass over every input shape)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return elapsed


def build(workload: str, seed: int):
    from workloads import WORKLOADS
    w = WORKLOADS[workload](seed, OUT)
    w.warm_up()
    return w


# -- end to end ------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float,
               probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    setup = [setup_probe(workload, seed) for _ in range(probes)]
    w = build(workload, seed)
    sessions = []
    start = time.perf_counter()
    # Whole sessions only: start another while it is expected to end
    # within the budget.
    while True:
        sessions.append(w.session())
        elapsed = time.perf_counter() - start
        if elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    deterministic = len({s.digest for s in sessions}) == 1
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": _ratio(sum(s.ok for s in sessions), attempted),
        # Timings are per-session figures, then the median over
        # sessions: the host's speed drifts by ~10% over seconds, and
        # the median discards a session caught in a slow or fast spell.
        "ops_per_s": statistics.median(_ratio(s.ops, s.wall_s)
                                       for s in sessions),
        "dispatch_ms_p50": statistics.median(
            percentile(s.dispatch_s, 50) for s in sessions) * 1e3,
        "dispatch_ms_p90": statistics.median(
            percentile(s.dispatch_s, 90) for s in sessions) * 1e3,
    }
    lines = [f"{workload} seed {seed}: {len(sessions)} session(s), "
             f"{sum(len(s.dispatch_s) for s in sessions)} dispatches, "
             f"{attempted} operations checked"
             f", {failed} failed, deterministic={deterministic}",
             f"  setup probes: {', '.join(f'{s:.3f}' for s in setup)} s"]
    lines += [f"  {name:<40} {metrics[name]:>14.6g} {unit}"
              for name, unit in END_TO_END]
    lines += workload_lines(w, sessions, metrics)
    result = {"correct": failed == 0 and deterministic,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}}
    return result, lines


def workload_lines(w, sessions, metrics) -> list[str]:
    """The workload's own figures under the names the docs use."""
    failed_share = 1.0 - metrics["ok_share"]
    out = [f"  {'failed_share':<40} {failed_share:>14.6g} share"]
    first = sessions[0]
    if w.name == "solve-mix":
        from workloads import SOLVE_SHAPES
        for i, (S, n) in enumerate(SOLVE_SHAPES):
            times = [t for s in sessions for t in s.info["call_s"][i]]
            name = f"solve_unknowns_per_s.{S}x{n}"
            out.append(f"  {name:<40} "
                       f"{S * n / statistics.median(times):>14.6g} 1/s")
        out.append("  reference: LAPACK sgtsv, one call per system "
                   "(not a metric of this program)")
        for row in w.lapack_reference():
            out.append(f"    {row['shape']:<10} {row['wall_s'] * 1e3:9.2f} "
                       f"ms  ok={row['ok']}  max|auto-lapack|/max|lapack|"
                       f"={row['auto_vs_lapack']:.2e}")
        return out
    name = "requests_per_s" if w.name == "serve-live" else "chunks_per_s"
    out.append(f"  {name:<40} {metrics['ops_per_s']:>14.6g} 1/s")
    lat = first.info["latency_ms"]
    out += [f"  {'modeled_latency_ms_p50':<40} {percentile(lat, 50):>14.6g}"
            " ms",
            f"  {'modeled_latency_ms_p99':<40} {percentile(lat, 99):>14.6g}"
            " ms",
            f"  {'modeled_makespan_ms':<40} "
            f"{first.info['makespan_ms']:>14.6g} ms",
            f"  solution digest {first.digest}"]
    return out


# -- traced run -------------------------------------------------------------

def traced(workload: str, seed: int) -> tuple[dict, list[str]]:
    """Per-layer metrics: session A with every layer wrapped, session B
    the same without wrappers (tracing overhead), session C without
    the repo's collector (telemetry overhead)."""
    from layertrace import LayerTrace

    w = build(workload, seed)
    trace = LayerTrace()
    if workload == "solve-mix":
        with trace:
            a = w.session(recorder=trace.recorder)
        b = w.session()
        sessions = [a, b]
    else:
        with trace:
            a = w.session()
        b = w.session()
        c = w.session(collector=False)
        sessions = [a, b, c]

    rec = trace.recorder
    self_s = rec.self_seconds()
    entries = rec.entries()
    counts = trace.counts
    info = a.info
    m = {f"{layer}.self_s": s for layer, s in self_s.items()}
    span_names = Counter(span[0] for span in rec.spans)
    for method in SOLVER_METHODS:
        m[f"solvers.executor.calls.{method}"] = span_names[
            f"SOLVERS.{method}"]
    if workload == "solve-mix":
        from workloads import SOLVE_SHAPES
        for (S, n), times in zip(SOLVE_SHAPES, info["call_s"]):
            m[f"solvers.unknowns_per_s.{S}x{n}"] = (
                S * n / statistics.median(times))
    else:
        for name in SOLVE_SHAPE_NAMES:
            m[f"solvers.unknowns_per_s.{name}"] = 0.0
    offered = counts["serve.frontend.offered"]
    m["serve.frontend.offered"] = offered
    m["serve.frontend.admit_ratio"] = _ratio(
        counts["serve.frontend.admitted"], offered)
    stages = info.get("shed_stages", {})
    for stage in SHED_STAGES:
        m[f"serve.frontend.shed.{stage}"] = stages.get(stage, 0)
    m["gpusim.estimator.calls"] = entries["gpusim.estimator"]
    m["gpusim.estimator.replays"] = counts["gpusim.estimator.replays"]
    chunks = info.get("chunks", 0)
    m["serve.scheduler.chunks"] = chunks
    m["serve.scheduler.attempts_per_chunk"] = _ratio(
        info.get("attempts", 0), chunks)
    m["serve.scheduler.retries"] = info.get("retries", 0)
    waits = info.get("queue_wait_ms", [])
    m["serve.scheduler.queue_wait_modeled_ms_p50"] = percentile(waits, 50)
    m["serve.scheduler.queue_wait_modeled_ms_p99"] = percentile(waits, 99)
    lat = info.get("latency_ms", [])
    m["serve.modeled_latency_ms_p50"] = percentile(lat, 50)
    m["serve.modeled_latency_ms_p99"] = percentile(lat, 99)
    m["serve.modeled_makespan_ms"] = info.get("makespan_ms", 0.0)
    m["kernels.launches"] = entries["kernels"]
    m["kernels.sim_events"] = counts["kernels.sim_events"]
    m["kernels.host_ns_per_sim_event"] = _ratio(
        self_s["kernels"] * 1e9, counts["kernels.sim_events"])
    cache = info.get("trace_cache", {})
    m["gpusim.tracecache.hit_ratio"] = cache.get("hit_rate", 0.0)
    m["gpusim.tracecache.bypasses"] = cache.get("bypasses", 0)
    m["gpusim.costmodel.calls"] = entries["gpusim.costmodel"]
    m["serve.health.transitions"] = info.get("health_transitions", 0)
    m["serve.checkpoint.bytes"] = info.get("checkpoint_bytes", 0)
    m["resilience.calls"] = entries["resilience"]
    m["analysis.layout_autotuner.calls"] = entries[
        "analysis.layout_autotuner"]
    m["telemetry.spans"] = info.get("spans", 0)
    m["telemetry.events"] = info.get("events", 0)
    m["telemetry.derive_seed_calls"] = counts["telemetry.derive_seed_calls"]
    # No collector runs on solve-mix, so both sides of the ratio are
    # the same configuration.
    m["telemetry.overhead_ratio"] = (_ratio(b.wall_s, sessions[2].wall_s)
                                     if len(sessions) == 3 else 1.0)
    m["trace.overhead_ratio"] = _ratio(a.wall_s, b.wall_s)
    attributed = sum(self_s.values())
    m["trace.unattributed_share"] = _ratio(a.wall_s - attributed, a.wall_s)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}.jsonl")
    rec.write_jsonl(spans_path)

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    deterministic = len({s.digest for s in sessions}) == 1
    lines = [f"{workload} seed {seed} traced: {len(rec.spans)} spans "
             f"written to {os.path.relpath(spans_path, ROOT)}, "
             f"{failed} failed, deterministic={deterministic}",
             f"  breakdown of the traced session ({a.wall_s:.3f} s wall):",
             f"    {'layer':<44} {'self_s':>10} {'share':>7}"]
    for path, s in rec.breakdown():
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"    {label:<44} {s:>10.4f} "
                     f"{_ratio(s, a.wall_s):>7.1%}")
    lines.append(f"    {'(unattributed)':<44} {a.wall_s - attributed:>10.4f}"
                 f" {m['trace.unattributed_share']:>7.1%}")
    lines += [f"  {name:<44} {m[name]:>14.6g} {unit}"
              for name, unit in PER_LAYER]
    result = {"correct": failed == 0 and deterministic,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": m[name], "unit": unit}
                          for name, unit in PER_LAYER}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    use_program_source()
    if args.setup_probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        result, lines = traced(args.workload, args.seed)
    else:
        result, lines = end_to_end(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
