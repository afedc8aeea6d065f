"""Overload-shedding baseline: goodput and shed behaviour at 2x load.

A seeded 2x-capacity multi-tenant overload run (the same scenario the
acceptance suite in ``tests/serve/test_overload.py`` gates on) is
measured and compared against the committed baseline in
``benchmarks/results/overload.json``:

* goodput (completed requests / offered requests),
* shed rate by SLO class (interactive shedding must stay at zero),
* interactive p99 latency on the modeled clock.

``--update`` rewrites the baseline; ``--check`` (the CI perf-smoke
mode) exits nonzero when goodput drops, interactive p99 regresses
more than 25%, or any interactive request is shed.  Everything runs
on the modeled clock over derived seeds, so a regression here is a
real admission/shedding change, never machine noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.gpusim.pool import make_pool
from repro.serve import BatchScheduler, FrontendConfig, ServeFrontend, loadgen

from _harness import RESULTS_DIR, emit, quiet, table

BASELINE_PATH = os.path.join(RESULTS_DIR, "overload.json")
P99_REGRESSION_LIMIT = 1.25
GOODPUT_FLOOR_RATIO = 0.95     # vs baseline goodput

SEED = 42
HORIZON_MS = 3.0
LOAD = 2.0


def run_overload(seed: int = SEED):
    sched = BatchScheduler(make_pool(2, seed=5), queue_capacity=2,
                           checkpoint_every=2, seed=seed)
    fe = ServeFrontend(sched, config=FrontendConfig())
    requests = loadgen.generate(
        loadgen.overload_profiles(LOAD, scenario="mixed", tenants=3),
        horizon_ms=HORIZON_MS, seed=seed)
    rep = fe.run(requests)
    fe.close()
    return rep


def measure() -> dict:
    with quiet():
        rep = run_overload()
    total = len(rep.outcomes)
    lat = rep.latency_report()
    shed_by_class = rep.shed_by_class()
    return {
        "requests": total,
        "completed": len(rep.completed),
        "goodput": round(len(rep.completed) / total, 4),
        "shed_rate_by_class": {
            cls: round(n / total, 4)
            for cls, n in sorted(shed_by_class.items())},
        "interactive_p99_ms": round(lat["interactive"]["p99"], 6),
        "interactive_objective_ms": lat["interactive"]["objective_p99_ms"],
        "downgrades": rep.downgrades,
    }


def load_baseline() -> dict | None:
    try:
        with open(BASELINE_PATH) as fh:
            return json.load(fh)["data"]["overload"]
    except (OSError, KeyError, ValueError):
        return None


def build_report(check: bool,
                 update: bool = False) -> tuple[str, dict, bool]:
    current = measure()
    # An --update run is the new baseline; compare against it, not
    # against the file it is about to replace.
    baseline = current if update else load_baseline()
    failures = []

    if current["shed_rate_by_class"].get("interactive", 0.0) > 0.0:
        failures.append("interactive requests were shed at 2x load")
    if current["interactive_p99_ms"] > current["interactive_objective_ms"]:
        failures.append(
            f"interactive p99 {current['interactive_p99_ms']:.3f}ms "
            f"exceeds objective "
            f"{current['interactive_objective_ms']:.1f}ms")
    if baseline:
        ratio = current["interactive_p99_ms"] / baseline["interactive_p99_ms"]
        if check and ratio > P99_REGRESSION_LIMIT:
            failures.append(
                f"interactive p99 {current['interactive_p99_ms']:.3f}ms vs "
                f"baseline {baseline['interactive_p99_ms']:.3f}ms "
                f"({ratio:.2f}x > {P99_REGRESSION_LIMIT:.2f}x)")
        if check and current["goodput"] < \
                baseline["goodput"] * GOODPUT_FLOOR_RATIO:
            failures.append(
                f"goodput {current['goodput']:.3f} below "
                f"{GOODPUT_FLOOR_RATIO:.2f}x baseline "
                f"{baseline['goodput']:.3f}")

    rows = []
    for key in ("requests", "completed", "goodput",
                "interactive_p99_ms", "downgrades"):
        base = baseline.get(key) if baseline else "-"
        rows.append([key, current[key], base])
    for cls, rate in current["shed_rate_by_class"].items():
        base = (baseline or {}).get("shed_rate_by_class", {}).get(cls, "-")
        rows.append([f"shed_rate[{cls}]", rate, base])
    text = table(["metric", "current", "baseline"], rows)
    if baseline is None:
        text += "\nno committed baseline; run with --update to record one"
    for line in failures:
        text += f"\nFAIL: {line}"
    ok = not failures
    data = {"overload": current,
            "limit": P99_REGRESSION_LIMIT,
            "goodput_floor": GOODPUT_FLOOR_RATIO,
            "seed": SEED, "horizon_ms": HORIZON_MS, "load": LOAD,
            "ok": ok}
    return text, data, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed baseline from this run")
    ap.add_argument("--check", action="store_true",
                    help="fail on shed/goodput/p99 regressions")
    args = ap.parse_args(argv)
    text, data, ok = build_report(check=args.check, update=args.update)
    if args.update:
        emit("overload", text, data)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    print(text)
    return 0 if ok else 1


def test_overload_baseline(benchmark):
    text, data, ok = build_report(check=True)
    assert ok, text
    benchmark(lambda: run_overload().shed_by_class())


if __name__ == "__main__":
    sys.exit(main())
