"""Layout autotuner bench: transaction counts, modeled costs, choices.

Sweeps a batch-shape grid spanning both regimes the paper's §5
coalescing argument predicts -- huge batches of tiny systems (where
the one-thread-per-system Thomas in the interleaved layout wins) down
to a single flagship n = 512 system (where the sequential hybrid
wins) -- and records, per shape:

* the global-memory transaction counts of the sequential vs the
  interleaved Thomas kernel (the coalescing ratio is the whole point
  of the layout),
* the analytic estimate of the Thomas kernel in both layouts,
  asserted bitwise-equal to the measured functional simulation (the
  analytic path is exact on the simulator; any drift is a broken
  estimator),
* the autotuner's chosen ``(method, layout)`` -- the argmin of that
  estimator over the candidates.

The committed baseline in ``benchmarks/results/layout_autotune.json``
locks the choices and the coalescing ratios.  ``--update`` rewrites
it (the rewritten ``.txt`` shows the run as its own baseline);
``--check`` (the CI perf-smoke mode) exits nonzero when a choice
flips, a coalescing ratio regresses below 90% of baseline, or the
analytic/measured equality breaks.  Everything runs on the modeled
clock, so failures are real model changes, never machine noise.

Usage::

    python benchmarks/bench_layout_autotune.py            # report
    python benchmarks/bench_layout_autotune.py --quick    # smaller grid
    python benchmarks/bench_layout_autotune.py --check    # CI gate
    python benchmarks/bench_layout_autotune.py --update   # new baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from _harness import RESULTS_DIR, emit, quiet, table

from repro.analysis.layout_autotuner import choose_layout
from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import GTX280, estimate_ms
from repro.kernels import run_thomas_batch
from repro.numerics.generators import diagonally_dominant_fluid

BASELINE_PATH = os.path.join(RESULTS_DIR, "layout_autotune.json")
RATIO_FLOOR = 0.90             # vs baseline coalescing ratio

#: (num_systems, n) shapes: large-batch/small-n down to single large-n.
FULL_GRID = ((2048, 8), (1024, 16), (512, 32), (64, 64), (4, 256),
             (1, 512))
QUICK_GRID = ((2048, 8), (64, 64), (1, 512))


def measure(grid) -> list[dict]:
    rows = []
    for num_systems, n in grid:
        systems = diagonally_dominant_fluid(num_systems, n, seed=0)
        _, seq = run_thomas_batch(systems, layout="sequential")
        _, inter = run_thomas_batch(systems, layout="interleaved")
        tx_seq = seq.ledger.total().global_transactions
        tx_int = inter.ledger.total().global_transactions

        drift = []
        for layout in ("sequential", "interleaved"):
            lay = None if layout == "sequential" else layout
            measured = modeled_grid_timing(
                "thomas", n, num_systems, layout=lay).solver_ms
            analytic = estimate_ms("thomas", n, num_systems, layout=layout)
            if measured != analytic:
                drift.append(f"thomas/{layout} S={num_systems} n={n}: "
                             f"analytic {analytic!r} != "
                             f"measured {measured!r}")

        choice = choose_layout(num_systems, n, device=GTX280)
        rows.append({
            "num_systems": num_systems, "n": n,
            "tx_sequential": int(tx_seq), "tx_interleaved": int(tx_int),
            "coalescing_ratio": round(tx_seq / tx_int, 4),
            "chosen": f"{choice.method}/{choice.layout}",
            "predicted_ms": round(choice.predicted_ms, 6),
            "drift": drift,
        })
    return rows


def load_baseline() -> list[dict] | None:
    try:
        with open(BASELINE_PATH) as fh:
            return json.load(fh)["data"]["rows"]
    except (OSError, KeyError, ValueError):
        return None


def build_report(grid, check: bool, update: bool = False):
    with quiet():
        rows = measure(grid)
    # An --update run is the new baseline; compare against it, not
    # against the file it is about to replace.
    baseline = rows if update else load_baseline()
    base_by_shape = {(r["num_systems"], r["n"]): r
                     for r in (baseline or [])}
    failures = []

    for r in rows:
        failures += r["drift"]
    big = next((r for r in rows if r["num_systems"] >= 1024
                and r["n"] <= 16), None)
    if big and big["chosen"] != "thomas/interleaved":
        failures.append(f"S={big['num_systems']} n={big['n']} chose "
                        f"{big['chosen']}, expected thomas/interleaved")
    single = next((r for r in rows if r["num_systems"] == 1), None)
    if single and not single["chosen"].endswith("/sequential"):
        failures.append(f"single-system n={single['n']} chose "
                        f"{single['chosen']}, expected a sequential hybrid")

    if check and baseline is not None:
        for r in rows:
            base = base_by_shape.get((r["num_systems"], r["n"]))
            if base is None:
                continue
            if r["chosen"] != base["chosen"]:
                failures.append(
                    f"S={r['num_systems']} n={r['n']}: choice flipped "
                    f"{base['chosen']} -> {r['chosen']}")
            if r["coalescing_ratio"] < base["coalescing_ratio"] * RATIO_FLOOR:
                failures.append(
                    f"S={r['num_systems']} n={r['n']}: coalescing ratio "
                    f"{r['coalescing_ratio']:.2f} below {RATIO_FLOOR:.2f}x "
                    f"baseline {base['coalescing_ratio']:.2f}")

    out = []
    for r in rows:
        base = base_by_shape.get((r["num_systems"], r["n"]))
        out.append([r["num_systems"], r["n"], r["tx_sequential"],
                    r["tx_interleaved"], f"{r['coalescing_ratio']:.1f}x",
                    r["chosen"], base["chosen"] if base else "-"])
    text = table(["systems", "n", "tx seq", "tx int", "coalesce",
                  "chosen", "baseline"], out)
    if baseline is None:
        text += "\nno committed baseline; run with --update to record one"
    for line in failures:
        text += f"\nFAIL: {line}"
    text += f"\ngate: {'PASS' if not failures else 'FAIL'}"
    data = {"rows": rows, "ratio_floor": RATIO_FLOOR,
            "ok": not failures}
    return text, data, not failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: smaller shape grid")
    ap.add_argument("--check", action="store_true",
                    help="fail on choice flips / ratio regressions")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed baseline from this run")
    args = ap.parse_args(argv)
    grid = QUICK_GRID if args.quick else FULL_GRID
    if args.update:
        grid = FULL_GRID               # the baseline locks the full grid
    text, data, ok = build_report(grid, check=args.check,
                                  update=args.update)
    if args.update:
        emit("layout_autotune", text, data)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0 if ok else 1
    print(text)
    return 0 if ok else 1


def test_layout_autotune_baseline(benchmark):
    text, data, ok = build_report(QUICK_GRID, check=True)
    assert ok, text
    benchmark(lambda: choose_layout(2048, 8, device=GTX280).method)


if __name__ == "__main__":
    sys.exit(main())
