"""Trace-cache perf smoke: before/after wall-clock on repeat launches.

Two repeat-launch workloads, each timed with the launch-signature
trace cache disabled ("before") and enabled ("after"):

* the verify-grid workload -- every kernel with a NumPy twin at every
  size it fits, swept ``--repeats`` times (the shape of
  ``repro verify`` / ``repro bench`` sessions);
* a serve chaos run -- a chunked job on a pool with one hot device,
  where every healthy chunk shares the pool's cache.

Besides wall-clock, the bench asserts what the cache promises: cached
and uncached ledgers *and solutions* are bitwise-identical on the full
kernel x size grid (a hit takes ``x`` from the kernel's NumPy twin
instead of simulating), and the repeat-launch hit rate clears 90% (the
exit code gates on all of this -- CI runs ``--quick`` as a perf
smoke).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from repro.gpusim import TraceCache, ledgers_equal, make_pool, use_cache
from repro.kernels.api import (run_cr_global, run_cr_split, run_kernel,
                               run_pcr_pingpong)
from repro.kernels.pcr_packed_kernel import run_pcr_packed
from repro.kernels.thomas_kernel import run_thomas_per_thread
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

#: Every kernel with a NumPy twin, as a runner mapping a batch to
#: ``(x, LaunchResult)``.
SOLVERS = {
    "cr": partial(run_kernel, "cr"),
    "pcr": partial(run_kernel, "pcr"),
    "rd": partial(run_kernel, "rd"),
    "cr_pcr": partial(run_kernel, "cr_pcr"),
    "cr_rd": partial(run_kernel, "cr_rd"),
    "thomas": partial(run_kernel, "thomas"),
    "thomas_interleaved": partial(run_kernel, "thomas",
                                  layout="interleaved"),
    "pcr_pingpong": run_pcr_pingpong,
    "pcr_packed": partial(run_pcr_packed, systems_per_block=2),
    "cr_split": run_cr_split,
    "cr_global": run_cr_global,
    "thomas_per_thread": run_thomas_per_thread,
}
#: Largest n a kernel fits on the GT200 (shared memory, or threads per
#: block for two packed systems); the rest fit every grid size.
MAX_N = {"pcr_pingpong": 256, "pcr_packed": 256, "cr_split": 256}
QUICK_SIZES = (8, 16, 32, 64)
FULL_SIZES = (8, 16, 32, 64, 128, 256, 512)
HIT_RATE_FLOOR = 0.90


def _grid_pass(batches, cache):
    """One sweep over the kernel x size grid; returns per-cell
    ``(x, ledger)``."""
    cells = {}
    with use_cache(cache):
        for n, systems in batches.items():
            for solver, run in SOLVERS.items():
                if n <= MAX_N.get(solver, n):
                    x, res = run(systems)
                    cells[(solver, n)] = (x, res.ledger)
    return cells


def verify_grid_workload(sizes, repeats, num_systems=2):
    batches = {n: diagonally_dominant_fluid(num_systems, n, seed=0)
               for n in sizes}

    t0 = time.perf_counter()
    for _ in range(repeats):
        uncached = _grid_pass(batches, None)
    before_s = time.perf_counter() - t0

    cache = TraceCache()
    t0 = time.perf_counter()
    for _ in range(repeats):
        cached = _grid_pass(batches, cache)
    after_s = time.perf_counter() - t0

    mismatched = [cell for cell in uncached
                  if ledgers_equal(uncached[cell][1], cached[cell][1])]
    x_mismatched = [cell for cell in uncached
                    if (uncached[cell][0].tobytes()
                        != cached[cell][0].tobytes())]
    return {"before_s": before_s, "after_s": after_s,
            "speedup": before_s / after_s if after_s else float("inf"),
            "hit_rate": cache.hit_rate, "stats": cache.stats(),
            "launches": repeats * len(uncached),
            "mismatched_cells": [f"{s}@{n}" for s, n in mismatched],
            "x_mismatched_cells": [f"{s}@{n}" for s, n in x_mismatched]}


def serve_chaos_workload(repeats, num_systems=32, n=64, chunk_size=2):
    from repro.serve import BatchScheduler, SolveJob

    def run_once(job_id, pool):
        sched = BatchScheduler(pool, failure_threshold=2)
        systems = diagonally_dominant_fluid(num_systems, n, seed=1)
        report = sched.run_job(SolveJob(
            job_id=job_id, systems=systems, method="cr",
            chunk_size=chunk_size))
        assert report.completed, "chaos job must complete"

    pool = make_pool(3, seed=7, hot=2)
    pool.trace_cache = None          # scheduler scope resolves to "off"
    t0 = time.perf_counter()
    for rep in range(repeats):
        run_once(f"cold{rep}", pool)
    before_s = time.perf_counter() - t0

    pool = make_pool(3, seed=7, hot=2)
    t0 = time.perf_counter()
    for rep in range(repeats):
        run_once(f"warm{rep}", pool)
    after_s = time.perf_counter() - t0

    return {"before_s": before_s, "after_s": after_s,
            "speedup": before_s / after_s if after_s else float("inf"),
            "stats": pool.trace_cache.stats()}


def build_report(quick: bool, repeats: int) -> tuple[str, dict, bool]:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    with quiet():
        grid = verify_grid_workload(sizes, repeats)
        serve = serve_chaos_workload(max(2, repeats // 4))

    rows = [
        ["verify grid", f"{grid['before_s']:.3f}", f"{grid['after_s']:.3f}",
         f"{grid['speedup']:.2f}x", f"{100 * grid['hit_rate']:.1f}%"],
        ["serve chaos", f"{serve['before_s']:.3f}",
         f"{serve['after_s']:.3f}", f"{serve['speedup']:.2f}x",
         f"{100 * serve['stats']['hit_rate']:.1f}%"],
    ]
    text = table(["workload", "before_s", "after_s", "speedup", "hit_rate"],
                 rows)
    identical = not grid["mismatched_cells"]
    x_identical = not grid["x_mismatched_cells"]
    text += (f"\ngrid: {grid['launches'] // repeats} cells "
             f"({len(sizes)} sizes x {len(SOLVERS)} twinned kernels, where "
             f"they fit) x {repeats} repeats = {grid['launches']} launches")
    text += ("\ncached vs uncached ledgers: "
             + ("bitwise-identical on every cell" if identical
                else f"MISMATCH in {grid['mismatched_cells']}"))
    text += ("\ncached vs uncached solutions: "
             + ("bitwise-identical on every cell" if x_identical
                else f"MISMATCH in {grid['x_mismatched_cells']}"))
    ok = identical and x_identical and grid["hit_rate"] >= HIT_RATE_FLOOR
    if grid["hit_rate"] < HIT_RATE_FLOOR:
        text += (f"\nFAIL: hit rate {100 * grid['hit_rate']:.1f}% below the "
                 f"{100 * HIT_RATE_FLOOR:.0f}% floor")
    data = {"quick": quick, "repeats": repeats, "grid": grid,
            "serve": serve, "ok": ok}
    return text, data, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small sizes only (the CI perf-smoke mode)")
    ap.add_argument("--repeats", type=int, default=12,
                    help="sweeps over the grid (hit rate ~ (R-1)/R)")
    args = ap.parse_args(argv)
    text, data, ok = build_report(args.quick, args.repeats)
    emit("trace_cache", text, data)
    return 0 if ok else 1


def test_trace_cache(benchmark):
    text, data, ok = build_report(True, 6)
    emit("trace_cache", text, data)
    assert ok
    cache = TraceCache()
    systems = diagonally_dominant_fluid(2, 64, seed=0)
    with use_cache(cache):
        run_kernel("cr", systems)
        benchmark(lambda: run_kernel("cr", systems))


if __name__ == "__main__":
    sys.exit(main())
