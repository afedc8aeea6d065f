"""Real wall-clock benchmarks of the NumPy solver library itself.

Unlike the figure benches (which report *modeled* GTX 280 times),
these measure what this library actually costs on the host running the
test -- the numbers a user of the batched NumPy solvers cares about.
One test per solver on the paper's flagship 512x512 workload, plus
``solve(method="auto")`` next to ``thomas`` and ``cr`` (the two methods
its host rule picks between) on the wall-clock benchmark's solve-mix
shapes.

Run as a script to print the thomas-vs-cr crossover grid that fixes
``repro.solvers.api.HOST_CR_FACTOR`` (the table in ``docs/api.md``)::

    cd benchmarks && PYTHONPATH=../src python bench_cpu_wallclock.py
"""

import time

import pytest

from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.api import SOLVERS, host_method, solve

from _harness import quiet, table

#: The solve-mix shapes ``(num_systems, n)`` of ``perfbench/``.
SOLVE_MIX_SHAPES = ((512, 512), (4096, 64), (16384, 16), (1, 65536))


@pytest.fixture(scope="module")
def dominant512():
    return diagonally_dominant_fluid(512, 512, seed=0)


@pytest.fixture(scope="module")
def close512():
    return close_values(512, 512, seed=1)


def test_wallclock_thomas(benchmark, dominant512):
    benchmark(lambda: SOLVERS["thomas"](dominant512))


def test_wallclock_gep(benchmark, dominant512):
    benchmark(lambda: SOLVERS["gep"](dominant512))


def test_wallclock_cr(benchmark, dominant512):
    benchmark(lambda: SOLVERS["cr"](dominant512))


def test_wallclock_pcr(benchmark, dominant512):
    benchmark(lambda: SOLVERS["pcr"](dominant512))


def test_wallclock_rd(benchmark, close512):
    with quiet():
        benchmark(lambda: SOLVERS["rd"](close512))


def test_wallclock_cr_pcr(benchmark, dominant512):
    benchmark(lambda: SOLVERS["cr_pcr"](dominant512, intermediate_size=256))


def test_wallclock_cr_rd(benchmark, close512):
    with quiet():
        benchmark(lambda: SOLVERS["cr_rd"](close512, intermediate_size=128))


@pytest.fixture(scope="module", params=SOLVE_MIX_SHAPES,
                ids=lambda sh: f"{sh[0]}x{sh[1]}")
def solve_mix(request):
    return diagonally_dominant_fluid(*request.param, seed=0)


@pytest.mark.parametrize("method", ["auto", "thomas", "cr"])
def test_wallclock_solve_mix(benchmark, solve_mix, method):
    s = solve_mix
    benchmark(lambda: solve(s.a, s.b, s.c, s.d, method=method))


def crossover_grid(ns=(16, 64, 128, 256, 512, 1024, 2048, 4096, 16384,
                       65536),
                   batches=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
                   max_elems=2**22, repeat=3) -> str:
    """Best-of-``repeat`` ms of ``solve(method="thomas"|"cr")`` per
    ``(num_systems, n)``, the faster method, and the host rule's pick."""
    def best_ms(s, method):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            solve(s.a, s.b, s.c, s.d, method=method)
            times.append(time.perf_counter() - t0)
        return 1e3 * min(times)

    rows = []
    for n in ns:
        for S in batches:
            if S * n > max_elems:
                break
            s = diagonally_dominant_fluid(S, n, seed=0)
            th, cr = best_ms(s, "thomas"), best_ms(s, "cr")
            rows.append([n, S, f"{th:.2f}", f"{cr:.2f}",
                         "cr" if cr < th else "thomas", host_method(s)])
    return table(["n", "systems", "thomas ms", "cr ms", "faster", "auto"],
                 rows)


if __name__ == "__main__":
    print(crossover_grid())
