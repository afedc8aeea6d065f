"""Regressions for the engine/cache/estimator seams.

Two properties the vectorized-engine refactor must not disturb:

1. The execution engine is *not* part of the trace-cache launch
   signature -- a trace recorded under one engine is a valid,
   bitwise-identical hit for the other.
2. The serve scheduler's admission estimates now come from the
   analytic estimator: no functional launch, no trace-cache traffic,
   same modeled milliseconds as before the switch.
"""

import pytest

from repro.gpusim import TraceCache, ledgers_equal, use_cache
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


class TestCrossEngineCacheHits:
    @pytest.mark.parametrize("first,second", [("vectorized", "reference"),
                                              ("reference", "vectorized")])
    def test_trace_recorded_under_one_engine_hits_the_other(self, first,
                                                            second):
        from repro.gpusim.estimator import _resolve_kernel
        from repro.gpusim.executor import launch
        from repro.kernels.common import GlobalSystemArrays

        kernel, threads, extra, _m = _resolve_kernel("cr", 32, None)
        systems = diagonally_dominant_fluid(2, 32, seed=5)
        cache = TraceCache()

        def go(engine):
            gmem = GlobalSystemArrays.from_systems(systems)
            with use_cache(cache):
                return launch(kernel, num_blocks=2,
                              threads_per_block=threads, gmem=gmem,
                              engine=engine, **extra)

        cold = go(first)
        warm = go(second)
        assert not cold.trace_cached
        assert warm.trace_cached
        assert cache.hits == 1 and cache.misses == 1
        assert ledgers_equal(cold.ledger, warm.ledger) == []
        assert cold.ledger.step_records == warm.ledger.step_records

    def test_cached_ledger_is_private_per_hit(self):
        """Mutating a returned ledger must not corrupt later hits."""
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        cache = TraceCache()
        with use_cache(cache):
            _x, first = run_kernel("pcr", systems)
            _x, second = run_kernel("pcr", systems)
            second.ledger.total()  # materialize
            second.ledger.phases.clear()
            _x, third = run_kernel("pcr", systems)
        assert ledgers_equal(first.ledger, third.ledger) == []


class TestServeEstimatePath:
    def _scheduler(self):
        from repro.gpusim import make_pool
        from repro.serve import BatchScheduler

        pool = make_pool(2, seed=11)
        return BatchScheduler(pool)

    def _job(self, n=64, num_systems=8, chunk_size=2):
        from repro.serve import SolveJob

        systems = diagonally_dominant_fluid(num_systems, n, seed=4)
        return SolveJob(job_id="est", method="cr", systems=systems,
                        chunk_size=chunk_size)

    def test_estimate_is_analytic_no_launch(self):
        """Admission estimates must not execute kernels: the pool's
        trace cache sees no traffic and no launch telemetry fires."""
        sched = self._scheduler()
        job = self._job()
        cache = sched.pool.trace_cache
        before = (cache.hits, cache.misses) if cache is not None else None
        ms = sched.estimate_job_ms(job)
        assert ms > 0
        if cache is not None:
            assert (cache.hits, cache.misses) == before

    def test_estimate_matches_estimator_directly(self):
        from repro.gpusim.estimator import estimate_ms

        sched = self._scheduler()
        job = self._job(n=64, num_systems=8, chunk_size=2)
        per_chunk = estimate_ms("cr", 64, 2)
        expected = per_chunk * job.num_chunks / len(sched.pool)
        assert sched.estimate_job_ms(job) == expected

    def test_estimate_cache_keyed_per_shape(self):
        sched = self._scheduler()
        sched.estimate_job_ms(self._job(n=64))
        sched.estimate_job_ms(self._job(n=64))
        assert len(sched._estimate_cache) == 1
        sched.estimate_job_ms(self._job(n=32))
        assert len(sched._estimate_cache) == 2

    def test_run_job_still_solves_correctly(self):
        """End to end: admission via the analytic path, execution via
        the vectorized engine, solutions still match the oracle."""
        from repro.verify.oracle import compare_to_oracle

        sched = self._scheduler()
        job = self._job(n=32, num_systems=4)
        report = sched.run_job(job)
        assert report.completed and report.outcome == "ok"
        comparison = compare_to_oracle(job.systems, report.x)
        assert comparison.rel_residual_max < 1e-4
