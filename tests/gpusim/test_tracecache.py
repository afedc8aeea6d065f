"""Launch-signature trace memoization: correctness and bypass rules."""

import warnings
from functools import partial

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim import (FaultPlan, TraceCache, executor, inject, launch,
                          ledgers_equal, tracecache, use_cache)
from repro.gpusim.device import GTX280, TESLA_C1060
from repro.gpusim.serialize import launch_to_json
from repro.kernels.api import (run_cr_global, run_cr_split, run_kernel,
                               run_pcr_pingpong, run_rd_full)
from repro.kernels.hybrid_kernel import cr_pcr_kernel
from repro.kernels.pcr_packed_kernel import run_pcr_packed
from repro.kernels.thomas_kernel import run_thomas_per_thread
from repro.numerics.generators import diagonally_dominant_fluid
from repro.telemetry import callbacks
from repro.verify.invariants import check_invariants
from tests.conftest import make_systems


def sample_kernel(ctx, n):
    arr = ctx.shared(n)
    with ctx.phase("work"):
        ctx.set_active(n)
        with ctx.step():
            i = ctx.lanes
            ctx.sstore(arr, i, np.ones((ctx.num_blocks, n),
                                       dtype=np.float32))
            v = ctx.sload(arr, i)
            ctx.ops(2)
            ctx.sync()
    return v[0]


def _sample_twin(n):
    """``sample_kernel``'s NumPy twin: every lane reads back a one."""
    return np.ones(n, dtype=np.float32)


sample_kernel.numpy_twin = _sample_twin


def echo_kernel(ctx, n):
    """Same shape as sample_kernel but a different identity."""
    arr = ctx.shared(n)
    with ctx.phase("work"):
        ctx.set_active(n)
        with ctx.step():
            ctx.sstore(arr, ctx.lanes,
                       np.zeros((ctx.num_blocks, n), dtype=np.float32))
            ctx.sync()


#: Every kernel with a NumPy twin, as a runner mapping a batch to
#: ``(x, LaunchResult)``.
TWIN_LAUNCHES = {
    "cr": partial(run_kernel, "cr"),
    "pcr": partial(run_kernel, "pcr"),
    "rd": partial(run_kernel, "rd"),
    "cr_pcr-16": partial(run_kernel, "cr_pcr", intermediate_size=16),
    "cr_rd-8": partial(run_kernel, "cr_rd", intermediate_size=8),
    "thomas-sequential": partial(run_kernel, "thomas", layout="sequential"),
    "thomas-interleaved": partial(run_kernel, "thomas",
                                  layout="interleaved"),
    "pcr_pingpong": run_pcr_pingpong,
    "pcr_packed-3": partial(run_pcr_packed, systems_per_block=3),
    "cr_split": run_cr_split,
    "cr_global": run_cr_global,
    "thomas_per_thread": run_thomas_per_thread,
}


def _spy_twin(monkeypatch, kernel):
    """Record calls to ``kernel``'s twin (and still compute)."""
    calls = []
    twin = kernel.numpy_twin

    def spy(**kwargs):
        calls.append(kwargs)
        return twin(**kwargs)
    monkeypatch.setattr(kernel, "numpy_twin", spy)
    return calls


def _recorded_callbacks(fn):
    """``fn()``'s result and the callbacks it emitted, as tuples."""
    seen = []

    def record(info):
        label = info.payload.get("name", info.payload.get("kernel"))
        seen.append((info.domain, info.site, label))
    handle = callbacks.subscribe(record)
    try:
        out = fn()
    finally:
        callbacks.unsubscribe(handle)
    return out, seen


class TestSignature:
    def kw(self, **over):
        kw = dict(num_blocks=2, threads_per_block=32, device=GTX280,
                  check_contiguous_active=True, kernel_args={"n": 32})
        kw.update(over)
        return kw

    def test_identical_launches_share_a_key(self):
        assert tracecache.launch_signature(sample_kernel, **self.kw()) == \
            tracecache.launch_signature(sample_kernel, **self.kw())

    def test_every_dimension_discriminates(self):
        base = tracecache.launch_signature(sample_kernel, **self.kw())
        for over in (dict(num_blocks=3), dict(threads_per_block=64),
                     dict(device=TESLA_C1060),
                     dict(check_contiguous_active=False),
                     dict(kernel_args={"n": 16})):
            assert tracecache.launch_signature(
                sample_kernel, **self.kw(**over)) != base

    def test_kernel_identity_discriminates(self):
        assert tracecache.launch_signature(echo_kernel, **self.kw()) != \
            tracecache.launch_signature(sample_kernel, **self.kw())

    def test_closure_kernels_are_opaque(self):
        captured = 3

        def closure_kernel(ctx):
            ctx.ops(captured)

        assert tracecache.launch_signature(
            closure_kernel, **self.kw(kernel_args={})) is None

    def test_opaque_argument_is_refused(self):
        assert tracecache.launch_signature(
            sample_kernel, **self.kw(kernel_args={"n": object()})) is None

    def test_structural_args_use_trace_signature(self):
        s1 = make_systems(2, 32, seed=0)
        s2 = make_systems(2, 32, seed=99)   # same shape, different data
        from repro.kernels.common import GlobalSystemArrays
        g1 = GlobalSystemArrays.from_systems(s1)
        g2 = GlobalSystemArrays.from_systems(s2)
        assert g1.trace_signature() == g2.trace_signature()
        assert g1.trace_signature() != \
            GlobalSystemArrays.from_systems(make_systems(4, 32)
                                            ).trace_signature()


class TestCacheBehaviour:
    def test_hit_replays_identical_ledger(self):
        cache = TraceCache()
        with use_cache(cache):
            cold = launch(sample_kernel, num_blocks=2, threads_per_block=32,
                          n=32)
            warm = launch(sample_kernel, num_blocks=2, threads_per_block=32,
                          n=32)
        assert not cold.trace_cached
        assert warm.trace_cached
        assert cache.stats() == {"hits": 1, "misses": 1, "bypasses": 0,
                                 "entries": 1, "hit_rate": 0.5}
        assert ledgers_equal(cold.ledger, warm.ledger) == []

    def test_functional_outputs_still_computed_on_hit(self, monkeypatch):
        """A hit still returns the kernel's outputs; the twin computes
        them."""
        cache = TraceCache()
        with use_cache(cache):
            cold = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                          n=16)
            twin_calls = _spy_twin(monkeypatch, sample_kernel)
            warm = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                          n=16)
        assert warm.trace_cached
        assert twin_calls == [{"n": 16}]
        assert warm.outputs.tobytes() == cold.outputs.tobytes()

    def test_kernel_without_twin_bypasses(self):
        """``rd_full`` has no twin: every launch simulates, none is
        looked up, and the bypass is labelled ``no_twin``."""
        systems = make_systems(2, 32, seed=6)
        with use_cache(None):
            x_cold, _ = run_rd_full(systems)
        cache = TraceCache()
        with telemetry.collect() as col, use_cache(cache):
            results = [run_rd_full(systems) for _ in range(2)]
        assert [res.trace_cached for _x, res in results] == [False, False]
        for x, _res in results:
            assert x.tobytes() == x_cold.tobytes()
        assert cache.stats() == {"hits": 0, "misses": 0, "bypasses": 2,
                                 "entries": 0, "hit_rate": 0.0}
        assert col.metrics.counter("gpusim.trace_cache.bypasses").value(
            kernel="rd_full_kernel", reason="no_twin", cache="default") == 2

    def test_returned_ledger_is_a_private_copy(self):
        cache = TraceCache()
        with use_cache(cache):
            launch(sample_kernel, num_blocks=1, threads_per_block=16, n=16)
            a = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
            a.ledger.phase("work").flops += 999    # vandalize the copy
            b = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
        assert b.ledger.phase("work").flops != a.ledger.phase("work").flops

    def test_fault_plan_bypasses(self, monkeypatch):
        cache = TraceCache()
        with use_cache(cache):
            launch(sample_kernel, num_blocks=1, threads_per_block=16, n=16)
            with inject(FaultPlan(seed=3)):
                res = launch(sample_kernel, num_blocks=1,
                             threads_per_block=16, n=16)
        assert not res.trace_cached
        assert cache.bypasses == 1
        assert cache.hits == 0

        # A registry kernel with a NumPy twin: faults must hit the
        # simulated shared memory, so the twin never stands in.
        twin_calls = _spy_twin(monkeypatch, cr_pcr_kernel)
        systems = make_systems(2, 64, seed=5)
        cache = TraceCache()
        with use_cache(cache):
            run_kernel("cr_pcr", systems)
            with inject(FaultPlan(seed=3, shared_bitflip_rate=0.5)):
                _x, res = run_kernel("cr_pcr", systems)
        assert not res.trace_cached
        assert twin_calls == []
        assert (cache.hits, cache.bypasses) == (0, 1)

    def test_step_limit_bypasses(self, monkeypatch):
        cache = TraceCache()
        with use_cache(cache):
            launch(sample_kernel, num_blocks=1, threads_per_block=16, n=16)
            res = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                         step_limit=1, n=16)
        assert not res.trace_cached
        assert cache.bypasses == 1
        assert cache.hits == 0

        twin_calls = _spy_twin(monkeypatch, cr_pcr_kernel)
        systems = make_systems(2, 64, seed=5)
        cache = TraceCache()
        with use_cache(cache):
            run_kernel("cr_pcr", systems)
            _x, res = run_kernel("cr_pcr", systems, step_limit=2)
        assert not res.trace_cached
        assert twin_calls == []
        assert res.ledger.total().steps == 2
        assert (cache.hits, cache.bypasses) == (0, 1)

    def test_use_cache_none_disables(self):
        with use_cache(None):
            a = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
            b = launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
        assert not a.trace_cached and not b.trace_cached

    def test_eviction_is_bounded(self):
        cache = TraceCache(max_entries=2)
        with use_cache(cache):
            for blocks in (1, 2, 3):
                launch(sample_kernel, num_blocks=blocks,
                       threads_per_block=16, n=16)
        assert len(cache) == 2

    def test_eviction_and_clear_drop_whole_entries(self):
        systems = {n: make_systems(2, n, seed=1) for n in (16, 32)}
        cache = TraceCache(max_entries=1)
        with use_cache(cache):
            _x, first = run_kernel("cr_pcr", systems[16])
            run_kernel("cr_pcr", systems[32])        # evicts n=16 (FIFO)
            _x, again = run_kernel("cr_pcr", systems[16])
        # The evicted signature re-records: nothing of it was left to
        # replay, so the simulator ran and stored a fresh entry.
        assert not again.trace_cached
        assert launch_to_json(again) == launch_to_json(first)
        (entry,) = cache._entries.values()
        assert entry.shared_bytes == first.shared_bytes
        assert entry.phase_log[0] == ("begin", "global_load")
        assert ledgers_equal(entry.ledger, first.ledger) == []
        cache.clear()
        assert len(cache) == 0
        with use_cache(cache):
            _x, after_clear = run_kernel("cr_pcr", systems[16])
        assert not after_clear.trace_cached

    def test_default_cache_enabled_under_test(self):
        assert tracecache.default_cache() is not None
        assert tracecache.get_cache() is tracecache.default_cache()


class TestSolverGridIdentity:
    """Cached vs uncached ledgers are bitwise-identical, full grid."""

    @pytest.mark.parametrize("kernel", ["cr", "pcr", "rd", "cr_pcr",
                                        "cr_rd"])
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_cached_ledger_bitwise_identical(self, kernel, n):
        systems = make_systems(2, n, seed=3)
        with use_cache(None):
            x_cold, cold = run_kernel(kernel, systems)
        cache = TraceCache()
        with use_cache(cache):
            run_kernel(kernel, systems)
            x_warm, warm = run_kernel(kernel, systems)
        assert warm.trace_cached
        assert ledgers_equal(cold.ledger, warm.ledger) == []
        assert x_warm.tobytes() == x_cold.tobytes()

    def test_solutions_identical_through_cache(self):
        systems = make_systems(4, 64, seed=8)
        with use_cache(None):
            x_cold, _ = run_kernel("cr", systems)
        cache = TraceCache()
        with use_cache(cache):
            run_kernel("cr", systems)
            x_warm, res = run_kernel("cr", systems)
        assert res.trace_cached
        np.testing.assert_array_equal(x_cold, x_warm)


class TestTwinHits:
    """A hit of a kernel with a NumPy twin is served without the
    simulator, indistinguishably from the recording launch."""

    @pytest.mark.parametrize("run", TWIN_LAUNCHES.values(),
                             ids=TWIN_LAUNCHES.keys())
    def test_hit_skips_simulator_and_matches_miss(self, run, monkeypatch):
        systems = make_systems(3, 64, seed=4)
        cache = TraceCache()
        with use_cache(cache):
            (x_miss, miss), miss_cbs = _recorded_callbacks(
                lambda: run(systems))

            def no_context(*args, **kwargs):
                raise AssertionError("a twin hit built a BlockContext")
            monkeypatch.setattr(executor, "BlockContext", no_context)
            (x_hit, hit), hit_cbs = _recorded_callbacks(
                lambda: run(systems))
        assert not miss.trace_cached and hit.trace_cached
        assert x_hit.tobytes() == x_miss.tobytes()
        assert launch_to_json(hit) == launch_to_json(miss)
        # Exactly the launch and phase callbacks, in order; no steps.
        assert hit_cbs == [cb for cb in miss_cbs
                           if cb[0] != callbacks.DOMAIN_STEP]
        assert any(cb[0] == callbacks.DOMAIN_STEP for cb in miss_cbs)

    @pytest.mark.parametrize("name,n", [("rd", 256), ("cr_rd", 512)])
    def test_hit_is_as_quiet_as_the_simulated_launch(self, name, n):
        """The NumPy rd scan overflows on the §5.4 fluid matrices; the
        kernels suppress that, and so must the twin."""
        systems = diagonally_dominant_fluid(4, n, seed=0)
        with warnings.catch_warnings(), use_cache(TraceCache()):
            warnings.simplefilter("error")
            x_miss, miss = run_kernel(name, systems)
            x_hit, hit = run_kernel(name, systems)
        assert not miss.trace_cached and hit.trace_cached
        np.testing.assert_array_equal(x_hit, x_miss)


class TestInvariantsThroughCache:
    def test_invariants_pass_fully_memoized(self):
        """Second sweep is served from the analytic estimator's memo
        and still satisfies the analytic invariants (paper closed
        forms, incl. the CR conflict ladder).  The checker runs the
        non-functional fast path, so the trace cache is not involved;
        the estimator memo plays the same replay role."""
        from repro.gpusim import estimator

        estimator.clear_estimator_cache()
        sizes = (8, 16, 64)
        first = check_invariants(sizes=sizes)
        assert first.ok, first.summary()
        warm = len(estimator._CACHE)
        assert warm >= first.checked
        second = check_invariants(sizes=sizes)
        assert second.ok, second.summary()
        # No new analytic launches on the warm sweep.
        assert len(estimator._CACHE) == warm

    def test_cr_160_transactions_at_512_cached(self):
        """The paper's 160-transaction global footprint at n=512,
        replayed from the cache."""
        systems = diagonally_dominant_fluid(2, 512, seed=0)
        cache = TraceCache()
        with use_cache(cache):
            run_kernel("cr", systems)
            _x, warm = run_kernel("cr", systems)
        assert warm.trace_cached
        assert warm.ledger.total().global_transactions == 160


class TestTelemetryCounters:
    def test_counters_exported(self):
        cache = TraceCache()
        with telemetry.collect() as col:
            with use_cache(cache):
                launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
                launch(sample_kernel, num_blocks=1, threads_per_block=16,
                       n=16)
                with inject(FaultPlan(seed=1)):
                    launch(sample_kernel, num_blocks=1, threads_per_block=16,
                           n=16)
        m = col.metrics
        assert m.counter("gpusim.trace_cache.misses").value(
            kernel="sample_kernel", cache="default") == 1
        assert m.counter("gpusim.trace_cache.hits").value(
            kernel="sample_kernel", cache="default") == 1
        assert m.counter("gpusim.trace_cache.bypasses").value(
            kernel="sample_kernel", reason="fault_plan",
            cache="default") == 1

    def test_summary_line_in_text_summary(self):
        from repro.telemetry.export import text_summary
        cache = TraceCache()
        with telemetry.collect() as col:
            with use_cache(cache):
                for _ in range(3):
                    launch(sample_kernel, num_blocks=1, threads_per_block=16,
                           n=16)
        text = text_summary(col)
        assert "trace cache: 2 hits, 1 misses, 0 bypasses" in text
        assert "hit rate 66.7%" in text


class TestPoolSharing:
    def test_pool_owns_one_cache(self):
        from repro.gpusim import make_pool
        pool = make_pool(3, seed=1)
        assert isinstance(pool.trace_cache, TraceCache)

    def test_scheduler_chunks_share_pool_cache(self):
        from repro.gpusim import make_pool
        from repro.serve import BatchScheduler, SolveJob
        pool = make_pool(2, seed=4)
        sched = BatchScheduler(pool)
        systems = make_systems(8, 32, seed=2)
        report = sched.run_job(SolveJob(job_id="tc", systems=systems,
                                        method="cr", chunk_size=2))
        assert report.ok
        # 4 identical chunks: first records, the rest replay.
        assert pool.trace_cache.hits >= 2
        assert pool.trace_cache.hit_rate > 0.5
