"""CUPTI-style callback registry, exercised through real launches."""

import numpy as np

from repro import telemetry
from repro.gpusim import launch
from repro.telemetry import callbacks as cb


def sample_kernel(ctx):
    arr = ctx.shared(64)
    with ctx.phase("work"):
        ctx.set_active(32)
        with ctx.step():
            ctx.sload(arr, np.arange(32))
            ctx.ops(2)
            ctx.sync()


class TestRegistry:
    def test_emit_without_subscribers_is_noop(self):
        assert not cb.has_subscribers()
        cb.emit(cb.DOMAIN_LAUNCH, cb.SITE_BEGIN, kernel="k")

    def test_subscribe_receives_launch_lifecycle(self):
        seen = []
        handle = cb.subscribe(seen.append)
        try:
            launch(sample_kernel, num_blocks=2, threads_per_block=32)
        finally:
            cb.unsubscribe(handle)
        domains = [(i.domain, i.site) for i in seen]
        assert domains[0] == (cb.DOMAIN_LAUNCH, cb.SITE_BEGIN)
        assert domains[-1] == (cb.DOMAIN_LAUNCH, cb.SITE_END)
        assert (cb.DOMAIN_PHASE, cb.SITE_BEGIN) in domains
        assert (cb.DOMAIN_PHASE, cb.SITE_END) in domains
        assert (cb.DOMAIN_STEP, cb.SITE_RECORD) in domains
        begin = seen[0].payload
        assert begin["kernel"] == "sample_kernel"
        assert begin["num_blocks"] == 2
        end = seen[-1].payload
        assert end["result"] is not None
        assert "work" in end["result"].ledger.phases

    def test_step_payload_carries_counters(self):
        seen = []
        handle = cb.subscribe(seen.append)
        try:
            launch(sample_kernel, num_blocks=1, threads_per_block=32)
        finally:
            cb.unsubscribe(handle)
        steps = [i for i in seen if i.domain == cb.DOMAIN_STEP]
        assert len(steps) == 1
        assert steps[0].payload["phase"] == "work"
        assert steps[0].payload["index"] == 0
        assert steps[0].payload["counters"].shared_words > 0

    def test_unsubscribe_stops_delivery(self):
        seen = []
        handle = cb.subscribe(seen.append)
        cb.unsubscribe(handle)
        launch(sample_kernel, num_blocks=1, threads_per_block=32)
        assert seen == []
        assert not cb.has_subscribers()

    def test_emit_delivers_to_the_subscribers_it_started_with(self):
        seen = []

        def late(info):
            seen.append(("late", info.site))

        def first(info):
            seen.append(("first", info.site))
            cb.unsubscribe(first)
            cb.subscribe(late)

        def second(info):
            seen.append(("second", info.site))
        handles = [cb.subscribe(first), cb.subscribe(second)]
        try:
            cb.emit(cb.DOMAIN_PHASE, cb.SITE_BEGIN, name="p")
            cb.emit(cb.DOMAIN_PHASE, cb.SITE_END, name="p")
        finally:
            for handle in (*handles, late):
                cb.unsubscribe(handle)
        assert seen == [("first", "begin"), ("second", "begin"),
                        ("second", "end"), ("late", "end")]
        assert not cb.has_subscribers()


class TestCollectorIntegration:
    def test_collect_records_launch_and_metrics(self):
        with telemetry.collect() as col:
            launch(sample_kernel, num_blocks=3, threads_per_block=32)
        assert len(col.launches) == 1
        rec = col.launches[0]
        assert rec.kernel == "sample_kernel"
        assert rec.num_blocks == 3
        assert rec.result is not None
        assert col.metrics.counter("sim.launches").value(
            kernel="sample_kernel") == 1
        assert col.metrics.counter("sim.steps").value(phase="work") == 1
        deg = col.metrics.histogram("sim.conflict_degree")
        assert deg.count(phase="work") == 1

    def test_launch_failure_still_closes_record(self):
        def bad_kernel(ctx):
            with ctx.phase("boom"):
                raise RuntimeError("kernel error")

        with telemetry.collect() as col:
            try:
                launch(bad_kernel, num_blocks=1, threads_per_block=32)
            except RuntimeError:
                pass
        assert len(col.launches) == 1
        assert col.launches[0].result is None
