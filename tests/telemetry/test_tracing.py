"""Trace-context propagation, deterministic ids, and exposition."""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.gpusim import pool
from repro.gpusim.pool import derive_seed
from repro.telemetry import collector as collector_mod
from repro.telemetry.collector import (Collector, TickClock,
                                       deterministic_collector)
from repro.telemetry.export import (prometheus_text, to_jsonl, trace_trees,
                                    write_prometheus)


class TestTickClock:
    def test_advances_fixed_tick(self):
        clock = TickClock(tick_s=0.5)
        assert clock() == 0.5
        assert clock() == 1.0
        assert clock() == 1.5


class TestTraceContext:
    def test_child_inherits_trace_id_from_stack(self):
        with telemetry.collect() as col:
            with telemetry.trace_span("root", trace_id="abcd1234"):
                with telemetry.span("child"):
                    with telemetry.span("grandchild"):
                        pass
        trace_ids = {s.trace_id for s in col.spans}
        assert trace_ids == {"abcd1234"}
        root, child, grand = col.spans[-3:]
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id

    def test_explicit_parent_links_across_stack(self):
        with telemetry.collect() as col:
            root = col.start_span("serve.trace", detached=True)
            with root:
                pass
            with telemetry.trace_span("serve.job", trace_id=root.record.trace_id,
                                      parent_id=root.record.span_id):
                pass
        job = col.spans[-1]
        assert job.parent_id == root.record.span_id
        assert job.trace_id == root.record.trace_id

    def test_detached_span_not_on_stack(self):
        with telemetry.collect() as col:
            detached = col.start_span("bg", detached=True)
            with detached:
                with telemetry.span("fg"):
                    pass
        fg = next(s for s in col.spans if s.name == "fg")
        # fg must NOT be parented under the detached span.
        assert fg.parent_id != detached.record.span_id

    def test_sibling_traces_stay_separate(self):
        with telemetry.collect() as col:
            with telemetry.trace_span("a", trace_id="aaaa0000"):
                pass
            with telemetry.trace_span("b", trace_id="bbbb0000"):
                pass
        trees = trace_trees(col)
        assert set(trees) == {"aaaa0000", "bbbb0000"}
        for tree in trees.values():
            assert tree["connected"]
            assert tree["root"] is not None

    def test_orphan_trace_reported_disconnected(self):
        with telemetry.collect() as col:
            with telemetry.trace_span("a", trace_id="cafe0001"):
                pass
            # Second root claiming the same trace: two roots, not a tree.
            with telemetry.trace_span("b", trace_id="cafe0001"):
                pass
        assert not trace_trees(col)["cafe0001"]["connected"]


class TestDeterministicIds:
    def run_workload(self, seed):
        col = deterministic_collector(seed)
        with telemetry.collect(col):
            with telemetry.trace_span("job", trace_id="feed0001", n=64):
                telemetry.event("queued", position=1)
                with telemetry.span("chunk", idx=0):
                    telemetry.event("launched")
        return col

    def test_bitwise_identical_jsonl(self):
        a = self.run_workload(seed=7)
        b = self.run_workload(seed=7)
        assert to_jsonl(a) == to_jsonl(b)

    def test_different_seed_different_ids(self):
        a = self.run_workload(seed=7)
        b = self.run_workload(seed=8)
        assert [s.span_id for s in a.spans] != [s.span_id for s in b.spans]

    def test_span_ids_unique(self):
        col = deterministic_collector(seed=0)
        with telemetry.collect(col):
            for i in range(200):
                with telemetry.span("s", i=i):
                    pass
        ids = [s.span_id for s in col.spans]
        assert len(ids) == len(set(ids))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.sampled_from([0, 7, 2**32 - 1, 2**32]),
           kind=st.sampled_from(["span", "event"]),
           start=st.one_of(st.integers(1, 100),
                           st.integers(2**32 - 40, 2**32 + 5)),
           count=st.integers(1, 60))
    def test_block_minted_ids_equal_derive_seed(self, seed, kind, start,
                                                count):
        # Small blocks, so a run of counters crosses several of them.
        col = Collector(seed=seed)
        with mock.patch.object(collector_mod, "ID_BLOCK", 16):
            ids = [col._minted(kind, c) for c in range(start, start + count)]
        assert ids == [derive_seed(seed, kind, c)
                       for c in range(start, start + count)]

    def test_collision_bump_yields_the_salted_id(self):
        col = deterministic_collector(seed=3)
        taken = [derive_seed(3, "span", 1), derive_seed(3, "span", 1, 1)]
        for ident in taken:
            col._by_id[ident] = None
        with telemetry.collect(col):
            with telemetry.span("s"):
                pass
        assert col.spans[0].span_id == derive_seed(3, "span", 1, 2)

    def test_scalar_derive_seed_only_checks_each_block(self, monkeypatch):
        calls = []
        real = pool.derive_seed

        def spy(*parts):
            calls.append(parts)
            return real(*parts)
        monkeypatch.setattr(pool, "derive_seed", spy)
        col = deterministic_collector(seed=11)
        with telemetry.collect(col):
            for _ in range(10_000):
                with telemetry.span("s"):
                    pass
            for _ in range(1_000):
                telemetry.event("e")
        assert len({s.span_id for s in col.spans}) == 10_000
        assert calls == [(11, "span", 1), (11, "span", 4097),
                         (11, "span", 8193), (11, "event", 1)]

    def test_unseeded_collector_uses_plain_counters(self):
        col = Collector()
        with telemetry.collect(col):
            with telemetry.span("a"):
                pass
            with telemetry.span("b"):
                pass
        assert [s.span_id for s in col.spans] == [1, 2]


class TestJsonlSchema:
    def test_span_lines_carry_trace_and_event_ids(self):
        col = deterministic_collector(seed=3)
        with telemetry.collect(col):
            with telemetry.trace_span("job", trace_id="beef0002"):
                telemetry.event("mark", k="v")
        lines = [json.loads(ln) for ln in to_jsonl(col).splitlines()]
        spans = [ln for ln in lines if ln["type"] == "span"]
        events = [ln for ln in lines if ln["type"] == "event"]
        assert spans and spans[0]["trace"] == "beef0002"
        assert events and isinstance(events[0]["id"], int)


class TestPrometheusText:
    def sample_collector(self):
        with telemetry.collect() as col:
            col.metrics.counter("serve.shed_total").inc(2, cls="standard")
            col.metrics.gauge("serve.pool_trace_cache.hit_rate").set(0.5)
            h = col.metrics.histogram("serve.latency_ms")
            for v in (1.0, 2.0, 4.0):
                h.observe(v, cls="standard")
        return col

    def test_families_render(self):
        text = prometheus_text(self.sample_collector())
        assert '# TYPE repro_serve_shed_total counter' in text
        assert 'repro_serve_shed_total{cls="standard"} 2' in text
        assert '# TYPE repro_serve_pool_trace_cache_hit_rate gauge' in text
        assert '# TYPE repro_serve_latency_ms histogram' in text
        assert 'le="+Inf"' in text
        assert 'repro_serve_latency_ms_count{cls="standard"} 3' in text
        assert 'repro_serve_latency_ms_sum{cls="standard"} 7' in text

    def test_bucket_counts_are_cumulative(self):
        text = prometheus_text(self.sample_collector())
        buckets = [ln for ln in text.splitlines()
                   if ln.startswith("repro_serve_latency_ms_bucket")]
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_names_sanitized(self):
        with telemetry.collect() as col:
            col.metrics.counter("weird.name-with%chars").inc()
        text = prometheus_text(col)
        assert "repro_weird_name_with_chars" in text

    def test_deterministic_output(self):
        assert prometheus_text(self.sample_collector()) == \
            prometheus_text(self.sample_collector())

    def test_write_prometheus(self, tmp_path):
        path = write_prometheus(self.sample_collector(),
                                str(tmp_path / "m.prom"))
        content = open(path).read()
        assert content.endswith("\n")
        assert "repro_serve_shed_total" in content
