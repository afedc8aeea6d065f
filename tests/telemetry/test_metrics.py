"""Metrics registry: counters, gauges, histograms, snapshots."""

import pytest

from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_keep_separate_series(self):
        c = Counter("ms")
        c.inc(1.0, solver="cr")
        c.inc(2.0, solver="pcr")
        c.inc(1.5, solver="cr")
        assert c.value(solver="cr") == 2.5
        assert c.value(solver="pcr") == 2.0

    def test_label_order_does_not_matter(self):
        c = Counter("x")
        c.inc(1.0, a=1, b=2)
        c.inc(1.0, b=2, a=1)
        assert c.value(a=1, b=2) == 2.0

    def test_equal_values_that_print_differently_stay_separate(self):
        # 1 == 1.0 == True and 0.0 == -0.0, but each labels its own
        # series; repeated lookups go through the label-key memo.
        c = Counter("x")
        values = [1, 1.0, True, 0.0, -0.0, "x", None, (1,), [1]]
        for _ in range(2):
            for v in values:
                c.inc(1.0, v=v)
        assert len(c.series) == len(values)
        assert all(total == 2.0 for total in c.series.values())
        assert ((("v", "True"),) in c.series
                and (("v", "-0.0"),) in c.series)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("occupancy")
        g.set(4)
        g.set(8)
        assert g.value() == 8


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("deg")
        for v in [1, 2, 2, 4, 16]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["sum"] == 25
        assert s["min"] == 1 and s["max"] == 16
        assert s["p50"] == 2

    def test_labelled_series_stay_separate(self):
        h = Histogram("deg")
        h.observe(2, phase="fwd")
        h.observe(8, phase="bwd")
        assert h.count(phase="fwd") == 1
        assert h.count(phase="bwd") == 1
        assert h.quantile(0.5, phase="fwd") == 2
        assert h.quantile(0.5, phase="bwd") == 8


class TestRegistry:
    def test_lazy_creation_and_reuse(self):
        reg = MetricsRegistry()
        c1 = reg.counter("launches")
        c2 = reg.counter("launches")
        assert c1 is c2
        assert "launches" in reg

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("launches").inc(3, solver="cr")
        reg.gauge("blocks").set(8)
        reg.histogram("deg").observe(4)
        snap = reg.snapshot()
        assert snap["counters"]["launches"] == {"{solver=cr}": 3.0}
        assert snap["gauges"]["blocks"] == {"_": 8}
        assert snap["histograms"]["deg"]["_"]["count"] == 1


class TestResilienceHelpers:
    """fallback_total / residual_max recording (docs/robustness.md)."""

    def test_noop_without_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import (record_fallback,
                                             record_residual_max)
        assert not telemetry.enabled()
        record_fallback("cr_pcr", "pcr", "residual")    # must not raise
        record_residual_max(1e-7, "cr_pcr")

    def test_recorded_under_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import (FALLBACK_TOTAL, RESIDUAL_MAX,
                                             record_fallback,
                                             record_residual_max)
        with telemetry.collect() as col:
            record_fallback("cr_pcr", "pcr", "corruption", count=3)
            record_residual_max(0.25, "pcr")
        c = col.metrics.counter(FALLBACK_TOTAL, "")
        assert c.value(**{"from": "cr_pcr", "to": "pcr",
                          "reason": "corruption"}) == 3
        h = col.metrics.histogram(RESIDUAL_MAX, "")
        assert h.count(method="pcr") == 1
        assert h.summary(method="pcr")["max"] == 0.25

    def test_rendered_in_text_summary(self):
        from repro import telemetry
        from repro.telemetry.metrics import (record_fallback,
                                             record_residual_max)
        with telemetry.collect() as col:
            record_fallback("cr_pcr", "gep", "unstable")
            record_residual_max(1e-6, "gep")
        text = telemetry.text_summary(col)
        assert "cr_pcr -> gep [unstable]: 1" in text
        assert "gep:" in text
